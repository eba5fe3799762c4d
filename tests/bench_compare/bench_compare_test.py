#!/usr/bin/env python3
"""Self-test for the CPU-count check of tools/bench_compare.py.

Writes two one-row google-benchmark files that differ only in
context.num_cpus and checks that the comparison warns once, marks the
file pair with "num_cpus_mismatch": true in --json-out, and still
passes. Equal CPU counts must stay silent. Wired into ctest as
`bench_compare_selftest` (tests/CMakeLists.txt).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH_COMPARE = REPO_ROOT / "tools" / "bench_compare.py"


def bench_doc(num_cpus: int) -> dict:
    return {
        "context": {"num_cpus": num_cpus},
        "benchmarks": [{"name": "BM_Tiny", "run_type": "iteration",
                        "time_unit": "ns", "cpu_time": 100.0,
                        "real_time": 100.0}],
    }


class NumCpusMismatchTest(unittest.TestCase):
    def run_pair(self, base_cpus: int, cand_cpus: int):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = pathlib.Path(tmp)
            base = tmp_path / "base.json"
            cand = tmp_path / "cand.json"
            report = tmp_path / "report.json"
            base.write_text(json.dumps(bench_doc(base_cpus)))
            cand.write_text(json.dumps(bench_doc(cand_cpus)))
            proc = subprocess.run(
                [sys.executable, str(BENCH_COMPARE), "--baseline", str(base),
                 "--candidate", str(cand), "--json-out", str(report)],
                capture_output=True, text=True, check=False)
            return proc, json.loads(report.read_text())

    def test_mismatch_warns_and_flags_without_failing(self):
        proc, report = self.run_pair(1, 4)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        warnings = [line for line in proc.stdout.splitlines()
                    if "num_cpus differs" in line]
        self.assertEqual(len(warnings), 1, proc.stdout)
        self.assertIn("baseline 1, candidate 4", warnings[0])
        self.assertIs(report["files"][0]["num_cpus_mismatch"], True)
        self.assertEqual(report["regressed"], [])

    def test_equal_counts_stay_silent(self):
        proc, report = self.run_pair(4, 4)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("num_cpus differs", proc.stdout)
        self.assertIs(report["files"][0]["num_cpus_mismatch"], False)


if __name__ == "__main__":
    unittest.main()
