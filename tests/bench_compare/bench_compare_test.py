#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py.

CPU-count check: two one-row google-benchmark files that differ only in
context.num_cpus must warn once, mark the file pair with
"num_cpus_mismatch": true in --json-out, and still pass. Equal CPU
counts must stay silent.

Repetitions: rows are keyed by run_name, and a run recorded with
--benchmark_repetitions gates on its median aggregate alone, so one
slow repetition does not trip the gate, a slow median does, and a
repeated candidate still matches an unrepeated baseline by name.

Wired into ctest as `bench_compare_selftest` (tests/CMakeLists.txt).
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


def run_docs(base_doc: dict, cand_doc: dict):
    """Runs bench_compare on two documents; returns (process, report)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        report = tmp_path / "report.json"
        base.write_text(json.dumps(base_doc))
        cand.write_text(json.dumps(cand_doc))
        proc = subprocess.run(
            [sys.executable, str(BENCH_COMPARE), "--baseline", str(base),
             "--candidate", str(cand), "--json-out", str(report)],
            capture_output=True, text=True, check=False)
        return proc, json.loads(report.read_text())


def row(name: str, cpu_ns: float, **extra) -> dict:
    out = {"name": name, "run_name": name, "run_type": "iteration",
           "time_unit": "ns", "cpu_time": cpu_ns, "real_time": cpu_ns}
    out.update(extra)
    return out


def repeated_rows(name: str, times_ns, median_ns: float) -> list:
    """google-benchmark's rows for one run with repetitions."""
    rows = [row(name, t, repetitions=len(times_ns), repetition_index=i)
            for i, t in enumerate(times_ns)]
    for agg, value in (("mean", sum(times_ns) / len(times_ns)),
                       ("median", median_ns), ("stddev", 1.0)):
        rows.append({"name": f"{name}_{agg}", "run_name": name,
                     "run_type": "aggregate", "aggregate_name": agg,
                     "repetitions": len(times_ns), "time_unit": "ns",
                     "cpu_time": value, "real_time": value})
    return rows


def gated(report: dict) -> dict:
    """{metric: status} for the compared (not added/removed) metrics."""
    return {r["metric"]: r["status"]
            for r in report["files"][0]["comparisons"]
            if r["status"] in ("ok", "regressed", "below_floor")}


class NumCpusMismatchTest(unittest.TestCase):
    def run_pair(self, base_cpus: int, cand_cpus: int):
        return run_docs(bench_doc(base_cpus), bench_doc(cand_cpus))

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


class RepetitionsTest(unittest.TestCase):
    BIG = "BM_BuildSap2/1000/9"
    MS = 1e6  # one millisecond in ns: well above the 50 us floor

    def test_repeated_candidate_matches_unrepeated_baseline(self):
        base = {"benchmarks": [row(self.BIG, 40 * self.MS)]}
        cand = {"benchmarks": repeated_rows(
            self.BIG, [41 * self.MS, 39 * self.MS, 40 * self.MS],
            40 * self.MS)}
        proc, report = run_docs(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(gated(report), {
            f"{self.BIG}/cpu_time": "ok", f"{self.BIG}/real_time": "ok"})
        # Nothing under the aggregate row names, nothing added or removed.
        statuses = {r["status"]
                    for r in report["files"][0]["comparisons"]}
        self.assertEqual(statuses, {"ok"})

    def test_one_slow_repetition_does_not_trip_the_gate(self):
        base = {"benchmarks": repeated_rows(
            self.BIG, [40 * self.MS] * 3, 40 * self.MS)}
        # The last repetition is 3x slow; the median is unchanged. Keyed
        # by name alone, the last repetition row would have won.
        cand = {"benchmarks": repeated_rows(
            self.BIG, [40 * self.MS, 41 * self.MS, 120 * self.MS],
            41 * self.MS)}
        proc, report = run_docs(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(report["regressed"], [])

    def test_slow_median_trips_the_gate(self):
        base = {"benchmarks": repeated_rows(
            self.BIG, [40 * self.MS] * 3, 40 * self.MS)}
        cand = {"benchmarks": repeated_rows(
            self.BIG, [80 * self.MS, 81 * self.MS, 82 * self.MS],
            81 * self.MS)}
        proc, report = run_docs(base, cand)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn(f"{self.BIG}/cpu_time", report["files"][0]["regressed"])

    def test_unrepeated_runs_and_other_aggregates_still_gate(self):
        # A run without repetitions keeps its iteration row even when
        # another run in the file is repeated; BigO-style aggregates
        # never gate.
        other = "BM_BuildA0/1000/32"
        bigo = {"name": "BM_BuildSap2_BigO", "run_name": "BM_BuildSap2",
                "run_type": "aggregate", "aggregate_name": "BigO",
                "time_unit": "ns", "cpu_time": 1.0, "real_time": 1.0}
        base = {"benchmarks": [row(other, 30 * self.MS), bigo]
                + repeated_rows(self.BIG, [40 * self.MS] * 3, 40 * self.MS)}
        cand = {"benchmarks": [row(other, 60 * self.MS), bigo]
                + repeated_rows(self.BIG, [40 * self.MS] * 3, 40 * self.MS)}
        proc, report = run_docs(base, cand)
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertEqual(sorted(report["files"][0]["regressed"]),
                         [f"{other}/cpu_time", f"{other}/real_time"])
        self.assertNotIn("BM_BuildSap2/cpu_time", gated(report))

    def test_rows_without_run_name_key_by_name(self):
        legacy = {"name": self.BIG, "run_type": "iteration",
                  "time_unit": "ns", "cpu_time": 40 * self.MS,
                  "real_time": 40 * self.MS}
        cand = {"benchmarks": repeated_rows(
            self.BIG, [40 * self.MS] * 3, 40 * self.MS)}
        proc, report = run_docs({"benchmarks": [legacy]}, cand)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn(f"{self.BIG}/cpu_time", gated(report))


if __name__ == "__main__":
    unittest.main()
