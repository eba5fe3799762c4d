#!/usr/bin/env python3
"""Smoke test for the serving benchmark (rsbench/README.md).

    python3 rsbench/smoke_test.py

Run from the repository root. For every workload it makes a short
untraced run and a short traced run and asserts that each metric
BENCHMARK.json names is present with its unit, that the run is correct,
and that every value is a finite number. It then plants a mismatch
(answers checked against a different synopsis) and asserts the command
fails, and asserts that a tree holding only BENCHMARK.json and rsbench/
makes the command fail without printing a result. Takes about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{done.stderr[-2000:]}"
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = run(workload, trace)
            what = f"{workload} --trace {trace}"
            check(done.returncode == 0, f"{what}: exit 0")
            if done.returncode != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                continue
            result = result_of(done)
            check(result["correct"] is True and result["failed"] == 0,
                  f"{what}: correct, nothing failed")
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{what}: result keys")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{what}: every metric with its unit")
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{what}: finite values")

        done = run(workload, 0, "--plant-mismatch", "1")
        check(done.returncode != 0, f"{workload}: planted mismatch fails")
        check(result_of(done)["correct"] is False,
              f"{workload}: planted mismatch reports correct=false")

    # A tree with only the benchmark's own files cannot build the program.
    bare = os.path.join(ROOT, ".bench_build", "rsbench-smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "rsbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "rsbench/run.py", "--workload", "point-probe",
         "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
    check(done.returncode != 0 and not done.stdout.strip(),
          "bare tree: fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
