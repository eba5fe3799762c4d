#!/usr/bin/env python3
"""Builds and runs the rangesyn serving benchmark (rsbench/README.md).

    python3 rsbench/run.py --workload point-probe --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
driver (rsbench/CMakeLists.txt, which pulls in the library sources from
the parent directory) under $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild incrementally. The driver's stdout is passed through;
its last line is the JSON result. The metric names in that line are
checked against BENCHMARK.json when the file is present.

Exit codes: the driver's own (0 correct, 1 incorrect answers or books,
2 set-up error), 2 when the library sources are missing or the build
fails, 3 when the driver's metrics do not match BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point-probe", "bulk-batch", "refresh-mix")
# The command as a whole must finish within 180 s once built.
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(code, message):
    print(f"rsbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "rsbench")


def build(bdir):
    """Configures (once) and builds the driver; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(2, f"library sources not found next to {HERE}")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "--target", "rsbench_driver",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(2, f"build step timed out: {' '.join(step)}")
            if done.returncode != 0:
                fail(2, f"build step failed: {' '.join(step)}")
    return os.path.join(bdir, "rsbench_driver")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-mismatch", type=int, choices=(0, 1),
                        default=0,
                        help="verify against a different synopsis (the run "
                             "must then fail; used by smoke_test.py)")
    args = parser.parse_args()

    bdir = build_dir()
    driver = build(bdir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.plant_mismatch:
        cmd += ["--plant-mismatch", "1"]
    env = dict(os.environ)
    # The driver pins the pool itself; fault injection and flight dumps
    # stay off.
    for var in ("RANGESYN_THREADS", "RANGESYN_FAILPOINTS",
                "RANGESYN_FLIGHT_DIR"):
        env.pop(var, None)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, f"driver timed out after {DRIVER_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(done.returncode or 2, f"driver exited with {done.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail(3, "the driver's last line is not a JSON result")
    want = expected_metrics(bool(args.trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want is not None and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(3, f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}, or units differ")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
