#!/usr/bin/env python3
"""Perf-regression gate: diff two benchmark JSON sets.

Compares a candidate benchmark run against a baseline and exits non-zero
when any benchmark regressed beyond the noise-aware thresholds. This is
the comparison half of the perf observatory: `tools/run_bench.sh` writes
the artifacts, `results/baselines/` holds the committed reference set,
and CI runs this script in the `bench-compare` job (see
.github/workflows/ci.yml), which also validates the gate end-to-end by
injecting a failpoint slowdown and asserting it trips.

Input formats (sniffed per file):
  * google-benchmark native JSON — {"context": ..., "benchmarks": [...]}
    as written by run_bench.sh. Rows are keyed by run_name; a run with
    repetitions gates on its median aggregate and ignores its
    per-repetition rows. Each benchmark row compares cpu_time AND
    real_time (cpu alone is blind to sleeping regressions — lock
    contention, I/O stalls — while wall time alone is noisier; gating on
    both catches each class) plus items_per_second / bytes_per_second
    throughput when present.
  * rangesyn BenchReport JSON — {"schema_version": ..., "harness": ...,
    "stats": {...}} as written by --stats-json / eval/report.cc. The
    embedded histograms_ns compare on p50/p95/p99 per phase.

Noise handling (all knobs per comparison, tunable from the CLI):
  * ratio threshold — a metric only regresses when
    candidate > baseline * threshold (default 1.30: generous enough for
    shared CI runners; tighten locally with --threshold). Wall-clock
    metrics gate on --wall-threshold instead (default 1.60): a loaded
    machine moves real_time ~1.4x on its own, while the sleep-class
    regressions wall time exists to catch land at 1.8x+.
  * absolute floor — timings with baseline below --min-time-ns (default
    50 µs) are reported but never gate: sub-floor timings are dominated
    by timer and allocator jitter, and a 2x blip on a 3 µs benchmark is
    not a regression signal. Quantile metrics gate on the same floor.

CPU counts: when both sides of a file pair are google-benchmark output
and their context.num_cpus differ, one warning line is printed and the
file's report carries "num_cpus_mismatch": true. Such a comparison still
gates as usual, but its ratios mix host shapes (every committed baseline
so far was recorded with num_cpus 1).

Improvements never fail the gate (there is no anti-speedup check), and
benchmarks present on only one side are reported as added/removed but do
not gate either — refreshing a baseline is an explicit, reviewed act
(see tools/README.md "Refreshing perf baselines").

Usage:
  tools/bench_compare.py --baseline results/baselines --candidate out \
      [--threshold 1.30] [--min-time-ns 50000] [--json-out report.json]

Baseline/candidate may be directories (matched on BENCH_*.json names) or
a pair of files.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Tuple

DEFAULT_THRESHOLD = 1.30
# Wall-clock metrics get a looser gate: scheduler preemption alone can
# push a single run's real_time ~1.4x on a loaded machine, while the
# regressions wall time exists to catch (sleeps, lock contention, I/O
# stalls) land at 1.8x and beyond. cpu_time stays on the tight gate.
DEFAULT_WALL_THRESHOLD = 1.60
DEFAULT_MIN_TIME_NS = 50_000.0


def load_json(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise SystemExit(f"bench_compare: cannot read {path}: {err}")


def run_key(row: dict) -> str:
    """The run a google-benchmark row belongs to (older JSON: its name)."""
    return row.get("run_name", row["name"])


def extract_metrics(doc: dict, path: pathlib.Path) -> Dict[str, dict]:
    """Flattens one benchmark document into {metric_name: {...}}.

    Every metric carries:
      value      the measured number
      unit       "ns" or "per_second"
      direction  "lower" (timings) or "higher" (throughput)
      gate_time  the timing used for the min-time floor (ns)
    """
    metrics: Dict[str, dict] = {}
    if "benchmarks" in doc:  # google-benchmark native JSON
        rows = doc["benchmarks"]
        # Rows are keyed by run_name, which a run's repetitions and its
        # aggregates share. A run repeated with --benchmark_repetitions
        # gates on its median aggregate alone (the noise-robust one); its
        # per-repetition rows and other aggregates (mean, stddev, cv,
        # BigO, ...) are ignored. A repeated run thus still matches an
        # unrepeated baseline row of the same name.
        with_median = {run_key(row) for row in rows
                       if row.get("run_type") == "aggregate"
                       and row.get("aggregate_name") == "median"}
        for row in rows:
            name = run_key(row)
            if row.get("run_type") == "aggregate":
                if row.get("aggregate_name") != "median":
                    continue
            elif name in with_median:
                continue
            unit = row.get("time_unit", "ns")
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
            if scale is None:
                raise SystemExit(
                    f"bench_compare: {path}: unknown time_unit '{unit}'")
            cpu_ns = float(row["cpu_time"]) * scale
            metrics[f"{name}/cpu_time"] = {
                "value": cpu_ns, "unit": "ns",
                "direction": "lower", "gate_time": cpu_ns,
            }
            # Wall time gates too: a benchmark that starts sleeping —
            # lock contention, disk stalls, an injected sleep failpoint —
            # regresses in real_time while cpu_time stays flat. The
            # cpu-based floor still filters jitter-dominated rows.
            if "real_time" in row:
                metrics[f"{name}/real_time"] = {
                    "value": float(row["real_time"]) * scale, "unit": "ns",
                    "direction": "lower", "gate_time": cpu_ns,
                    "clock": "wall",
                }
            for rate_key in ("items_per_second", "bytes_per_second"):
                if rate_key in row:
                    metrics[f"{name}/{rate_key}"] = {
                        "value": float(row[rate_key]), "unit": "per_second",
                        "direction": "higher", "gate_time": cpu_ns,
                    }
    elif "harness" in doc or "stats" in doc:  # rangesyn BenchReport / stats
        stats = doc.get("stats", doc)
        for name, hist in sorted(stats.get("histograms_ns", {}).items()):
            p50 = float(hist.get("p50", 0.0))
            for q in ("p50", "p95", "p99"):
                if q in hist:
                    metrics[f"{name}/{q}"] = {
                        "value": float(hist[q]), "unit": "ns",
                        "direction": "lower", "gate_time": p50,
                    }
    else:
        raise SystemExit(
            f"bench_compare: {path}: unrecognized benchmark JSON "
            "(expected google-benchmark output or a rangesyn BenchReport)")
    return metrics


def num_cpus(doc: dict):
    """context.num_cpus of a google-benchmark document, else None."""
    return doc.get("context", {}).get("num_cpus")


def compare(baseline: Dict[str, dict], candidate: Dict[str, dict],
            threshold: float, wall_threshold: float,
            min_time_ns: float) -> dict:
    rows: List[dict] = []
    regressions: List[str] = []
    for name in sorted(set(baseline) | set(candidate)):
        if name not in candidate:
            rows.append({"metric": name, "status": "removed"})
            continue
        if name not in baseline:
            rows.append({"metric": name, "status": "added"})
            continue
        base, cand = baseline[name], candidate[name]
        base_v, cand_v = base["value"], cand["value"]
        if base["direction"] == "lower":
            ratio = cand_v / base_v if base_v > 0 else 1.0
        else:  # throughput: invert so ratio > 1 always means "got worse"
            ratio = base_v / cand_v if cand_v > 0 else float("inf")
        gate = wall_threshold if base.get("clock") == "wall" else threshold
        below_floor = base["gate_time"] < min_time_ns
        regressed = ratio > gate and not below_floor
        status = ("regressed" if regressed else
                  "below_floor" if below_floor and ratio > gate else
                  "ok")
        rows.append({
            "metric": name,
            "status": status,
            "baseline": base_v,
            "candidate": cand_v,
            "ratio": round(ratio, 4),
            "unit": base["unit"],
        })
        if regressed:
            regressions.append(name)
    return {
        "schema_version": 1,
        "kind": "bench_compare",
        "threshold": threshold,
        "wall_threshold": wall_threshold,
        "min_time_ns": min_time_ns,
        "regressed": regressions,
        "comparisons": rows,
    }


def gather_pairs(baseline: pathlib.Path,
                 candidate: pathlib.Path) -> List[Tuple[pathlib.Path,
                                                        pathlib.Path]]:
    if baseline.is_file() and candidate.is_file():
        return [(baseline, candidate)]
    if not (baseline.is_dir() and candidate.is_dir()):
        raise SystemExit("bench_compare: --baseline and --candidate must "
                         "both be files or both be directories")
    pairs = []
    base_files = {p.name: p for p in sorted(baseline.glob("BENCH_*.json"))}
    if not base_files:
        raise SystemExit(
            f"bench_compare: no BENCH_*.json files under {baseline}")
    for name, base_path in base_files.items():
        cand_path = candidate / name
        if not cand_path.is_file():
            raise SystemExit(
                f"bench_compare: candidate is missing {name} "
                f"(present in baseline {baseline})")
        pairs.append((base_path, cand_path))
    return pairs


def main() -> int:
    parser = argparse.ArgumentParser(
        description="diff two benchmark JSON sets and fail on regression")
    parser.add_argument("--baseline", required=True, type=pathlib.Path)
    parser.add_argument("--candidate", required=True, type=pathlib.Path)
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="regression ratio; candidate/baseline above "
                             "this fails (default %(default)s)")
    parser.add_argument("--wall-threshold", type=float, default=None,
                        help="regression ratio for wall-clock (real_time) "
                             "metrics; defaults to "
                             f"max(--threshold, {DEFAULT_WALL_THRESHOLD})")
    parser.add_argument("--min-time-ns", type=float,
                        default=DEFAULT_MIN_TIME_NS,
                        help="baseline timings below this never gate "
                             "(default %(default)s)")
    parser.add_argument("--json-out", type=pathlib.Path, default=None,
                        help="also write the full comparison report here")
    args = parser.parse_args()
    if args.threshold <= 1.0:
        raise SystemExit("bench_compare: --threshold must be > 1.0")
    if args.wall_threshold is None:
        args.wall_threshold = max(args.threshold, DEFAULT_WALL_THRESHOLD)
    if args.wall_threshold <= 1.0:
        raise SystemExit("bench_compare: --wall-threshold must be > 1.0")

    reports = []
    all_regressed: List[str] = []
    for base_path, cand_path in gather_pairs(args.baseline, args.candidate):
        base_doc, cand_doc = load_json(base_path), load_json(cand_path)
        base = extract_metrics(base_doc, base_path)
        cand = extract_metrics(cand_doc, cand_path)
        report = compare(base, cand, args.threshold, args.wall_threshold,
                         args.min_time_ns)
        report["baseline_file"] = str(base_path)
        report["candidate_file"] = str(cand_path)
        base_cpus, cand_cpus = num_cpus(base_doc), num_cpus(cand_doc)
        report["num_cpus_mismatch"] = (
            base_cpus is not None and cand_cpus is not None
            and base_cpus != cand_cpus)
        if report["num_cpus_mismatch"]:
            print(f"bench_compare: warning: {cand_path.name}: num_cpus "
                  f"differs (baseline {base_cpus}, candidate {cand_cpus}); "
                  "ratios compare different host shapes")
        reports.append(report)
        all_regressed.extend(
            f"{base_path.name}:{m}" for m in report["regressed"])

    summary = {"schema_version": 1, "kind": "bench_compare_summary",
               "regressed": all_regressed, "files": reports}
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(summary, indent=2) + "\n",
                                 encoding="utf-8")

    compared = sum(
        1 for r in reports for row in r["comparisons"]
        if row["status"] in ("ok", "regressed", "below_floor"))
    print(f"bench_compare: {compared} metrics compared across "
          f"{len(reports)} file(s), threshold {args.threshold}x "
          f"(wall {args.wall_threshold}x), floor {args.min_time_ns:.0f} ns")
    for report in reports:
        for row in report["comparisons"]:
            if row["status"] in ("regressed", "below_floor"):
                flag = ("REGRESSED" if row["status"] == "regressed"
                        else "below-floor (not gating)")
                print(f"  [{flag}] {row['metric']}: "
                      f"{row['baseline']:.1f} -> {row['candidate']:.1f} "
                      f"{row['unit']} ({row['ratio']:.2f}x)")
    if all_regressed:
        print(f"bench_compare: FAIL — {len(all_regressed)} regression(s)")
        return 1
    print("bench_compare: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
