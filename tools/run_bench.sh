#!/usr/bin/env bash
# Runs the google-benchmark microbenchmarks and writes machine-readable
# JSON records next to the human-readable console output:
#   BENCH_construction.json / BENCH_query.json / BENCH_query_flat.json /
#   BENCH_serving.json (benchmark's native JSON)
# Environment overrides:
#   BUILD_DIR  build tree holding bench/ binaries   (default: build)
#   OUT_DIR    where the JSON artifacts land        (default: .)
#   MIN_TIME   --benchmark_min_time per benchmark, in seconds (default:
#              unset; pass e.g. MIN_TIME=0.01 for a CI smoke run)
#   REPETITIONS  --benchmark_repetitions per benchmark (default: unset,
#              one run). With repetitions the JSON also carries
#              mean/median/stddev aggregates; tools/bench_compare.py
#              gates a repeated run on its median.
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-.}"

if [[ ! -d "${BUILD_DIR}/bench" ]]; then
  echo "error: ${BUILD_DIR}/bench not found — configure and build first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

extra_args=()
if [[ -n "${MIN_TIME:-}" ]]; then
  extra_args+=("--benchmark_min_time=${MIN_TIME}")
fi
if [[ -n "${REPETITIONS:-}" ]]; then
  extra_args+=("--benchmark_repetitions=${REPETITIONS}")
fi

mkdir -p "${OUT_DIR}"
for bench in construction query query_flat serving; do
  binary="${BUILD_DIR}/bench/bench_${bench}"
  out="${OUT_DIR}/BENCH_${bench}.json"
  if [[ ! -x "${binary}" ]]; then
    echo "error: ${binary} is missing or not executable" >&2
    exit 1
  fi
  echo "== bench_${bench} -> ${out}"
  # Fail fast and say WHICH harness died: under plain `set -e` the loop
  # would stop with only the benchmark's own (possibly empty) output to
  # go on, and a half-written JSON artifact left looking valid.
  status=0
  "${binary}" \
    --benchmark_format=console \
    --benchmark_out_format=json \
    --benchmark_out="${out}" \
    "${extra_args[@]+"${extra_args[@]}"}" || status=$?
  if [[ "${status}" -ne 0 ]]; then
    echo "error: bench_${bench} exited with status ${status}" >&2
    rm -f "${out}"
    exit "${status}"
  fi
done

# Stamp each artifact with the static-analysis verdict for the sources
# these binaries were built from: which backend and checker generation
# ran, whether the repo analyzed clean, the hot-path roots the timed
# loops go through, and the lock-free/lends-view contracts the serving
# path declares. A bench row is only comparable across machines if the
# loop it times is provably allocation- and lock-free — and the
# zero-copy views it serves from provably non-dangling — so the verdict
# travels with the numbers.
analysis_status=0
python3 tools/analyze/rangesyn_analyze.py \
  --config tools/analyze/analyze_config.toml \
  --meta-json "${OUT_DIR}/ANALYZE_meta.json" \
  >/dev/null 2>&1 || analysis_status=$?
python3 - "$OUT_DIR" "$analysis_status" <<'EOF'
import json
import pathlib
import sys

out_dir = pathlib.Path(sys.argv[1])
clean = sys.argv[2] == "0"
meta_path = out_dir / "ANALYZE_meta.json"
meta = json.loads(meta_path.read_text(encoding="utf-8"))
stamp = {
    "backend": meta["backend"],
    "clean": clean,
    "generation": meta["generation"],
    "hot_roots": sorted(meta["hot_roots"]),
    "lock_free_roots": sorted(meta["lock_free"] + meta["seqlock_read"]),
    "lends_view": sorted(meta["lends_view"]),
}
for name in ("BENCH_construction.json", "BENCH_query.json",
             "BENCH_query_flat.json", "BENCH_serving.json"):
    path = out_dir / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.setdefault("context", {})["static_analysis"] = stamp
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"stamped {path} (static_analysis.clean={clean})")
EOF

echo "wrote ${OUT_DIR}/BENCH_construction.json ${OUT_DIR}/BENCH_query.json" \
     "${OUT_DIR}/BENCH_query_flat.json ${OUT_DIR}/BENCH_serving.json"
