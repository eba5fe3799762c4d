// EXT-TIME (b) — google-benchmark microbenchmarks of query answering:
// estimate latency per synopsis family through the flat view
// (FlatSynopsis::EstimateOne, the library's one query path), versus the
// exact executor's O(1) prefix lookup and a raw scan.

#include <benchmark/benchmark.h>

#include "core/analysis_annotations.h"
#include "core/logging.h"
#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/factory.h"
#include "engine/table.h"
#include "histogram/builders.h"
#include "histogram/prefix_stats.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

std::vector<int64_t> Dataset(int64_t n) {
  Rng rng(7);
  ZipfOptions options;
  options.n = n;
  options.total_volume = 50000.0;
  auto floats = ZipfFrequencies(options, &rng);
  RANGESYN_CHECK_OK(floats.status());
  auto data = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
  RANGESYN_CHECK_OK(data.status());
  return data.value();
}

/// The timed per-iteration step: draw a random range, answer it. Kept
/// as a RANGESYN_HOT_PATH function so rangesyn-analyze proves the loop
/// body the benchmark times is allocation- and lock-free; what it
/// measures is then synopsis arithmetic, not allocator noise.
RANGESYN_HOT_PATH double QueryOnce(const FlatSynopsis& synopsis, Rng& rng,
                                   int64_t n) {
  const int64_t a = rng.NextInt(1, n);
  const int64_t b = rng.NextInt(a, n);
  return synopsis.EstimateOne(a, b);
}

/// Same contract for the exact-executor baseline's inner step.
RANGESYN_HOT_PATH int64_t PrefixLookupOnce(const PrefixStats& stats,
                                           Rng& rng, int64_t n) {
  const int64_t a = rng.NextInt(1, n);
  const int64_t b = rng.NextInt(a, n);
  return stats.Sum(a, b);
}

void RunQueryRow(benchmark::State& state, const std::string& method) {
  const int64_t n = state.range(0);
  const std::vector<int64_t> data = Dataset(n);
  // Query latency does not depend on how boundaries were chosen, so the
  // SAP representations are built on cheap equi-depth boundaries here
  // (their optimal DP construction is O(n^2 B) — measured separately in
  // bench_construction at feasible sizes).
  Result<std::shared_ptr<const FlatSynopsis>> synopsis = [&] {
    if (method == "sap0" || method == "sap1") {
      auto cheap = BuildEquiDepth(data, 32);
      RANGESYN_CHECK_OK(cheap.status());
      if (method == "sap0") {
        return Sap0Histogram::Build(data, cheap->partition())->Compile();
      }
      return Sap1Histogram::Build(data, cheap->partition())->Compile();
    }
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 64;
    return BuildSynopsis(spec, data);
  }();
  RANGESYN_CHECK_OK(synopsis.status());
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueryOnce(*synopsis.value(), rng, n));
  }
}

void BM_QueryEquiDepth(benchmark::State& state) {
  RunQueryRow(state, "equidepth");
}
void BM_QuerySap0(benchmark::State& state) { RunQueryRow(state, "sap0"); }
void BM_QuerySap1(benchmark::State& state) { RunQueryRow(state, "sap1"); }
void BM_QueryWaveRangeOpt(benchmark::State& state) {
  RunQueryRow(state, "wave-range-opt");
}
void BM_QueryTopBB(benchmark::State& state) { RunQueryRow(state, "topbb"); }
BENCHMARK(BM_QueryEquiDepth)->Arg(1024)->Arg(65536);
BENCHMARK(BM_QuerySap0)->Arg(1024)->Arg(65536);
BENCHMARK(BM_QuerySap1)->Arg(1024)->Arg(65536);
BENCHMARK(BM_QueryWaveRangeOpt)->Arg(1024)->Arg(65536);
BENCHMARK(BM_QueryTopBB)->Arg(1024)->Arg(65536);

void BM_ExactPrefixLookup(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::vector<int64_t> data = Dataset(n);
  PrefixStats stats(data);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrefixLookupOnce(stats, rng, n));
  }
}
BENCHMARK(BM_ExactPrefixLookup)->Arg(1024)->Arg(65536);

void BM_ExactColumnScan(benchmark::State& state) {
  // The executor path a synopsis is meant to replace: scan all records.
  Column column("v");
  Rng rng(11);
  for (int64_t i = 0; i < state.range(0); ++i) {
    column.Append(rng.NextInt(0, 1000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(column.CountRange(100, 500));
  }
}
BENCHMARK(BM_ExactColumnScan)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace rangesyn

BENCHMARK_MAIN();
