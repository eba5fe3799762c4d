// EXT-TIME (a) — google-benchmark microbenchmarks of synopsis
// construction: the O(n^2 B) dynamic programs, the near-linear wavelet
// picks, and the pseudo-polynomial OPT-A (on the paper-scale dataset
// only; it is the one construction that is not polynomial).
//
// The n = 1000 rows are the shape the serving benchmark (rsbench/) builds:
// a 64-word budget, i.e. 21 SAP0 buckets (3 words each), 12 SAP1 (5),
// 9 SAP2 (7) and 32 A0 (2).

#include <benchmark/benchmark.h>

#include "core/logging.h"
#include "core/random.h"
#include "core/threadpool.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "histogram/builders.h"
#include "histogram/opt_a_dp.h"
#include "histogram/reopt.h"
#include "wavelet/dynamic.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

/// Stamps the resolved worker-thread count (RANGESYN_THREADS / --threads)
/// into the benchmark's counters so BENCH_construction.json records which
/// pool size produced each timing.
void RecordThreads(benchmark::State& state) {
  state.counters["threads"] = static_cast<double>(GlobalThreads());
}

std::vector<int64_t> Dataset(int64_t n, double volume = 4000.0) {
  Rng rng(99);
  ZipfOptions options;
  options.n = n;
  options.total_volume = volume;
  auto floats = ZipfFrequencies(options, &rng);
  RANGESYN_CHECK_OK(floats.status());
  auto data = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
  RANGESYN_CHECK_OK(data.status());
  return data.value();
}

void BM_BuildSap0(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  for (auto _ : state) {
    auto h = BuildSap0(data, state.range(1));
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  state.SetComplexityN(state.range(0));
  RecordThreads(state);
}
BENCHMARK(BM_BuildSap0)
    ->Args({128, 12})
    ->Args({256, 12})
    ->Args({512, 12})
    ->Args({1024, 12})
    ->Args({1024, 64})
    ->Args({512, 6})
    ->Args({512, 24})
    ->Args({1000, 21})
    ->Complexity(benchmark::oNSquared);

void BM_BuildSap1(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  for (auto _ : state) {
    auto h = BuildSap1(data, state.range(1));
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_BuildSap1)
    ->Args({128, 12})
    ->Args({512, 12})
    ->Args({1000, 12})
    ->Args({1024, 12});

void BM_BuildSap2(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  for (auto _ : state) {
    auto h = BuildSap2(data, state.range(1));
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_BuildSap2)->Args({128, 12})->Args({1000, 9});

void BM_BuildA0(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  for (auto _ : state) {
    auto h = BuildA0(data, state.range(1));
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_BuildA0)
    ->Args({128, 12})
    ->Args({512, 12})
    ->Args({1000, 32})
    ->Args({1024, 12});

void BM_BuildPointOpt(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  for (auto _ : state) {
    auto h = BuildPointOpt(data, state.range(1));
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_BuildPointOpt)->Args({128, 12})->Args({1024, 12});

void BM_BuildOptA(benchmark::State& state) {
  // Pseudo-polynomial: paper-scale input only.
  const std::vector<int64_t> data = Dataset(127, 2000.0);
  OptAOptions options;
  options.max_buckets = state.range(0);
  for (auto _ : state) {
    auto h = BuildOptA(data, options);
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_BuildOptA)->Arg(4)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

void BM_BuildOptARounded(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(127, 8000.0);
  OptARoundedOptions options;
  options.max_buckets = 8;
  options.granularity = state.range(0);
  for (auto _ : state) {
    auto h = BuildOptARounded(data, options);
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_BuildOptARounded)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_BuildWaveRangeOpt(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  for (auto _ : state) {
    auto h = BuildWaveRangeOpt(data, 16);
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  state.SetComplexityN(state.range(0));
  RecordThreads(state);
}
BENCHMARK(BM_BuildWaveRangeOpt)
    ->Arg(127)
    ->Arg(1023)
    ->Arg(8191)
    ->Arg(65535)
    ->Complexity(benchmark::oN);

void BM_BuildTopBB(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  for (auto _ : state) {
    auto h = BuildTopBB(data, 16);
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_BuildTopBB)->Arg(127)->Arg(8191)->Arg(65535);

void BM_DynamicWaveletUpdate(benchmark::State& state) {
  // O(log n) incremental upkeep of the range-optimal coefficients vs the
  // O(n) rebuild the paper-era systems would need.
  const std::vector<int64_t> data = Dataset(state.range(0));
  auto maintainer = DynamicRangeSynopsisMaintainer::Create(data);
  RANGESYN_CHECK_OK(maintainer.status());
  Rng rng(17);
  const int64_t n = state.range(0);
  for (auto _ : state) {
    const int64_t i = rng.NextInt(1, n);
    RANGESYN_CHECK_OK(maintainer->ApplyUpdate(i, 1));
  }
  state.SetItemsProcessed(state.iterations());
  RecordThreads(state);
}
BENCHMARK(BM_DynamicWaveletUpdate)->Arg(127)->Arg(8191)->Arg(65535);

void BM_ReoptPass(benchmark::State& state) {
  const std::vector<int64_t> data = Dataset(state.range(0));
  auto base = BuildEquiDepth(data, state.range(1));
  RANGESYN_CHECK_OK(base.status());
  for (auto _ : state) {
    auto h = Reoptimize(data, base.value());
    RANGESYN_CHECK_OK(h.status());
    benchmark::DoNotOptimize(h);
  }
  RecordThreads(state);
}
BENCHMARK(BM_ReoptPass)->Args({512, 16})->Args({4096, 16})->Args({4096, 64});

}  // namespace
}  // namespace rangesyn

BENCHMARK_MAIN();
