// EXT-TIME (b') — the flat query path per estimator family at paper
// scale (n = 4096, 64-word synopses). Every row answers the *same*
// pre-generated 4096-query batch per iteration, two ways:
//   Flat       — FlatSynopsis::EstimateOne, one call per query
//   FlatBatch  — one FlatSynopsis::EstimateMany over the whole batch
// so per-iteration times are directly comparable. The answers are
// bit-identical across both rows (tests/qpath_flat_test.cc), so the
// comparison is purely about serving cost.
//
// The Large rows answer the same-size batch over an n = 65536 equi-depth
// histogram of 8192 buckets, so the bucket arrays outgrow L1; n = 65536
// is FlatSynopsis::kMaxEndTableN, the largest view with end tables. The
// Untabled row answers it over an n = 2^20 equi-width histogram of 32
// buckets, above that bound, where the kernels search their buckets.
//
// BM_FlatOpen/N times FromBuffers over a compiled n = N equi-depth
// histogram of 32 buckets: validation plus the derived tables, the
// cost of opening a view (RSF1 open or catalog load) at n = 1000 and at
// kMaxEndTableN.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/analysis_annotations.h"
#include "core/logging.h"
#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/factory.h"
#include "histogram/builders.h"
#include "histogram/histogram.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

constexpr int64_t kPaperN = 4096;
constexpr int64_t kBatch = 4096;
constexpr int64_t kLargeN = 65536;
constexpr int64_t kLargeBuckets = 8192;
constexpr int64_t kUntabledN = int64_t{1} << 20;
constexpr int64_t kUntabledBuckets = 32;

std::vector<int64_t> Dataset(int64_t n) {
  Rng rng(7);
  ZipfOptions options;
  options.n = n;
  options.total_volume = 500000.0;
  auto floats = ZipfFrequencies(options, &rng);
  RANGESYN_CHECK_OK(floats.status());
  auto data = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
  RANGESYN_CHECK_OK(data.status());
  return data.value();
}

std::vector<FlatQuery> QueryBatch(int64_t n) {
  Rng rng(3);
  std::vector<FlatQuery> queries;
  queries.reserve(kBatch);
  for (int64_t i = 0; i < kBatch; ++i) {
    const int64_t a = rng.NextInt(1, n);
    const int64_t b = rng.NextInt(a, n);
    queries.push_back({a, b});
  }
  return queries;
}

/// Builds the family under a 64-word budget. As in bench_query, the SAP
/// representations are built on cheap equi-depth boundaries (boundary
/// *choice* does not affect query latency; their optimal construction
/// is measured in bench_construction).
std::shared_ptr<const FlatSynopsis> BuildFamily(
    const std::string& method, const std::vector<int64_t>& data) {
  const Result<std::shared_ptr<const FlatSynopsis>> built = [&] {
    if (method == "sap0" || method == "sap1" || method == "sap2") {
      auto cheap = BuildEquiDepth(data, 32);
      RANGESYN_CHECK_OK(cheap.status());
      const Partition& p = cheap->partition();
      if (method == "sap0") return Sap0Histogram::Build(data, p)->Compile();
      if (method == "sap1") return Sap1Histogram::Build(data, p)->Compile();
      return Sap2Histogram::Build(data, p)->Compile();
    }
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 64;
    return BuildSynopsis(spec, data);
  }();
  RANGESYN_CHECK_OK(built.status());
  return built.value();
}

/// The timed step of the one-at-a-time rows: answer the whole batch
/// through EstimateOne. RANGESYN_HOT_PATH so rangesyn-analyze proves the
/// loop the benchmark times is allocation- and lock-free.
RANGESYN_HOT_PATH double AnswerBatchFlat(
    const FlatSynopsis& flat, const std::vector<FlatQuery>& queries) {
  double acc = 0.0;
  for (const FlatQuery& q : queries) {
    acc += flat.EstimateOne(q.a, q.b);
  }
  return acc;
}

void RunFlat(benchmark::State& state, const FlatSynopsis& flat,
             const std::vector<FlatQuery>& queries) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnswerBatchFlat(flat, queries));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void RunFlatBatch(benchmark::State& state, const FlatSynopsis& flat,
                  const std::vector<FlatQuery>& queries) {
  std::vector<double> out(queries.size());
  FlatSynopsis::BatchScratch scratch;
  // One untimed pass warms the caches.
  RANGESYN_CHECK_OK(flat.EstimateMany(queries, out, &scratch));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat.EstimateMany(queries, out, &scratch).ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_Flat(benchmark::State& state, const std::string& method) {
  RunFlat(state, *BuildFamily(method, Dataset(kPaperN)), QueryBatch(kPaperN));
}

void BM_FlatBatch(benchmark::State& state, const std::string& method) {
  RunFlatBatch(state, *BuildFamily(method, Dataset(kPaperN)),
               QueryBatch(kPaperN));
}

std::shared_ptr<const FlatSynopsis> LargeEquiDepth() {
  auto hist = BuildEquiDepth(Dataset(kLargeN), kLargeBuckets);
  RANGESYN_CHECK_OK(hist.status());
  RANGESYN_CHECK_EQ(hist->partition().num_buckets(), kLargeBuckets);
  return hist->Compile().value();
}

void BM_Flat_EquiDepthLarge(benchmark::State& state) {
  RunFlat(state, *LargeEquiDepth(), QueryBatch(kLargeN));
}

void BM_FlatBatch_EquiDepthLarge(benchmark::State& state) {
  RunFlatBatch(state, *LargeEquiDepth(), QueryBatch(kLargeN));
}

void BM_FlatBatch_EquiWidthUntabled(benchmark::State& state) {
  auto hist = BuildEquiWidth(Dataset(kUntabledN), kUntabledBuckets);
  RANGESYN_CHECK_OK(hist.status());
  RunFlatBatch(state, *hist->Compile().value(), QueryBatch(kUntabledN));
}

void BM_FlatOpen(benchmark::State& state) {
  auto hist = BuildEquiDepth(Dataset(state.range(0)), 32);
  RANGESYN_CHECK_OK(hist.status());
  auto flat = hist->Compile();
  RANGESYN_CHECK_OK(flat.status());
  const FlatSynopsis& view = *flat.value();
  for (auto _ : state) {
    auto reopened = FlatSynopsis::FromBuffers(
        view.kind(), view.aux(), view.n(), view.num_buckets(),
        view.padded_size(), view.i64s(), view.f64s(), flat.value());
    RANGESYN_CHECK_OK(reopened.status());
    benchmark::DoNotOptimize(reopened.value().get());
  }
}

#define RANGESYN_QUERY_FLAT_ROWS(Name, method)                      \
  void BM_Flat_##Name(benchmark::State& s) { BM_Flat(s, method); }     \
  void BM_FlatBatch_##Name(benchmark::State& s) {                      \
    BM_FlatBatch(s, method);                                           \
  }                                                                    \
  BENCHMARK(BM_Flat_##Name);                                           \
  BENCHMARK(BM_FlatBatch_##Name)

RANGESYN_QUERY_FLAT_ROWS(EquiDepth, "equidepth");
RANGESYN_QUERY_FLAT_ROWS(Sap0, "sap0");
RANGESYN_QUERY_FLAT_ROWS(A0, "a0");
RANGESYN_QUERY_FLAT_ROWS(Sap1, "sap1");
RANGESYN_QUERY_FLAT_ROWS(Sap2, "sap2");
RANGESYN_QUERY_FLAT_ROWS(Naive, "naive");
RANGESYN_QUERY_FLAT_ROWS(WavePoint, "wave-point");
RANGESYN_QUERY_FLAT_ROWS(WaveRangeOpt, "wave-range-opt");
BENCHMARK(BM_Flat_EquiDepthLarge);
BENCHMARK(BM_FlatBatch_EquiDepthLarge);
BENCHMARK(BM_FlatBatch_EquiWidthUntabled);
BENCHMARK(BM_FlatOpen)->Arg(1000)->Arg(FlatSynopsis::kMaxEndTableN);

}  // namespace
}  // namespace rangesyn

BENCHMARK_MAIN();
