// Bit-exact determinism of the parallel construction paths: for ~200
// seeded random distributions, every synopsis built with an 8-thread pool
// must be *identical* — exact double equality, not approximate — to the
// one built serially, and both must agree with the brute-force audit
// oracles where the domain is small enough to enumerate. This is the
// executable form of the determinism contract in DESIGN.md ("Threading
// model"): chunk layout is a pure function of the iteration space, and
// every reduction merges in index order.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/oracles.h"
#include "core/random.h"
#include "core/threadpool.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "eval/experiment.h"
#include "histogram/bucket_cost.h"
#include "histogram/dp.h"
#include "histogram/opt_a_dp.h"
#include "histogram/prefix_stats.h"
#include "wavelet/selection.h"
#include "wavelet/synopsis.h"

namespace rangesyn {
namespace {

constexpr int kParallelThreads = 8;

/// Restores the default thread resolution when a test scope exits, so a
/// failing assertion cannot leak an override into later tests.
struct ThreadsGuard {
  explicit ThreadsGuard(int threads) { SetGlobalThreads(threads); }
  ~ThreadsGuard() { SetGlobalThreads(-1); }
};

/// The three seeded families the determinism sweep cycles through.
const char* const kFamilies[] = {"zipf", "spike", "uniform"};

std::vector<int64_t> SeededDataset(int case_id, int64_t n, double volume) {
  Rng rng(0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(case_id));
  auto floats = MakeNamedDistribution(
      kFamilies[case_id % 3], n, volume, &rng);
  EXPECT_TRUE(floats.ok()) << floats.status();
  auto data = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
  EXPECT_TRUE(data.ok()) << data.status();
  return data.value();
}

void ExpectSamePartition(const Partition& serial, const Partition& parallel,
                         int case_id) {
  EXPECT_EQ(serial, parallel) << "case " << case_id;
}

// --- Interval DP (SAP0 cost) ------------------------------------------

// 90 seeded cases over n up to 256. The interval DP runs serially on the
// calling thread whatever the pool size, so this pins that the thread
// count has no way into its answer. The comparison is exact (== on
// doubles); tests/dp_test.cc compares the fill against the textbook
// k -> i -> j loop, ties included.
TEST(DeterminismTest, IntervalDpBitIdenticalAcrossThreadCounts) {
  const int64_t sizes[] = {4, 7, 12, 33, 64, 256};
  int case_id = 0;
  for (int64_t n : sizes) {
    for (int rep = 0; rep < 15; ++rep, ++case_id) {
      const std::vector<int64_t> data = SeededDataset(case_id, n, 500.0);
      PrefixStats stats(data);
      BucketCosts costs(stats);
      const BucketCostFn cost = [&costs](int64_t l, int64_t r) {
        return costs.Sap0Cost(l, r);
      };
      const int64_t max_b = std::min<int64_t>(n, 3 + case_id % 6);
      std::vector<IntervalDpResult> serial;
      {
        ThreadsGuard guard(1);
        auto r = SolveIntervalDpAllK(n, max_b, cost);
        ASSERT_TRUE(r.ok()) << r.status();
        serial = std::move(r.value());
      }
      std::vector<IntervalDpResult> parallel;
      {
        ThreadsGuard guard(kParallelThreads);
        auto r = SolveIntervalDpAllK(n, max_b, cost);
        ASSERT_TRUE(r.ok()) << r.status();
        parallel = std::move(r.value());
      }
      ASSERT_EQ(serial.size(), parallel.size()) << "case " << case_id;
      for (size_t k = 0; k < serial.size(); ++k) {
        EXPECT_EQ(serial[k].cost, parallel[k].cost)
            << "case " << case_id << " k=" << k + 1;
        EXPECT_EQ(serial[k].buckets_used, parallel[k].buckets_used);
        ExpectSamePartition(serial[k].partition, parallel[k].partition,
                            case_id);
      }
      // Oracle cross-check on enumerable domains: the DP result
      // must also be the exhaustive optimum.
      if (n <= 12) {
        auto naive = audit::NaiveMinCostPartitionAtMost(n, max_b, cost);
        ASSERT_TRUE(naive.ok()) << naive.status();
        double best = serial[0].cost;
        for (const IntervalDpResult& r : serial) {
          best = std::min(best, r.cost);
        }
        EXPECT_NEAR(naive->cost, best, 1e-9 * std::abs(best) + 1e-6)
            << "case " << case_id;
      }
    }
  }
  EXPECT_EQ(case_id, 90);
}

// --- OPT-A Λ-DP -------------------------------------------------------

// 60 seeded cases, n up to 36 (the Λ state space is volume-bounded). The
// layer fan-out uses per-cell scratch maps and a pre-sort by the unique Λ
// key, so states_explored — not just the answer — must match exactly.
TEST(DeterminismTest, OptABitIdenticalAcrossThreadCounts) {
  const int64_t sizes[] = {5, 9, 14, 20, 28, 36};
  int case_id = 0;
  for (int64_t n : sizes) {
    for (int rep = 0; rep < 10; ++rep, ++case_id) {
      const std::vector<int64_t> data = SeededDataset(case_id, n, 120.0);
      OptAOptions options;
      options.max_buckets = std::min<int64_t>(n, 2 + case_id % 5);
      // Exercise both prune configurations: pruning must be deterministic
      // too, not just the unpruned DP.
      options.enable_dominance_prune = (case_id % 2 == 0);
      std::optional<OptAResult> serial;
      {
        ThreadsGuard guard(1);
        auto r = BuildOptA(data, options);
        ASSERT_TRUE(r.ok()) << r.status() << " case " << case_id;
        serial.emplace(std::move(r.value()));
      }
      std::optional<OptAResult> parallel;
      {
        ThreadsGuard guard(kParallelThreads);
        auto r = BuildOptA(data, options);
        ASSERT_TRUE(r.ok()) << r.status() << " case " << case_id;
        parallel.emplace(std::move(r.value()));
      }
      EXPECT_EQ(serial->optimal_sse, parallel->optimal_sse)
          << "case " << case_id;
      EXPECT_EQ(serial->buckets_used, parallel->buckets_used);
      EXPECT_EQ(serial->states_explored, parallel->states_explored)
          << "case " << case_id;
      ExpectSamePartition(serial->histogram.partition(),
                          parallel->histogram.partition(), case_id);
      EXPECT_EQ(serial->histogram.values(), parallel->histogram.values())
          << "case " << case_id;
      // Oracle: the DP's claimed SSE is the histogram's actual all-ranges
      // SSE, recomputed by direct summation.
      if (n <= 14) {
        auto naive = audit::NaiveAllRangesSse(
            data, *parallel->histogram.Compile().value());
        ASSERT_TRUE(naive.ok()) << naive.status();
        EXPECT_NEAR(naive.value(), parallel->optimal_sse,
                    1e-9 * parallel->optimal_sse + 1e-6)
            << "case " << case_id;
      }
    }
  }
  EXPECT_EQ(case_id, 60);
}

// --- Wavelet selection ------------------------------------------------

void ExpectSameSynopsis(const WaveletSynopsis& serial,
                        const WaveletSynopsis& parallel, int case_id) {
  EXPECT_EQ(serial.padded_size(), parallel.padded_size());
  ASSERT_EQ(serial.coefficients().size(), parallel.coefficients().size())
      << "case " << case_id;
  for (size_t i = 0; i < serial.coefficients().size(); ++i) {
    EXPECT_EQ(serial.coefficients()[i].index,
              parallel.coefficients()[i].index)
        << "case " << case_id << " coeff " << i;
    EXPECT_EQ(serial.coefficients()[i].value,
              parallel.coefficients()[i].value)
        << "case " << case_id << " coeff " << i;
  }
}

// 60 seeded cases across the three selectors. Sizes include n = 7 and
// n = 15 (n + 1 a power of two), where the exhaustive subset-enumeration
// oracle for WAVE-RANGE-OPT is exact.
TEST(DeterminismTest, WaveletSelectionBitIdenticalAcrossThreadCounts) {
  const int64_t sizes[] = {7, 15, 40, 96, 256};
  int case_id = 0;
  for (int64_t n : sizes) {
    for (int rep = 0; rep < 12; ++rep, ++case_id) {
      const std::vector<int64_t> data = SeededDataset(case_id, n, 800.0);
      const int64_t budget = 1 + case_id % 7;
      const auto build_all = [&] {
        struct Out {
          WaveletSynopsis point;
          WaveletSynopsis topbb;
          WaveletSynopsis range_opt;
        };
        auto point = BuildWavePoint(data, budget);
        auto topbb = BuildTopBB(data, budget);
        auto range_opt = BuildWaveRangeOpt(data, budget);
        EXPECT_TRUE(point.ok()) << point.status();
        EXPECT_TRUE(topbb.ok()) << topbb.status();
        EXPECT_TRUE(range_opt.ok()) << range_opt.status();
        return Out{std::move(point.value()), std::move(topbb.value()),
                   std::move(range_opt.value())};
      };
      SetGlobalThreads(1);
      const auto serial = build_all();
      SetGlobalThreads(kParallelThreads);
      const auto parallel = build_all();
      SetGlobalThreads(-1);
      ExpectSameSynopsis(serial.point, parallel.point, case_id);
      ExpectSameSynopsis(serial.topbb, parallel.topbb, case_id);
      ExpectSameSynopsis(serial.range_opt, parallel.range_opt, case_id);
      // Oracle: WAVE-RANGE-OPT is the best possible prefix-domain synopsis
      // of this budget (Theorem 9); enumerable when padded <= 16.
      if (n == 7 || n == 15) {
        auto best = audit::NaiveBestPrefixWaveletSse(data, budget);
        ASSERT_TRUE(best.ok()) << best.status();
        auto actual = audit::NaiveAllRangesSse(
            data, *parallel.range_opt.Compile().value());
        ASSERT_TRUE(actual.ok()) << actual.status();
        EXPECT_NEAR(actual.value(), best.value(),
                    1e-9 * best.value() + 1e-6)
            << "case " << case_id;
      }
    }
  }
  EXPECT_EQ(case_id, 60);
}

// --- Eval sweep -------------------------------------------------------

// The (method x budget) grid fans out cell-per-chunk; rows must come back
// in grid order with bit-identical metrics (timings are the only fields
// allowed to differ).
TEST(DeterminismTest, StorageSweepBitIdenticalAcrossThreadCounts) {
  const std::vector<int64_t> data = SeededDataset(/*case_id=*/0, 64, 900.0);
  SweepOptions options;
  options.methods = {"sap0", "wave-range-opt", "topbb", "pointopt"};
  options.budgets_words = {4, 8, 16};
  options.tolerate_failures = true;
  std::vector<ExperimentRow> serial;
  {
    ThreadsGuard guard(1);
    auto r = RunStorageSweep(data, options);
    ASSERT_TRUE(r.ok()) << r.status();
    serial = std::move(r.value());
  }
  std::vector<ExperimentRow> parallel;
  {
    ThreadsGuard guard(kParallelThreads);
    auto r = RunStorageSweep(data, options);
    ASSERT_TRUE(r.ok()) << r.status();
    parallel = std::move(r.value());
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].method, parallel[i].method) << "row " << i;
    EXPECT_EQ(serial[i].budget_words, parallel[i].budget_words);
    EXPECT_EQ(serial[i].actual_words, parallel[i].actual_words);
    EXPECT_EQ(serial[i].failed, parallel[i].failed);
    EXPECT_EQ(serial[i].all_ranges.sse, parallel[i].all_ranges.sse)
        << "row " << i;
    EXPECT_EQ(serial[i].all_ranges.rmse, parallel[i].all_ranges.rmse);
    EXPECT_EQ(serial[i].all_ranges.max_abs, parallel[i].all_ranges.max_abs);
    EXPECT_EQ(serial[i].serialized_bytes, parallel[i].serialized_bytes);
  }
}

}  // namespace
}  // namespace rangesyn
