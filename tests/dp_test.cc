// Tests for the generic interval DP engine against exhaustive enumeration,
// plus the builders that ride on it (SAP0/SAP1/A0/POINT-OPT optimality for
// their own objectives).

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"
#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "histogram/bucket_cost.h"
#include "histogram/builders.h"
#include "histogram/dp.h"
#include "histogram/prefix_stats.h"
#include "obs/obs.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 25) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

double ExhaustiveBest(int64_t n, int64_t buckets, const BucketCostFn& cost,
                      bool exact) {
  double best = std::numeric_limits<double>::infinity();
  const int64_t k_lo = exact ? buckets : 1;
  for (int64_t k = k_lo; k <= buckets; ++k) {
    ForEachPartition(n, k, [&](const Partition& p) {
      double total = 0.0;
      for (int64_t b = 0; b < p.num_buckets(); ++b) {
        total += cost(p.bucket_start(b), p.bucket_end(b));
      }
      best = std::min(best, total);
    });
  }
  return best;
}

TEST(IntervalDpTest, RejectsBadArguments) {
  const BucketCostFn zero = [](int64_t, int64_t) { return 0.0; };
  EXPECT_FALSE(SolveIntervalDp(0, 1, zero).ok());
  EXPECT_FALSE(SolveIntervalDp(5, 0, zero).ok());
  EXPECT_FALSE(SolveIntervalDp(3, 5, zero, /*exact_buckets=*/true).ok());
}

TEST(IntervalDpTest, SingleBucketIsWholeRange) {
  const BucketCostFn width = [](int64_t l, int64_t r) {
    return static_cast<double>(r - l + 1);
  };
  auto r = SolveIntervalDp(7, 1, width);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->partition.num_buckets(), 1);
  EXPECT_DOUBLE_EQ(r->cost, 7.0);
}

TEST(IntervalDpTest, SquaredWidthPrefersBalancedSplit) {
  // Cost (r-l+1)^2 is minimized by equal buckets.
  const BucketCostFn sq = [](int64_t l, int64_t r) {
    const double w = static_cast<double>(r - l + 1);
    return w * w;
  };
  auto r = SolveIntervalDp(8, 4, sq, /*exact_buckets=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->cost, 4 * 4.0);
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(r->partition.bucket_width(k), 2);
  }
}

class IntervalDpPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalDpPropertyTest, MatchesExhaustiveSearchOnRealCosts) {
  const int64_t n = 9;
  const std::vector<int64_t> data = RandomData(n, GetParam());
  PrefixStats stats(data);
  BucketCosts costs(stats);
  const std::vector<std::pair<const char*, BucketCostFn>> oracles = {
      {"sap0", [&](int64_t l, int64_t r) { return costs.Sap0Cost(l, r); }},
      {"sap1", [&](int64_t l, int64_t r) { return costs.Sap1Cost(l, r); }},
      {"a0", [&](int64_t l, int64_t r) { return costs.A0Cost(l, r); }},
      {"intra", [&](int64_t l, int64_t r) { return costs.Intra(l, r); }}};
  for (const auto& [name, fn] : oracles) {
    for (int64_t b = 1; b <= 4; ++b) {
      auto dp = SolveIntervalDp(n, b, fn);
      ASSERT_TRUE(dp.ok()) << name;
      const double brute = ExhaustiveBest(n, b, fn, /*exact=*/false);
      EXPECT_NEAR(dp->cost, brute, 1e-6 * (1.0 + brute))
          << name << " with B=" << b;
    }
  }
}

TEST_P(IntervalDpPropertyTest, ExactBucketsMatchesExhaustive) {
  const int64_t n = 8;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 50);
  PrefixStats stats(data);
  BucketCosts costs(stats);
  const BucketCostFn fn = [&](int64_t l, int64_t r) {
    return costs.Sap0Cost(l, r);
  };
  for (int64_t b = 1; b <= n; ++b) {
    auto dp = SolveIntervalDp(n, b, fn, /*exact_buckets=*/true);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(dp->partition.num_buckets(), b);
    const double brute = ExhaustiveBest(n, b, fn, /*exact=*/true);
    EXPECT_NEAR(dp->cost, brute, 1e-6 * (1.0 + brute));
  }
}

TEST_P(IntervalDpPropertyTest, AllKIsConsistentWithSingleK) {
  const int64_t n = 10;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 99);
  PrefixStats stats(data);
  BucketCosts costs(stats);
  const BucketCostFn fn = [&](int64_t l, int64_t r) {
    return costs.Sap1Cost(l, r);
  };
  auto all = SolveIntervalDpAllK(n, 5, fn);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 5u);
  for (int64_t k = 1; k <= 5; ++k) {
    auto single = SolveIntervalDp(n, k, fn, /*exact_buckets=*/true);
    ASSERT_TRUE(single.ok());
    EXPECT_NEAR((*all)[static_cast<size_t>(k - 1)].cost, single->cost,
                1e-9 * (1.0 + single->cost));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalDpPropertyTest,
                         ::testing::Values(3, 11, 21, 42));

// ------------------------------------------------- Cost-oracle economy

// The DP computes each bucket cost once per (l, r) and reuses it for every
// bucket count: exactly n(n+1)/2 oracle calls, each pair seen once, for
// any budget. Audit builds re-sum the chosen partition through the oracle
// after the fill, so there only the fill's calls (the first n(n+1)/2) are
// checked for uniqueness and the total is not pinned.
TEST(IntervalDpTest, CostOracleRunsOncePerPair) {
  for (const int64_t n : {1, 7, 64, 300}) {
    const int64_t pairs = n * (n + 1) / 2;
    for (const int64_t b : {int64_t{1}, int64_t{5}, n}) {
      std::vector<std::pair<int64_t, int64_t>> calls;
      const BucketCostFn counted = [&calls](int64_t l, int64_t r) {
        calls.emplace_back(l, r);
        return static_cast<double>((l * 7 + r * 13) % 5);
      };
      const auto expect_each_pair_once = [&](const char* solver) {
        ASSERT_GE(static_cast<int64_t>(calls.size()), pairs)
            << solver << " n=" << n << " B=" << b;
#ifndef RANGESYN_AUDIT
        EXPECT_EQ(static_cast<int64_t>(calls.size()), pairs)
            << solver << " n=" << n << " B=" << b;
#endif
        std::vector<int> seen(static_cast<size_t>(n * n), 0);
        for (int64_t c = 0; c < pairs; ++c) {
          const auto [l, r] = calls[static_cast<size_t>(c)];
          ASSERT_TRUE(1 <= l && l <= r && r <= n) << l << ", " << r;
          ++seen[static_cast<size_t>((l - 1) * n + (r - 1))];
        }
        for (int64_t l = 1; l <= n; ++l) {
          for (int64_t r = l; r <= n; ++r) {
            ASSERT_EQ(seen[static_cast<size_t>((l - 1) * n + (r - 1))], 1)
                << solver << " n=" << n << " B=" << b << " pair (" << l
                << ", " << r << ")";
          }
        }
      };
      ASSERT_TRUE(SolveIntervalDp(n, b, counted).ok());
      expect_each_pair_once("SolveIntervalDp");
      calls.clear();
      ASSERT_TRUE(SolveIntervalDpAllK(n, b, counted).ok());
      expect_each_pair_once("SolveIntervalDpAllK");
    }
  }
}

// Work counts of the textbook fill: the (k, i) cells it fills and the
// (k, i, j) candidates it evaluates (those with a finite predecessor).
struct TextbookCounts {
  uint64_t cells = 0;
  uint64_t transitions = 0;
};

// The textbook fill, written out serially: k outermost, then the end index
// i, then the split j ascending with a strict '<', calling the oracle in
// the innermost loop. Returns the optimal exactly-k partitions for every
// k in 1..b as (cost, ends) pairs, and its work counts in `counts`.
std::vector<std::pair<double, std::vector<int64_t>>> TextbookAllK(
    int64_t n, int64_t b, const BucketCostFn& cost,
    TextbookCounts* counts = nullptr) {
  TextbookCounts tally;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t rows = static_cast<size_t>(b) + 1;
  const size_t cols = static_cast<size_t>(n) + 1;
  std::vector<std::vector<double>> best(rows, std::vector<double>(cols, kInf));
  std::vector<std::vector<int64_t>> parent(rows,
                                           std::vector<int64_t>(cols, -1));
  best[0][0] = 0.0;
  for (int64_t k = 1; k <= b; ++k) {
    const std::vector<double>& prev = best[static_cast<size_t>(k - 1)];
    for (int64_t i = k; i <= n; ++i) {
      ++tally.cells;
      double best_cost = kInf;
      int64_t best_j = -1;
      for (int64_t j = k - 1; j < i; ++j) {
        const double pj = prev[static_cast<size_t>(j)];
        if (pj == kInf) continue;
        ++tally.transitions;
        const double c = pj + cost(j + 1, i);
        if (c < best_cost) {
          best_cost = c;
          best_j = j;
        }
      }
      best[static_cast<size_t>(k)][static_cast<size_t>(i)] = best_cost;
      parent[static_cast<size_t>(k)][static_cast<size_t>(i)] = best_j;
    }
  }
  std::vector<std::pair<double, std::vector<int64_t>>> out;
  for (int64_t k = 1; k <= b; ++k) {
    std::vector<int64_t> ends;
    int64_t i = n;
    for (int64_t kk = k; kk >= 1; --kk) {
      ends.insert(ends.begin(), i);
      i = parent[static_cast<size_t>(kk)][static_cast<size_t>(i)];
    }
    out.emplace_back(best[static_cast<size_t>(k)][static_cast<size_t>(n)],
                     std::move(ends));
  }
  if (counts != nullptr) *counts = tally;
  return out;
}

void ExpectMatchesTextbook(int64_t n, int64_t b, const BucketCostFn& cost,
                           const std::string& label) {
  const auto want = TextbookAllK(n, b, cost);
  auto got = SolveIntervalDpAllK(n, b, cost);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status();
  ASSERT_EQ(got->size(), want.size()) << label;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ((*got)[k].cost, want[k].first)
        << label << " n=" << n << " k=" << k + 1;
    EXPECT_EQ((*got)[k].partition.ends(), want[k].second)
        << label << " n=" << n << " k=" << k + 1;
  }
}

// Shapes (n, B) for the textbook comparison: a single cell, an audit-
// enumerable domain, and two larger ones with a budget below n.
constexpr std::pair<int64_t, int64_t> kTextbookShapes[] = {
    {1, 1}, {9, 9}, {64, 16}, {300, 24}};

TEST(IntervalDpTest, MatchesTextbookFillOnTieHeavyCosts) {
  const std::vector<std::pair<const char*, BucketCostFn>> costs = {
      {"const-1", [](int64_t, int64_t) { return 1.0; }},
      {"width-mod-3",
       [](int64_t l, int64_t r) { return static_cast<double>((r - l) % 3); }},
      {"zero", [](int64_t, int64_t) { return 0.0; }}};
  for (const auto& [n, b] : kTextbookShapes) {
    for (const auto& [name, fn] : costs) {
      ExpectMatchesTextbook(n, b, fn, name);
    }
  }
}

TEST(IntervalDpTest, MatchesTextbookFillOnRealCosts) {
  uint64_t seed = 1;
  for (const auto& [n, b] : kTextbookShapes) {
    Rng rng(seed++);
    auto floats = MakeNamedDistribution("zipf", n, 2000.0, &rng);
    ASSERT_TRUE(floats.ok()) << floats.status();
    auto rounded =
        RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
    ASSERT_TRUE(rounded.ok()) << rounded.status();
    const std::vector<int64_t>& data = rounded.value();
    PrefixStats stats(data);
    BucketCosts costs(stats);
    WeightedPointCosts point(data,
                             WeightedPointCosts::RangeCoverageWeights(n));
    const std::vector<std::pair<const char*, BucketCostFn>> oracles = {
        {"sap0", [&](int64_t l, int64_t r) { return costs.Sap0Cost(l, r); }},
        {"sap1", [&](int64_t l, int64_t r) { return costs.Sap1Cost(l, r); }},
        {"sap2", [&](int64_t l, int64_t r) { return costs.Sap2Cost(l, r); }},
        {"a0", [&](int64_t l, int64_t r) { return costs.A0Cost(l, r); }},
        {"weighted-point",
         [&](int64_t l, int64_t r) { return point.Cost(l, r); }}};
    for (const auto& [name, fn] : oracles) {
      ExpectMatchesTextbook(n, b, fn, name);
    }
  }
}

// Budgets around the fill's two-wide bucket-count vectors (odd and even B,
// B = 1) and beyond any fixed-size buffer, including B = n.
TEST(IntervalDpTest, MatchesTextbookFillAcrossBudgets) {
  const std::vector<std::pair<const char*, BucketCostFn>> ties = {
      {"const-1", [](int64_t, int64_t) { return 1.0; }},
      {"width-mod-3",
       [](int64_t l, int64_t r) { return static_cast<double>((r - l) % 3); }}};
  Rng rng(17);
  auto floats = MakeNamedDistribution("zipf", 300, 5000.0, &rng);
  ASSERT_TRUE(floats.ok()) << floats.status();
  auto rounded = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
  ASSERT_TRUE(rounded.ok()) << rounded.status();
  const std::vector<int64_t>& data = rounded.value();
  PrefixStats stats(data);
  BucketCosts costs(stats);
  const BucketCostFn sap2 = [&](int64_t l, int64_t r) {
    return costs.Sap2Cost(l, r);
  };
  const BucketCostFn a0 = [&](int64_t l, int64_t r) {
    return costs.A0Cost(l, r);
  };
  for (const int64_t b : {1, 2, 3, 8, 9, 21, 32, 33}) {
    for (const auto& [name, fn] : ties) ExpectMatchesTextbook(300, b, fn, name);
    ExpectMatchesTextbook(300, b, sap2, "sap2");
  }
  for (const auto& [name, fn] : ties) ExpectMatchesTextbook(300, 300, fn, name);
  ExpectMatchesTextbook(300, 300, a0, "a0");
}

// Infeasible buckets: the fill carries no feasibility test, so +inf (and
// NaN) bucket costs must leave the same table as the textbook fill's
// skip. Singletons and buckets ending at n stay finite, so every exact
// bucket count is feasible while many intermediate cells are not.
TEST(IntervalDpTest, MatchesTextbookFillWithInfeasibleBuckets) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const BucketCostFn some_inf = [](int64_t l, int64_t r) {
    if (l < r && r < 64 && (l + 2 * r) % 3 == 0) return kInf;
    return static_cast<double>((l * 7 + r * 13) % 11);
  };
  const BucketCostFn some_nan = [](int64_t l, int64_t r) {
    if (l < r && r < 64 && (l + r) % 4 == 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (l < r && r < 64 && (l + r) % 4 == 1) return kInf;
    return static_cast<double>((l * 5 + r * 3) % 7);
  };
  for (const int64_t b : {1, 2, 3, 8, 9, 21, 33}) {
    ExpectMatchesTextbook(64, b, some_inf, "some-inf");
    ExpectMatchesTextbook(64, b, some_nan, "some-nan");
  }
  ExpectMatchesTextbook(64, 64, some_inf, "some-inf");
}

// histogram.dp.cells and histogram.dp.transitions keep the textbook
// fill's counts: cells (k, i) with k <= i, and candidates (k, i, j) whose
// predecessor is finite.
TEST(IntervalDpTest, StatsCountersMatchTextbookCounts) {
#if RANGESYN_OBS_ENABLED
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const BucketCostFn some_inf = [](int64_t l, int64_t r) {
    if (l < r && r < 50 && (l + 2 * r) % 3 == 0) return kInf;
    return static_cast<double>((l + r) % 4);
  };
  const BucketCostFn width = [](int64_t l, int64_t r) {
    return static_cast<double>(r - l + 1);
  };
  obs::Counter* cells = obs::Registry::Get().GetCounter("histogram.dp.cells");
  obs::Counter* transitions =
      obs::Registry::Get().GetCounter("histogram.dp.transitions");
  for (const auto& fn : {some_inf, width}) {
    for (const auto& [n, b] : std::vector<std::pair<int64_t, int64_t>>{
             {1, 1}, {7, 3}, {50, 1}, {50, 9}, {50, 50}, {120, 21}}) {
      TextbookCounts want;
      TextbookAllK(n, b, fn, &want);
      const uint64_t cells_before = cells->Value();
      const uint64_t transitions_before = transitions->Value();
      ASSERT_TRUE(SolveIntervalDp(n, b, fn).ok());
      EXPECT_EQ(cells->Value() - cells_before, want.cells)
          << "n=" << n << " B=" << b;
      EXPECT_EQ(transitions->Value() - transitions_before, want.transitions)
          << "n=" << n << " B=" << b;
    }
  }
#else
  GTEST_SKIP() << "built without RANGESYN_STATS";
#endif
}

// Split points are stored as int32, so n >= 2^31 - 1 is rejected up
// front. The DP allocation failpoint is armed: a check that ran after it
// would surface as the failpoint's Internal error instead, and one that
// ran never would allocate the table.
TEST(IntervalDpTest, RejectsDomainsBeyondInt32BeforeAllocating) {
  int calls = 0;
  const BucketCostFn counted = [&calls](int64_t, int64_t) {
    ++calls;
    return 0.0;
  };
  if (failpoint::kCompiledIn) {
    ASSERT_TRUE(failpoint::Configure("alloc.interval_dp=always").ok());
  }
  for (const int64_t n : {int64_t{std::numeric_limits<int32_t>::max()},
                          std::numeric_limits<int64_t>::max()}) {
    const auto single = SolveIntervalDp(n, 1, counted);
    ASSERT_FALSE(single.ok());
    EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument)
        << single.status();
    const auto all = SolveIntervalDpAllK(n, 1, counted);
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.status().code(), StatusCode::kInvalidArgument)
        << all.status();
  }
  failpoint::Clear();
  EXPECT_EQ(calls, 0);
  // The largest accepted domain is still solved.
  EXPECT_TRUE(SolveIntervalDp(2, 1, counted).ok());
}

// ------------------------------------------------------------ Builders

// SAP0's construction is exactly range-optimal for its representation:
// no partition into <= B buckets yields a SAP0 histogram with lower SSE.
TEST(BuildersOptimalityTest, Sap0IsRangeOptimalForItsRepresentation) {
  for (uint64_t seed : {7u, 8u}) {
    const std::vector<int64_t> data = RandomData(9, seed);
    for (int64_t b = 1; b <= 4; ++b) {
      auto built = BuildSap0(data, b);
      ASSERT_TRUE(built.ok());
      auto built_sse = AllRangesSse(data, *built->Compile().value());
      ASSERT_TRUE(built_sse.ok());
      for (int64_t k = 1; k <= b; ++k) {
        ForEachPartition(9, k, [&](const Partition& p) {
          auto alt = Sap0Histogram::Build(data, p);
          ASSERT_TRUE(alt.ok());
          auto alt_sse = AllRangesSse(data, *alt->Compile().value());
          ASSERT_TRUE(alt_sse.ok());
          EXPECT_GE(alt_sse.value(), built_sse.value() - 1e-6);
        });
      }
    }
  }
}

TEST(BuildersOptimalityTest, Sap1IsRangeOptimalForItsRepresentation) {
  const std::vector<int64_t> data = RandomData(8, 15);
  for (int64_t b = 1; b <= 3; ++b) {
    auto built = BuildSap1(data, b);
    ASSERT_TRUE(built.ok());
    auto built_sse = AllRangesSse(data, *built->Compile().value());
    ASSERT_TRUE(built_sse.ok());
    for (int64_t k = 1; k <= b; ++k) {
      ForEachPartition(8, k, [&](const Partition& p) {
        auto alt = Sap1Histogram::Build(data, p);
        ASSERT_TRUE(alt.ok());
        auto alt_sse = AllRangesSse(data, *alt->Compile().value());
        ASSERT_TRUE(alt_sse.ok());
        EXPECT_GE(alt_sse.value(), built_sse.value() - 1e-6);
      });
    }
  }
}

TEST(BuildersTest, EquiDepthBalancesMass) {
  // One huge value: equi-depth must isolate the head region.
  std::vector<int64_t> data(16, 1);
  data[0] = 100;
  auto h = BuildEquiDepth(data, 4);
  ASSERT_TRUE(h.ok());
  // First bucket should be the singleton spike.
  EXPECT_EQ(h->partition().bucket_end(0), 1);
}

TEST(BuildersTest, MaxDiffPutsBoundariesAtLargestJumps) {
  const std::vector<int64_t> data = {1, 1, 1, 50, 50, 50, 2, 2};
  auto h = BuildMaxDiff(data, 3);
  ASSERT_TRUE(h.ok());
  const std::vector<int64_t>& ends = h->partition().ends();
  // Jumps are at 3->4 (49) and 6->7 (48): boundaries after 3 and 6.
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0], 3);
  EXPECT_EQ(ends[1], 6);
  EXPECT_EQ(ends[2], 8);
}

TEST(BuildersTest, VOptimalMinimizesUnweightedPointSse) {
  // The classical [6] guarantee: no boundary choice with bucket averages
  // gives lower point-query SSE.
  const std::vector<int64_t> data = RandomData(9, 55);
  auto built = BuildVOptimal(data, 3, PieceRounding::kNone);
  ASSERT_TRUE(built.ok());
  auto point_sse = [&](const AvgHistogram& h) {
    auto s = PointQuerySse(data, *h.Compile().value());
    RANGESYN_CHECK(s.ok());
    return s.value();
  };
  const double best = point_sse(built.value());
  for (int64_t k = 1; k <= 3; ++k) {
    ForEachPartition(9, k, [&](const Partition& p) {
      auto alt = AvgHistogram::WithTrueAverages(data, p, "alt",
                                                PieceRounding::kNone);
      ASSERT_TRUE(alt.ok());
      EXPECT_GE(point_sse(alt.value()), best - 1e-6);
    });
  }
}

TEST(BuildersTest, PrefixOptIsOptimalForPrefixQueries) {
  // PREFIX-OPT minimizes SSE over the prefix family [1, b] — verify
  // against exhaustive partitions, and confirm it is generally *not*
  // range-optimal (the paper's motivating observation).
  const std::vector<int64_t> data = RandomData(9, 44);
  const int64_t b = 3;
  auto built = BuildPrefixOpt(data, b, PieceRounding::kNone);
  ASSERT_TRUE(built.ok());
  auto prefix_sse = [&](const AvgHistogram& h) {
    auto stats =
        EvaluateOnWorkload(data, *h.Compile().value(), PrefixQueries(9));
    RANGESYN_CHECK(stats.ok());
    return stats->sse;
  };
  const double built_prefix = prefix_sse(built.value());
  for (int64_t k = 1; k <= b; ++k) {
    ForEachPartition(9, k, [&](const Partition& p) {
      auto alt = AvgHistogram::WithTrueAverages(data, p, "alt",
                                                PieceRounding::kNone);
      ASSERT_TRUE(alt.ok());
      EXPECT_GE(prefix_sse(alt.value()), built_prefix - 1e-6);
    });
  }
}

TEST(BuildersTest, RejectNegativeCounts) {
  EXPECT_FALSE(BuildSap0({1, -2, 3}, 2).ok());
  EXPECT_FALSE(BuildA0({-1}, 1).ok());
  EXPECT_FALSE(BuildEquiWidth({1, -1}, 1).ok());
}

TEST(BuildersTest, BucketCountClampedToN) {
  const std::vector<int64_t> data = {5, 6, 7};
  auto h = BuildEquiWidth(data, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_LE(h->partition().num_buckets(), 3);
}

TEST(BuildersTest, PointOptMinimizesWeightedPointSse) {
  // POINT-OPT must beat (or tie) other boundary choices on its own
  // objective: weighted point-query SSE.
  const std::vector<int64_t> data = RandomData(9, 33);
  const int64_t n = 9;
  const std::vector<double> w = WeightedPointCosts::RangeCoverageWeights(n);
  auto h = BuildPointOpt(data, 3);
  ASSERT_TRUE(h.ok());
  auto weighted_point_sse = [&](const AvgHistogram& hist) {
    double sse = 0.0;
    for (int64_t i = 1; i <= n; ++i) {
      const double est =
          hist.values()[static_cast<size_t>(hist.partition().BucketOf(i))];
      const double err = static_cast<double>(data[static_cast<size_t>(i - 1)]) -
                         est;
      sse += w[static_cast<size_t>(i - 1)] * err * err;
    }
    return sse;
  };
  const double built = weighted_point_sse(h.value());
  for (int64_t k = 1; k <= 3; ++k) {
    ForEachPartition(n, k, [&](const Partition& p) {
      WeightedPointCosts costs(data, w);
      std::vector<double> values(static_cast<size_t>(p.num_buckets()));
      for (int64_t kk = 0; kk < p.num_buckets(); ++kk) {
        values[static_cast<size_t>(kk)] =
            costs.WeightedMean(p.bucket_start(kk), p.bucket_end(kk));
      }
      auto alt = AvgHistogram::Create(p, values, "alt",
                                      PieceRounding::kNone);
      ASSERT_TRUE(alt.ok());
      EXPECT_GE(weighted_point_sse(alt.value()), built - 1e-6);
    });
  }
}

}  // namespace
}  // namespace rangesyn
