// Tests for the workload-weighted SAP0 extension: the Decomposition Lemma
// under product-form weights, reduction to uniform SAP0, optimality, and
// workload adaptivity.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/bucket_cost.h"
#include "histogram/builders.h"
#include "histogram/prefix_stats.h"
#include "histogram/weighted_sap0.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 30) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

RangeWorkloadWeights SkewedWeights(int64_t n, uint64_t seed) {
  Rng rng(seed);
  RangeWorkloadWeights w = RangeWorkloadWeights::Uniform(n);
  for (auto& a : w.alpha) a = rng.NextDouble(0.1, 5.0);
  for (auto& b : w.beta) b = rng.NextDouble(0.1, 5.0);
  return w;
}

TEST(WeightedSap0Test, UniformWeightsReduceToSap0Cost) {
  const int64_t n = 18;
  const std::vector<int64_t> data = RandomData(n, 3);
  auto wcosts = WeightedSap0Costs::Create(
      data, RangeWorkloadWeights::Uniform(n));
  ASSERT_TRUE(wcosts.ok());
  PrefixStats stats(data);
  BucketCosts costs(stats);
  for (int64_t l = 1; l <= n; l += 2) {
    for (int64_t r = l; r <= n; r += 3) {
      EXPECT_NEAR(wcosts->Cost(l, r), costs.Sap0Cost(l, r),
                  1e-6 * (1.0 + costs.Sap0Cost(l, r)))
          << "[" << l << "," << r << "]";
    }
  }
}

class WeightedSap0PropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(WeightedSap0PropertyTest, CostSumEqualsWeightedSse) {
  const int64_t n = 16;
  const std::vector<int64_t> data = RandomData(n, GetParam());
  const RangeWorkloadWeights weights = SkewedWeights(n, GetParam() + 1);
  auto costs = WeightedSap0Costs::Create(data, weights);
  ASSERT_TRUE(costs.ok());
  const std::vector<std::vector<int64_t>> partitions = {
      {16}, {8, 16}, {4, 8, 12, 16}, {1, 15, 16}};
  for (const auto& ends : partitions) {
    auto p = Partition::FromEnds(n, ends);
    ASSERT_TRUE(p.ok());
    double cost_sum = 0.0;
    for (int64_t k = 0; k < p->num_buckets(); ++k) {
      cost_sum += costs->Cost(p->bucket_start(k), p->bucket_end(k));
    }
    auto hist = WeightedSap0Histogram::Build(data, p.value(), weights);
    ASSERT_TRUE(hist.ok());
    auto sse = WeightedRangeSse(data, *hist->Compile().value(), weights);
    ASSERT_TRUE(sse.ok());
    EXPECT_NEAR(cost_sum, sse.value(), 1e-6 * (1.0 + sse.value()));
  }
}

TEST_P(WeightedSap0PropertyTest, BuildIsOptimalForWeightedObjective) {
  const int64_t n = 8;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 5);
  const RangeWorkloadWeights weights = SkewedWeights(n, GetParam() + 6);
  for (int64_t b = 1; b <= 3; ++b) {
    auto built = BuildWeightedSap0(data, b, weights);
    ASSERT_TRUE(built.ok());
    auto built_sse = WeightedRangeSse(data, *built->Compile().value(), weights);
    ASSERT_TRUE(built_sse.ok());
    for (int64_t k = 1; k <= b; ++k) {
      ForEachPartition(n, k, [&](const Partition& p) {
        auto alt = WeightedSap0Histogram::Build(data, p, weights);
        ASSERT_TRUE(alt.ok());
        auto alt_sse = WeightedRangeSse(data, *alt->Compile().value(), weights);
        ASSERT_TRUE(alt_sse.ok());
        EXPECT_GE(alt_sse.value(), built_sse.value() - 1e-6);
      });
    }
  }
}

TEST_P(WeightedSap0PropertyTest, WeightedBuildBeatsUniformSap0OnWorkload) {
  // The weighted construction optimizes the weighted objective, so it
  // cannot lose to the uniform SAP0 under that objective.
  const int64_t n = 24;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 11);
  const RangeWorkloadWeights weights = SkewedWeights(n, GetParam() + 12);
  for (int64_t b : {3, 5}) {
    auto weighted = BuildWeightedSap0(data, b, weights);
    auto uniform = BuildSap0(data, b);
    ASSERT_TRUE(weighted.ok());
    ASSERT_TRUE(uniform.ok());
    auto sse_w = WeightedRangeSse(data, *weighted->Compile().value(), weights);
    auto sse_u = WeightedRangeSse(data, *uniform->Compile().value(), weights);
    ASSERT_TRUE(sse_w.ok());
    ASSERT_TRUE(sse_u.ok());
    EXPECT_LE(sse_w.value(), sse_u.value() + 1e-6) << "B=" << b;
  }
}

TEST_P(WeightedSap0PropertyTest, SummaryValuesAreWeightedAverages) {
  const int64_t n = 12;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 21);
  const RangeWorkloadWeights weights = SkewedWeights(n, GetParam() + 22);
  auto p = Partition::FromEnds(n, {5, 12});
  ASSERT_TRUE(p.ok());
  auto hist = WeightedSap0Histogram::Build(data, p.value(), weights);
  ASSERT_TRUE(hist.ok());
  PrefixStats stats(data);
  for (int64_t k = 0; k < 2; ++k) {
    const int64_t l = hist->partition().bucket_start(k);
    const int64_t r = hist->partition().bucket_end(k);
    double wsum = 0, wy = 0;
    for (int64_t a = l; a <= r; ++a) {
      const double w = weights.alpha[static_cast<size_t>(a - 1)];
      wsum += w;
      wy += w * static_cast<double>(stats.Sum(a, r));
    }
    EXPECT_NEAR(hist->suffix_values()[static_cast<size_t>(k)], wy / wsum,
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedSap0PropertyTest,
                         ::testing::Values(1, 4, 9, 25));

TEST(WeightedSap0Test, FromQueriesBuildsEndpointMarginals) {
  const std::vector<RangeQuery> log = {{2, 5}, {2, 7}, {2, 5}, {6, 7}};
  auto w = RangeWorkloadWeights::FromQueries(8, log, 1.0);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(w->alpha[1], 4.0);  // endpoint 2 seen 3 times + smooth
  EXPECT_DOUBLE_EQ(w->alpha[5], 2.0);  // endpoint 6 seen once + smooth
  EXPECT_DOUBLE_EQ(w->alpha[0], 1.0);  // unseen
  EXPECT_DOUBLE_EQ(w->beta[4], 3.0);   // right endpoint 5 twice + smooth
  EXPECT_DOUBLE_EQ(w->beta[6], 3.0);   // right endpoint 7 twice + smooth
}

TEST(WeightedSap0Test, RejectsBadInput) {
  const std::vector<int64_t> data = {1, 2, 3};
  RangeWorkloadWeights short_w = RangeWorkloadWeights::Uniform(2);
  EXPECT_FALSE(WeightedSap0Costs::Create(data, short_w).ok());
  RangeWorkloadWeights zero_w = RangeWorkloadWeights::Uniform(3);
  zero_w.alpha[1] = 0.0;
  EXPECT_FALSE(WeightedSap0Costs::Create(data, zero_w).ok());
  EXPECT_FALSE(
      RangeWorkloadWeights::FromQueries(5, {{3, 2}}, 1.0).ok());
  EXPECT_FALSE(
      RangeWorkloadWeights::FromQueries(5, {{1, 9}}, 1.0).ok());
}

TEST(WeightedSap0Test, SerializationRoundTrip) {
  const std::vector<int64_t> data = RandomData(20, 71);
  const RangeWorkloadWeights weights = SkewedWeights(20, 72);
  auto hist = BuildWeightedSap0(data, 4, weights);
  ASSERT_TRUE(hist.ok());
  const auto hist_flat = hist->Compile().value();
  auto bytes = EncodeFlatSynopsis(*hist_flat);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = DecodeFlatSynopsis(bytes.value());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ((*restored)->Name(), "W-SAP0");
  EXPECT_EQ((*restored)->StorageWords(), hist->StorageWords());
  for (int64_t a = 1; a <= 20; ++a) {
    for (int64_t b = a; b <= 20; ++b) {
      EXPECT_EQ((*restored)->EstimateOne(a, b), hist_flat->EstimateOne(a, b));
    }
  }
}

TEST(WeightedSap0Test, HotRegionWorkloadShiftsBuckets) {
  // Budget too small to model everything: a workload hammering the right
  // half should pull the weighted histogram's accuracy there.
  Rng rng(77);
  std::vector<int64_t> data(32);
  for (auto& v : data) v = rng.NextInt(0, 40);
  RangeWorkloadWeights hot = RangeWorkloadWeights::Uniform(32);
  for (int64_t i = 16; i < 32; ++i) {
    hot.alpha[static_cast<size_t>(i)] = 50.0;
    hot.beta[static_cast<size_t>(i)] = 50.0;
  }
  auto weighted = BuildWeightedSap0(data, 4, hot);
  auto uniform = BuildSap0(data, 4);
  ASSERT_TRUE(weighted.ok());
  ASSERT_TRUE(uniform.ok());
  // Evaluate only on hot-region queries.
  std::vector<RangeQuery> hot_queries;
  for (int64_t a = 17; a <= 32; ++a) {
    for (int64_t b = a; b <= 32; ++b) hot_queries.push_back({a, b});
  }
  auto err_w =
      EvaluateOnWorkload(data, *weighted->Compile().value(), hot_queries);
  auto err_u =
      EvaluateOnWorkload(data, *uniform->Compile().value(), hot_queries);
  ASSERT_TRUE(err_w.ok());
  ASSERT_TRUE(err_u.ok());
  EXPECT_LE(err_w->sse, err_u->sse * 1.05);
}

}  // namespace
}  // namespace rangesyn
