// Tests for the closed-form O(1) bucket costs against brute-force
// computation, including the Decomposition Lemma identity that makes SAP0
// and SAP1 construction exactly optimal.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/bucket_cost.h"
#include "histogram/histogram.h"
#include "histogram/partition.h"
#include "histogram/prefix_stats.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 40) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

double BruteIntra(const std::vector<int64_t>& data, int64_t l, int64_t r) {
  PrefixStats stats(data);
  const double mu = static_cast<double>(stats.Sum(l, r)) /
                    static_cast<double>(r - l + 1);
  double sse = 0.0;
  for (int64_t a = l; a <= r; ++a) {
    for (int64_t b = a; b <= r; ++b) {
      const double d = static_cast<double>(stats.Sum(a, b)) -
                       static_cast<double>(b - a + 1) * mu;
      sse += d * d;
    }
  }
  return sse;
}

class BucketCostPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BucketCostPropertyTest, IntraMatchesBruteForce) {
  const int64_t n = 18;
  const std::vector<int64_t> data = RandomData(n, GetParam());
  PrefixStats stats(data);
  BucketCosts costs(stats);
  for (int64_t l = 1; l <= n; l += 2) {
    for (int64_t r = l; r <= n; r += 3) {
      EXPECT_NEAR(costs.Intra(l, r), BruteIntra(data, l, r),
                  1e-6 * (1.0 + BruteIntra(data, l, r)))
          << "bucket [" << l << "," << r << "]";
    }
  }
}

TEST_P(BucketCostPropertyTest, PieceErrorSumsMatchBruteForce) {
  const int64_t n = 16;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 7);
  PrefixStats stats(data);
  BucketCosts costs(stats);
  for (int64_t l = 1; l <= n; ++l) {
    for (int64_t r = l; r <= n; r += 2) {
      const double mu = static_cast<double>(stats.Sum(l, r)) /
                        static_cast<double>(r - l + 1);
      double su = 0, su2 = 0, sv = 0, sv2 = 0;
      for (int64_t a = l; a <= r; ++a) {
        const double u = static_cast<double>(stats.Sum(a, r)) -
                         static_cast<double>(r - a + 1) * mu;
        su += u;
        su2 += u * u;
      }
      for (int64_t b = l; b <= r; ++b) {
        const double v = static_cast<double>(stats.Sum(l, b)) -
                         static_cast<double>(b - l + 1) * mu;
        sv += v;
        sv2 += v * v;
      }
      const double tol = 1e-6 * (1.0 + su2 + sv2);
      EXPECT_NEAR(costs.SumU(l, r), su, tol);
      EXPECT_NEAR(costs.SumU2(l, r), su2, tol);
      EXPECT_NEAR(costs.SumV(l, r), sv, tol);
      EXPECT_NEAR(costs.SumV2(l, r), sv2, tol);
    }
  }
}

// The Decomposition Lemma in executable form: the sum of SAP0 bucket costs
// over a partition equals the exact all-ranges SSE of the SAP0 histogram
// built on that partition.
TEST_P(BucketCostPropertyTest, Sap0CostSumEqualsHistogramSse) {
  const int64_t n = 20;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 13);
  PrefixStats stats(data);
  BucketCosts costs(stats);
  const std::vector<std::vector<int64_t>> partitions = {
      {20}, {10, 20}, {5, 10, 15, 20}, {1, 2, 20}, {3, 9, 13, 17, 20}};
  for (const auto& ends : partitions) {
    auto partition = Partition::FromEnds(n, ends);
    ASSERT_TRUE(partition.ok());
    double cost_sum = 0.0;
    for (int64_t k = 0; k < partition->num_buckets(); ++k) {
      cost_sum += costs.Sap0Cost(partition->bucket_start(k),
                                 partition->bucket_end(k));
    }
    auto hist = Sap0Histogram::Build(data, partition.value());
    ASSERT_TRUE(hist.ok());
    auto sse = AllRangesSse(data, *hist->Compile().value());
    ASSERT_TRUE(sse.ok());
    EXPECT_NEAR(cost_sum, sse.value(), 1e-6 * (1.0 + sse.value()));
  }
}

// Same identity for SAP1 with its regression summaries.
TEST_P(BucketCostPropertyTest, Sap1CostSumEqualsHistogramSse) {
  const int64_t n = 20;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 29);
  PrefixStats stats(data);
  BucketCosts costs(stats);
  const std::vector<std::vector<int64_t>> partitions = {
      {20}, {10, 20}, {4, 8, 12, 16, 20}, {2, 19, 20}};
  for (const auto& ends : partitions) {
    auto partition = Partition::FromEnds(n, ends);
    ASSERT_TRUE(partition.ok());
    double cost_sum = 0.0;
    for (int64_t k = 0; k < partition->num_buckets(); ++k) {
      cost_sum += costs.Sap1Cost(partition->bucket_start(k),
                                 partition->bucket_end(k));
    }
    auto hist = Sap1Histogram::Build(data, partition.value());
    ASSERT_TRUE(hist.ok());
    auto sse = AllRangesSse(data, *hist->Compile().value());
    ASSERT_TRUE(sse.ok());
    EXPECT_NEAR(cost_sum, sse.value(), 1e-6 * (1.0 + sse.value()));
  }
}

// A0's cost drops the cross term, so summing it over buckets must equal
// the histogram SSE *minus* the cross contribution; verify the exact
// relationship: SSE = sum A0Cost + 2 * sum over inter pairs u_a * v_b.
TEST_P(BucketCostPropertyTest, A0CostAccountsForAllButCrossTerm) {
  const int64_t n = 14;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 31);
  PrefixStats stats(data);
  BucketCosts costs(stats);
  auto partition = Partition::FromEnds(n, {4, 9, 14});
  ASSERT_TRUE(partition.ok());
  const Partition& part = partition.value();

  double cost_sum = 0.0;
  for (int64_t k = 0; k < part.num_buckets(); ++k) {
    cost_sum += costs.A0Cost(part.bucket_start(k), part.bucket_end(k));
  }
  // Brute cross term: for inter-bucket (a,b), err = u_a + v_b.
  auto mu = [&](int64_t k) {
    return static_cast<double>(
               stats.Sum(part.bucket_start(k), part.bucket_end(k))) /
           static_cast<double>(part.bucket_width(k));
  };
  double cross = 0.0;
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      const int64_t ka = part.BucketOf(a), kb = part.BucketOf(b);
      if (ka == kb) continue;
      const double u = static_cast<double>(stats.Sum(a, part.bucket_end(ka))) -
                       static_cast<double>(part.bucket_end(ka) - a + 1) *
                           mu(ka);
      const double v =
          static_cast<double>(stats.Sum(part.bucket_start(kb), b)) -
          static_cast<double>(b - part.bucket_start(kb) + 1) * mu(kb);
      cross += 2.0 * u * v;
    }
  }
  auto hist = AvgHistogram::WithTrueAverages(data, part, "A0",
                                             PieceRounding::kNone);
  ASSERT_TRUE(hist.ok());
  auto sse = AllRangesSse(data, *hist->Compile().value());
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(cost_sum + cross, sse.value(),
              1e-6 * (1.0 + std::fabs(sse.value())));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BucketCostPropertyTest,
                         ::testing::Values(1, 5, 17, 23, 99));

// ------------------------------------------------------ WeightedPointCosts

TEST(WeightedPointCostsTest, UniformWeightCostMatchesVariance) {
  const std::vector<int64_t> data = {4, 4, 4, 10};
  WeightedPointCosts costs(data, WeightedPointCosts::UniformWeights(4));
  EXPECT_NEAR(costs.Cost(1, 3), 0.0, 1e-9);
  // Bucket {4,10}: mean 7, cost (4-7)^2 + (10-7)^2 = 18.
  EXPECT_NEAR(costs.Cost(3, 4), 18.0, 1e-9);
  EXPECT_NEAR(costs.WeightedMean(3, 4), 7.0, 1e-12);
}

TEST(WeightedPointCostsTest, RangeCoverageWeightsAreRangeCounts) {
  // w_i = i(n-i+1) = number of ranges (a,b) containing i.
  const int64_t n = 9;
  const std::vector<double> w = WeightedPointCosts::RangeCoverageWeights(n);
  for (int64_t i = 1; i <= n; ++i) {
    int64_t count = 0;
    for (int64_t a = 1; a <= n; ++a) {
      for (int64_t b = a; b <= n; ++b) {
        if (a <= i && i <= b) ++count;
      }
    }
    EXPECT_DOUBLE_EQ(w[static_cast<size_t>(i - 1)],
                     static_cast<double>(count));
  }
}

TEST(WeightedPointCostsTest, WeightedCostMatchesBruteForce) {
  const std::vector<int64_t> data = RandomData(12, 777);
  const std::vector<double> w =
      WeightedPointCosts::RangeCoverageWeights(12);
  WeightedPointCosts costs(data, w);
  for (int64_t l = 1; l <= 12; ++l) {
    for (int64_t r = l; r <= 12; ++r) {
      double sw = 0, swa = 0;
      for (int64_t i = l; i <= r; ++i) {
        sw += w[static_cast<size_t>(i - 1)];
        swa += w[static_cast<size_t>(i - 1)] *
               static_cast<double>(data[static_cast<size_t>(i - 1)]);
      }
      const double mean = swa / sw;
      double expected = 0;
      for (int64_t i = l; i <= r; ++i) {
        const double d = static_cast<double>(data[static_cast<size_t>(i - 1)]) -
                         mean;
        expected += w[static_cast<size_t>(i - 1)] * d * d;
      }
      EXPECT_NEAR(costs.Cost(l, r), expected, 1e-6 * (1.0 + expected));
      EXPECT_NEAR(costs.WeightedMean(l, r), mean, 1e-9);
    }
  }
}

}  // namespace
}  // namespace rangesyn
