// Tests for the evaluation metrics.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/builders.h"
#include "obs/metrics.h"

namespace rangesyn {
namespace {

TEST(MetricsTest, PerfectEstimatorHasZeroError) {
  // A one-bucket histogram over constant data answers everything exactly.
  const std::vector<int64_t> data = {4, 4, 4, 4};
  auto h = BuildNaive(data);
  ASSERT_TRUE(h.ok());
  auto stats = AllRangesStats(data, *h->Compile().value());
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->sse, 0.0);
  EXPECT_DOUBLE_EQ(stats->max_abs, 0.0);
  EXPECT_EQ(stats->count, 10);
}

TEST(MetricsTest, HandComputedErrorStats) {
  // Data (2, 6); NAIVE average 4.
  // Queries: [1,1] truth 2 est 4 (err -2); [2,2] truth 6 est 4 (err 2);
  // [1,2] truth 8 est 8 (err 0).
  const std::vector<int64_t> data = {2, 6};
  auto h = BuildNaive(data);
  ASSERT_TRUE(h.ok());
  auto stats = AllRangesStats(data, *h->Compile().value());
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->sse, 8.0);
  EXPECT_DOUBLE_EQ(stats->mean_sq, 8.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats->rmse, std::sqrt(8.0 / 3.0));
  EXPECT_DOUBLE_EQ(stats->max_abs, 2.0);
  EXPECT_DOUBLE_EQ(stats->mean_abs, 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats->max_rel, 1.0);  // |err|/max(1,truth) = 2/2
}

TEST(MetricsTest, AllRangesSseMatchesStats) {
  Rng rng(5);
  std::vector<int64_t> data(20);
  for (auto& v : data) v = rng.NextInt(0, 30);
  auto h = BuildEquiWidth(data, 4);
  ASSERT_TRUE(h.ok());
  auto sse = AllRangesSse(data, *h->Compile().value());
  auto stats = AllRangesStats(data, *h->Compile().value());
  ASSERT_TRUE(sse.ok());
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(sse.value(), stats->sse, 1e-9 * (1.0 + stats->sse));
}

TEST(MetricsTest, WorkloadSubsetsScoreDifferently) {
  Rng rng(6);
  std::vector<int64_t> data(30);
  for (auto& v : data) v = rng.NextInt(0, 30);
  auto h = BuildEquiWidth(data, 3);
  ASSERT_TRUE(h.ok());
  auto point =
      EvaluateOnWorkload(data, *h->Compile().value(), PointQueries(30));
  auto all = AllRangesStats(data, *h->Compile().value());
  ASSERT_TRUE(point.ok());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(point->count, 30);
  EXPECT_EQ(all->count, 30 * 31 / 2);
  EXPECT_LE(point->sse, all->sse);
}

TEST(MetricsTest, RejectsBadQueriesAndMismatch) {
  const std::vector<int64_t> data = {1, 2, 3};
  auto h = BuildNaive(data);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(
      EvaluateOnWorkload(data, *h->Compile().value(), {{0, 2}}).ok());
  EXPECT_FALSE(
      EvaluateOnWorkload(data, *h->Compile().value(), {{2, 5}}).ok());
  EXPECT_FALSE(
      EvaluateOnWorkload(data, *h->Compile().value(), {{3, 2}}).ok());
  const std::vector<int64_t> other = {1, 2, 3, 4};
  EXPECT_FALSE(AllRangesSse(other, *h->Compile().value()).ok());
}

TEST(MetricsTest, PointQuerySseIsPointWorkloadSse) {
  const std::vector<int64_t> data = {2, 6};
  auto h = BuildNaive(data);
  ASSERT_TRUE(h.ok());
  auto sse = PointQuerySse(data, *h->Compile().value());
  ASSERT_TRUE(sse.ok());
  EXPECT_DOUBLE_EQ(sse.value(), 8.0);
}

// ----------------------- latency-histogram edge handling (obs/metrics)

TEST(LatencyHistogramEdgeTest, WrappedNegativeDurationSaturates) {
  // A negative duration converted through uint64_t becomes ~1.8e19; the
  // histogram must clamp it to kMaxTrackedValue so one bad clock read
  // cannot poison sum/mean or pin max at 2^64-1 forever.
  obs::LatencyHistogram h;
  const uint64_t wrapped = static_cast<uint64_t>(int64_t{-1});
  h.Record(wrapped);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Sum(), obs::LatencyHistogram::kMaxTrackedValue);
  EXPECT_EQ(h.Max(), obs::LatencyHistogram::kMaxTrackedValue);
  // And the overflow landed in the saturation bucket, not out of bounds.
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(wrapped),
            obs::LatencyHistogram::BucketIndex(
                obs::LatencyHistogram::kMaxTrackedValue));
}

TEST(LatencyHistogramEdgeTest, RecordSignedClampsNegativeToZero) {
  obs::LatencyHistogram h;
  h.RecordSigned(-5);
  h.RecordSigned(0);
  h.RecordSigned(100);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 100u);
  EXPECT_EQ(h.Max(), 100u);
}

TEST(LatencyHistogramEdgeTest, ZeroRecordsIntoTheFirstBucket) {
  obs::LatencyHistogram h;
  h.Record(0);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(obs::LatencyHistogram::BucketIndex(0), 0u);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(0.5), 0.0);
}

TEST(LatencyHistogramEdgeTest, OverflowDoesNotSkewNormalQuantiles) {
  // 99 sane samples plus one wrapped outlier: the p50 estimate must stay
  // near the sane data instead of being dragged 18 orders of magnitude.
  obs::LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(1000);
  h.Record(static_cast<uint64_t>(int64_t{-1}));
  const double p50 = h.ValueAtQuantile(0.5);
  EXPECT_GE(p50, 900.0);
  EXPECT_LE(p50, 1100.0);
}

TEST(LatencyHistogramEdgeTest, BucketIndexIsMonotoneAcrossTheClamp) {
  using H = obs::LatencyHistogram;
  const size_t saturated = H::BucketIndex(H::kMaxTrackedValue);
  EXPECT_EQ(H::BucketIndex(H::kMaxTrackedValue + 1), saturated);
  EXPECT_EQ(H::BucketIndex(~uint64_t{0}), saturated);
  EXPECT_LE(H::BucketIndex(H::kMaxTrackedValue - 1), saturated);
  EXPECT_LT(saturated, H::kNumBuckets);
}

}  // namespace
}  // namespace rangesyn
