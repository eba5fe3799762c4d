// Tests for the histogram representations: answering semantics of eq.(1),
// SAP0/SAP1 summary-value optimality (Lemma 5 part 2), storage accounting
// and rounding modes.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/histogram.h"
#include "histogram/prefix_stats.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 30) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

TEST(AvgHistogramTest, RejectsSizeMismatch) {
  auto p = Partition::FromEnds(6, {3, 6});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(
      AvgHistogram::Create(p.value(), {1.0}, "X", PieceRounding::kNone)
          .ok());
}

TEST(AvgHistogramTest, PaperEquationOneUnrounded) {
  // A = (1,3,5,11,12,13), buckets (1..3)(4..6): averages 3 and 12.
  const std::vector<int64_t> data = {1, 3, 5, 11, 12, 13};
  auto p = Partition::FromEnds(6, {3, 6});
  ASSERT_TRUE(p.ok());
  auto h = AvgHistogram::WithTrueAverages(data, p.value(), "H",
                                          PieceRounding::kNone);
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  // Intra: s[1,2] -> 2 * 3 = 6.
  EXPECT_DOUBLE_EQ(h_flat->EstimateOne(1, 2), 6.0);
  // Inter: s[2,5] -> left (3-2+1)*3 = 6, right (5-4+1)*12 = 24.
  EXPECT_DOUBLE_EQ(h_flat->EstimateOne(2, 5), 30.0);
  // Full range is exact: 3*3 + 3*12 = 45 = total.
  EXPECT_DOUBLE_EQ(h_flat->EstimateOne(1, 6), 45.0);
}

TEST(AvgHistogramTest, MiddleBucketsAreExact) {
  const std::vector<int64_t> data = RandomData(20, 4);
  PrefixStats stats(data);
  auto p = Partition::FromEnds(20, {5, 10, 15, 20});
  ASSERT_TRUE(p.ok());
  auto h = AvgHistogram::WithTrueAverages(data, p.value(), "H",
                                          PieceRounding::kNone);
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  // A query spanning exactly full buckets is answered exactly.
  EXPECT_NEAR(h_flat->EstimateOne(6, 15),
              static_cast<double>(stats.Sum(6, 15)), 1e-9);
  EXPECT_NEAR(h_flat->EstimateOne(1, 20),
              static_cast<double>(stats.Sum(1, 20)), 1e-9);
}

TEST(AvgHistogramTest, PerPieceRoundingYieldsIntegerAnswers) {
  const std::vector<int64_t> data = RandomData(15, 5);
  auto p = Partition::FromEnds(15, {4, 9, 15});
  ASSERT_TRUE(p.ok());
  auto h = AvgHistogram::WithTrueAverages(data, p.value(), "H",
                                          PieceRounding::kPerPiece);
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  for (int64_t a = 1; a <= 15; ++a) {
    for (int64_t b = a; b <= 15; ++b) {
      const double est = h_flat->EstimateOne(a, b);
      EXPECT_DOUBLE_EQ(est, std::nearbyint(est))
          << "estimate for [" << a << "," << b << "] not integral";
    }
  }
}

TEST(AvgHistogramTest, RoundingPerturbsByLessThanOnePerPiece) {
  const std::vector<int64_t> data = RandomData(15, 6);
  auto p = Partition::FromEnds(15, {4, 9, 15});
  ASSERT_TRUE(p.ok());
  auto exact = AvgHistogram::WithTrueAverages(data, p.value(), "H",
                                              PieceRounding::kNone);
  auto rounded = AvgHistogram::WithTrueAverages(data, p.value(), "H",
                                                PieceRounding::kPerPiece);
  ASSERT_TRUE(exact.ok());
  const auto exact_flat = exact->Compile().value();
  ASSERT_TRUE(rounded.ok());
  const auto rounded_flat = rounded->Compile().value();
  for (int64_t a = 1; a <= 15; ++a) {
    for (int64_t b = a; b <= 15; ++b) {
      EXPECT_LE(std::fabs(exact_flat->EstimateOne(a, b) -
                          rounded_flat->EstimateOne(a, b)),
                1.0 + 1e-9);
    }
  }
}

TEST(AvgHistogramTest, StorageIsTwoWordsPerBucket) {
  const std::vector<int64_t> data = RandomData(12, 7);
  auto p = Partition::FromEnds(12, {3, 6, 9, 12});
  ASSERT_TRUE(p.ok());
  auto h = AvgHistogram::WithTrueAverages(data, p.value(), "H",
                                          PieceRounding::kNone);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->StorageWords(), 8);
}

TEST(AvgHistogramTest, WithValuesSwapsStoredValues) {
  const std::vector<int64_t> data = {2, 2, 8, 8};
  auto p = Partition::FromEnds(4, {2, 4});
  ASSERT_TRUE(p.ok());
  auto h = AvgHistogram::WithTrueAverages(data, p.value(), "H",
                                          PieceRounding::kNone);
  ASSERT_TRUE(h.ok());
  const AvgHistogram h2 = h->WithValues({1.0, 2.0}, "H2");
  EXPECT_DOUBLE_EQ(h2.Compile().value()->EstimateOne(1, 4),
                   2.0 * 1.0 + 2.0 * 2.0);
  EXPECT_EQ(h2.Name(), "H2");
}

// ------------------------------------------------------------------- SAP0

TEST(Sap0Test, SummaryValuesAreSuffixPrefixAverages) {
  const std::vector<int64_t> data = RandomData(12, 8);
  PrefixStats stats(data);
  auto p = Partition::FromEnds(12, {5, 12});
  ASSERT_TRUE(p.ok());
  auto h = Sap0Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  for (int64_t k = 0; k < 2; ++k) {
    const int64_t l = h->partition().bucket_start(k);
    const int64_t r = h->partition().bucket_end(k);
    double suffix_avg = 0, prefix_avg = 0;
    for (int64_t a = l; a <= r; ++a) {
      suffix_avg += static_cast<double>(stats.Sum(a, r));
      prefix_avg += static_cast<double>(stats.Sum(l, a));
    }
    const double m = static_cast<double>(r - l + 1);
    EXPECT_NEAR(h->suffix_values()[static_cast<size_t>(k)], suffix_avg / m,
                1e-9);
    EXPECT_NEAR(h->prefix_values()[static_cast<size_t>(k)], prefix_avg / m,
                1e-9);
  }
}

TEST(Sap0Test, InterBucketAnswerIndependentOfExactEndpoints) {
  // The SAP0 inter-bucket answer depends only on buck(a) and buck(b).
  const std::vector<int64_t> data = RandomData(12, 9);
  auto p = Partition::FromEnds(12, {4, 8, 12});
  ASSERT_TRUE(p.ok());
  auto h = Sap0Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  const double base = h_flat->EstimateOne(1, 9);
  for (int64_t a = 1; a <= 4; ++a) {
    for (int64_t b = 9; b <= 12; ++b) {
      EXPECT_DOUBLE_EQ(h_flat->EstimateOne(a, b), base);
    }
  }
}

TEST(Sap0Test, SummaryValuesMinimizeSseOverPerturbations) {
  // Lemma 5 part 2: perturbing any stored suffix/prefix value cannot
  // reduce the all-ranges SSE.
  const std::vector<int64_t> data = RandomData(10, 10);
  auto p = Partition::FromEnds(10, {3, 7, 10});
  ASSERT_TRUE(p.ok());
  auto h = Sap0Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  auto base_sse = AllRangesSse(data, *h_flat);
  ASSERT_TRUE(base_sse.ok());

  // Rebuild with perturbed values via a tiny local subclass is overkill —
  // instead verify first-order optimality numerically by recomputing SSE
  // with shifted suffix sums through direct evaluation.
  PrefixStats stats(data);
  const Partition& part = h->partition();
  for (int64_t k = 0; k < part.num_buckets(); ++k) {
    for (double delta : {-2.0, -0.5, 0.5, 2.0}) {
      double sse = 0.0;
      for (int64_t a = 1; a <= 10; ++a) {
        for (int64_t b = a; b <= 10; ++b) {
          double est = h_flat->EstimateOne(a, b);
          const int64_t ka = part.BucketOf(a);
          const int64_t kb = part.BucketOf(b);
          if (ka != kb && ka == k) est += delta;  // perturb suff(k)
          const double err = static_cast<double>(stats.Sum(a, b)) - est;
          sse += err * err;
        }
      }
      EXPECT_GE(sse, base_sse.value() - 1e-6);
    }
  }
}

TEST(Sap0Test, StorageIsThreeWordsPerBucket) {
  const std::vector<int64_t> data = RandomData(12, 11);
  auto p = Partition::FromEnds(12, {6, 12});
  ASSERT_TRUE(p.ok());
  auto h = Sap0Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->StorageWords(), 6);
}

// ------------------------------------------------------------------- SAP1

TEST(Sap1Test, RegressionFitsMatchDirectLeastSquares) {
  const std::vector<int64_t> data = RandomData(14, 12);
  PrefixStats stats(data);
  auto p = Partition::FromEnds(14, {7, 14});
  ASSERT_TRUE(p.ok());
  auto h = Sap1Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  for (int64_t k = 0; k < 2; ++k) {
    const int64_t l = h->partition().bucket_start(k);
    const int64_t r = h->partition().bucket_end(k);
    const double m = static_cast<double>(r - l + 1);
    // Direct least squares of suffix sums on piece length.
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (int64_t a = l; a <= r; ++a) {
      const double x = static_cast<double>(r - a + 1);
      const double y = static_cast<double>(stats.Sum(a, r));
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const double slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
    const double icept = (sy - slope * sx) / m;
    EXPECT_NEAR(h->suffix_slopes()[static_cast<size_t>(k)], slope, 1e-9);
    EXPECT_NEAR(h->suffix_intercepts()[static_cast<size_t>(k)], icept, 1e-9);
  }
}

TEST(Sap1Test, SingletonBucketIsExactOnItsPieces) {
  const std::vector<int64_t> data = {5, 9, 2, 7};
  auto p = Partition::FromEnds(4, {1, 4});
  ASSERT_TRUE(p.ok());
  auto h = Sap1Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  // Left piece from the singleton bucket {5}: estimate of s[1,b] for b in
  // the other bucket includes suffix fit of a single point -> exact 5.
  PrefixStats stats(data);
  EXPECT_NEAR(h_flat->EstimateOne(1, 1),
              static_cast<double>(stats.Sum(1, 1)), 1e-9);
}

TEST(Sap1Test, StorageIsFiveWordsPerBucket) {
  const std::vector<int64_t> data = RandomData(10, 13);
  auto p = Partition::FromEnds(10, {5, 10});
  ASSERT_TRUE(p.ok());
  auto h = Sap1Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->StorageWords(), 10);
}

TEST(Sap1Test, NeverWorseThanSap0OnSameBoundaries) {
  // SAP1's linear model contains SAP0's constant model (slope 0 is
  // feasible), so its least-squares fit cannot do worse.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const std::vector<int64_t> data = RandomData(16, seed);
    auto p = Partition::FromEnds(16, {5, 11, 16});
    ASSERT_TRUE(p.ok());
    auto h0 = Sap0Histogram::Build(data, p.value());
    auto h1 = Sap1Histogram::Build(data, p.value());
    ASSERT_TRUE(h0.ok());
    ASSERT_TRUE(h1.ok());
    auto sse0 = AllRangesSse(data, *h0->Compile().value());
    auto sse1 = AllRangesSse(data, *h1->Compile().value());
    ASSERT_TRUE(sse0.ok());
    ASSERT_TRUE(sse1.ok());
    EXPECT_LE(sse1.value(), sse0.value() + 1e-6);
  }
}

// ------------------------------------------------------------------ NAIVE

TEST(NaiveTest, GlobalAverageAnswers) {
  auto h = NaiveEstimator::Build({2, 4, 6});
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  EXPECT_DOUBLE_EQ(h->average(), 4.0);
  EXPECT_DOUBLE_EQ(h_flat->EstimateOne(1, 3), 12.0);
  EXPECT_DOUBLE_EQ(h_flat->EstimateOne(2, 2), 4.0);
  EXPECT_EQ(h->StorageWords(), 1);
}

TEST(NaiveTest, RejectsEmptyData) {
  EXPECT_FALSE(NaiveEstimator::Build({}).ok());
}

}  // namespace
}  // namespace rangesyn
