// Sanitizer workout: drives every builder, estimator, and the RSF1 codec
// over adversarial input shapes (tiny domains, all-zero counts, power-of-
// two boundaries, heavy-tailed data) so ASan/UBSan instrumented builds
// (the debug-asan / debug-ubsan presets) sweep the hot paths for memory
// and UB defects. The assertions here are deliberately coarse — the deep
// semantic checks live in audit_test.cc; this file exists to *execute*
// the code under instrumentation, including regression cases for bugs the
// static-analysis pass surfaced.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mathutil.h"
#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/factory.h"
#include "histogram/builders.h"
#include "histogram/weighted_sap0.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

const char* const kMethods[] = {"naive",     "equiwidth", "equidepth",
                                "maxdiff",   "vopt",      "pointopt",
                                "a0",        "sap0",      "sap1",
                                "sap2",      "prefixopt", "wave-point",
                                "topbb",     "wave-range-opt"};

/// Builds every synopsis method over `data` and sweeps a grid of range
/// queries through each; under sanitizers this flushes out OOB reads and
/// UB in the estimate paths.
void ExerciseAllMethods(const std::vector<int64_t>& data,
                        int64_t budget_words) {
  const int64_t n = static_cast<int64_t>(data.size());
  for (const char* method : kMethods) {
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = budget_words;
    auto est = BuildSynopsis(spec, data);
    ASSERT_TRUE(est.ok()) << method << " n=" << n << ": " << est.status();
    const int64_t stride = std::max<int64_t>(1, n / 7);
    for (int64_t a = 1; a <= n; a += stride) {
      for (int64_t b = a; b <= n; b += stride) {
        (void)(*est)->EstimateOne(a, b);
      }
    }
    (void)(*est)->EstimateOne(1, n);
    (void)(*est)->EstimateOne(n, n);
    auto bytes = EncodeFlatSynopsis(*est.value());
    ASSERT_TRUE(bytes.ok()) << method << ": " << bytes.status();
    auto restored = DecodeFlatSynopsis(bytes.value());
    ASSERT_TRUE(restored.ok()) << method << ": " << restored.status();
    (void)(*restored)->EstimateOne(1, n);
  }
}

TEST(SanitizerRegressionTest, SinglePointDomain) {
  ExerciseAllMethods({42}, 7);
}

TEST(SanitizerRegressionTest, TwoPointDomain) {
  ExerciseAllMethods({0, 9}, 7);
}

TEST(SanitizerRegressionTest, AllZeroCounts) {
  ExerciseAllMethods(std::vector<int64_t>(17, 0), 9);
}

TEST(SanitizerRegressionTest, PowerOfTwoAndNeighborSizes) {
  // Wavelet padding logic branches on power-of-two boundaries; hit the
  // boundary and both neighbors.
  Rng rng(99);
  for (int64_t n : {15, 16, 17, 31, 32, 33}) {
    std::vector<int64_t> data(static_cast<size_t>(n));
    for (auto& v : data) v = rng.NextInt(0, 40);
    ExerciseAllMethods(data, 12);
  }
}

class DistributionFamilyTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(DistributionFamilyTest, FullPipelineUnderInstrumentation) {
  Rng rng(7);
  auto freq = MakeNamedDistribution(GetParam(), 127, 2000.0, &rng);
  ASSERT_TRUE(freq.ok()) << freq.status();
  auto data = RandomRound(freq.value(), RandomRoundingMode::kHalf, &rng);
  ASSERT_TRUE(data.ok()) << data.status();
  ExerciseAllMethods(data.value(), 21);
}

INSTANTIATE_TEST_SUITE_P(Families, DistributionFamilyTest,
                         ::testing::Values("zipf", "spike", "selfsim",
                                           "cusp", "step"));

TEST(SanitizerRegressionTest, WeightedSap0WithSkewedWorkload) {
  Rng rng(13);
  std::vector<int64_t> data(29);
  for (auto& v : data) v = rng.NextInt(0, 15);
  const int64_t n = static_cast<int64_t>(data.size());
  std::vector<RangeQuery> queries;
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t a = rng.NextInt(1, n);
    queries.push_back({a, rng.NextInt(a, n)});
  }
  auto weights = RangeWorkloadWeights::FromQueries(n, queries, 0.25);
  ASSERT_TRUE(weights.ok()) << weights.status();
  auto hist = BuildWeightedSap0(data, 4, weights.value());
  ASSERT_TRUE(hist.ok()) << hist.status();
  const auto hist_flat = hist->Compile().value();
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      (void)hist_flat->EstimateOne(a, b);
    }
  }
}

TEST(SanitizerRegressionTest, NumRangesNoInt64Overflow) {
  // Regression: the naive n*(n+1)/2 overflows int64_t at n ≈ 3.04e9 even
  // though the result still fits; dividing the even factor first keeps
  // every intermediate in range.
  EXPECT_EQ(NumRanges(0), 0);
  EXPECT_EQ(NumRanges(1), 1);
  EXPECT_EQ(NumRanges(2), 3);
  EXPECT_EQ(NumRanges(3), 6);
  EXPECT_EQ(NumRanges(int64_t{4000000000}), int64_t{8000000002000000000});
}

TEST(SanitizerRegressionTest, BigBudgetsClampCleanly) {
  // Budgets far beyond the domain must clamp, not index out of bounds.
  const std::vector<int64_t> data = {4, 1, 6, 2, 9};
  for (const char* method : {"sap0", "wave-range-opt", "equidepth"}) {
    SynopsisSpec spec;
    spec.method = method;
    spec.budget_words = 1000;
    auto est = BuildSynopsis(spec, data);
    ASSERT_TRUE(est.ok()) << method << ": " << est.status();
    (void)(*est)->EstimateOne(1, 5);
  }
}

}  // namespace
}  // namespace rangesyn
