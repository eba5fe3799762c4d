// Randomized property tests for the invariant-audit subsystem: the
// brute-force oracles themselves, and audit::Verifier cross-checking the
// production DP/SAP0/wavelet/serialization pipelines on datasets drawn
// from the paper's distribution families.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "audit/oracles.h"
#include "audit/verifier.h"
#include "core/mathutil.h"
#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "histogram/builders.h"
#include "histogram/partition.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace audit {
namespace {

/// Integer counts from one of the paper's distribution families
/// ("zipf", "spike", "selfsim"), deterministically from `seed`.
std::vector<int64_t> MakeCounts(const std::string& family, int64_t n,
                                uint64_t seed) {
  Rng rng(seed);
  Result<std::vector<double>> freq = InvalidArgumentError("unset");
  if (family == "zipf") {
    ZipfOptions options;
    options.n = n;
    options.alpha = 1.8;
    options.total_volume = 40.0 * static_cast<double>(n);
    freq = ZipfFrequencies(options, &rng);
  } else if (family == "spike") {
    freq = SpikeFrequencies(n, /*num_spikes=*/3, /*background=*/2.0,
                            /*spike_mass=*/60.0, &rng);
  } else if (family == "selfsim") {
    // SelfSimilarFrequencies requires a power-of-two domain; generate at
    // the next power of two and truncate.
    const int64_t pow2 =
        static_cast<int64_t>(NextPowerOfTwo(static_cast<uint64_t>(n)));
    freq = SelfSimilarFrequencies(pow2, /*bias=*/0.8,
                                  /*total_volume=*/30.0 * pow2, &rng);
    if (freq.ok()) freq.value().resize(static_cast<size_t>(n));
  }
  EXPECT_TRUE(freq.ok()) << family << ": " << freq.status();
  Result<std::vector<int64_t>> counts =
      RandomRound(freq.value(), RandomRoundingMode::kUnbiased, &rng);
  EXPECT_TRUE(counts.ok()) << counts.status();
  return counts.value();
}

// ---------------------------------------------------------------- Oracles

TEST(OracleTest, NaiveRangeSumByDirectSummation) {
  const std::vector<int64_t> data = {3, 1, 4, 1, 5};
  EXPECT_EQ(NaiveRangeSum(data, 1, 5), 14);
  EXPECT_EQ(NaiveRangeSum(data, 2, 4), 6);
  EXPECT_EQ(NaiveRangeSum(data, 3, 3), 4);
}

TEST(OracleTest, NaiveAllRangesSseZeroForExactEstimator) {
  // On constant data the NAIVE estimator answers every range exactly.
  const std::vector<int64_t> data(6, 7);
  auto naive = BuildNaive(data);
  ASSERT_TRUE(naive.ok());
  auto sse = NaiveAllRangesSse(data, *naive->Compile().value());
  ASSERT_TRUE(sse.ok());
  EXPECT_NEAR(sse.value(), 0.0, 1e-12);
}

TEST(OracleTest, NaiveAllRangesSseRejectsDomainMismatch) {
  const std::vector<int64_t> data = {1, 2, 3};
  auto naive = BuildNaive(std::vector<int64_t>{1, 2, 3, 4});
  ASSERT_TRUE(naive.ok());
  EXPECT_FALSE(NaiveAllRangesSse(data, *naive->Compile().value()).ok());
}

TEST(OracleTest, ExhaustivePartitionSearchOnSyntheticCost) {
  // cost = width²: for n=4, k=2 the optimum is the balanced split 2+2.
  const BucketCostFn cost = [](int64_t l, int64_t r) {
    const double w = static_cast<double>(r - l + 1);
    return w * w;
  };
  auto opt = NaiveMinCostPartition(4, 2, cost);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_DOUBLE_EQ(opt->cost, 8.0);
  EXPECT_EQ(opt->partition.bucket_end(0), 2);
}

TEST(OracleTest, ExhaustiveSearchRefusesLargeDomains) {
  const BucketCostFn cost = [](int64_t, int64_t) { return 0.0; };
  EXPECT_EQ(NaiveMinCostPartition(21, 2, cost).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(OracleTest, AtMostSearchPicksBestBucketCount) {
  // cost = (width - 2)²: with n=6 and at most 5 buckets, three buckets of
  // width 2 are free, so the at-most optimum must find k=3 with cost 0.
  const BucketCostFn cost = [](int64_t l, int64_t r) {
    const double d = static_cast<double>(r - l + 1) - 2.0;
    return d * d;
  };
  auto opt = NaiveMinCostPartitionAtMost(6, 5, cost);
  ASSERT_TRUE(opt.ok()) << opt.status();
  EXPECT_DOUBLE_EQ(opt->cost, 0.0);
  EXPECT_EQ(opt->partition.num_buckets(), 3);
}

TEST(OracleTest, PartitionWellFormednessCatchesNothingOnValidOnes) {
  auto p = Partition::FromEnds(10, {3, 7, 10});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(CheckPartitionWellFormed(p.value()).ok());
  EXPECT_TRUE(CheckPartitionWellFormed(Partition::Whole(1)).ok());
}

TEST(OracleTest, ExhaustiveWaveletSubsetMatchesBuilder) {
  // For n=7 (padded 8) the builder's top-|c| choice must achieve the
  // exhaustive minimum over every coefficient subset (Theorem 9).
  const std::vector<int64_t> data = {9, 2, 7, 1, 8, 3, 6};
  auto synopsis = BuildWaveRangeOpt(data, /*budget=*/3);
  ASSERT_TRUE(synopsis.ok()) << synopsis.status();
  auto realized = NaiveAllRangesSse(data, *synopsis->Compile().value());
  ASSERT_TRUE(realized.ok());
  auto best = NaiveBestPrefixWaveletSse(data, /*budget=*/3);
  ASSERT_TRUE(best.ok()) << best.status();
  EXPECT_NEAR(realized.value(), best.value(),
              1e-9 + 1e-9 * best.value());
}

TEST(OracleTest, ExhaustiveWaveletRefusesLargePaddedSizes) {
  const std::vector<int64_t> data(16, 1);  // padded = 32 > 16
  EXPECT_EQ(NaiveBestPrefixWaveletSse(data, 3).status().code(),
            StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------- Verifier

TEST(VerifierTest, IntervalDpOnSyntheticCosts) {
  const Verifier verifier;
  const BucketCostFn quadratic = [](int64_t l, int64_t r) {
    const double w = static_cast<double>(r - l + 1);
    return w * w;
  };
  EXPECT_TRUE(verifier.VerifyIntervalDp(9, 4, quadratic).ok());
  // A cost where more buckets hurt, exercising the at-most == best-k check.
  const BucketCostFn bumpy = [](int64_t l, int64_t r) {
    const double d = static_cast<double>(r - l + 1) - 2.0;
    return 1.0 + d * d;
  };
  EXPECT_TRUE(verifier.VerifyIntervalDp(8, 8, bumpy).ok());
}

TEST(VerifierTest, RejectsOversizedInput) {
  VerifierOptions options;
  options.max_n = 16;
  const Verifier verifier(options);
  const std::vector<int64_t> data(17, 1);
  EXPECT_EQ(verifier.VerifySap0(data, 3).code(),
            StatusCode::kFailedPrecondition);
}

TEST(VerifierTest, RejectsNegativeCounts) {
  const Verifier verifier;
  const std::vector<int64_t> data = {1, -2, 3};
  EXPECT_FALSE(verifier.VerifySap0(data, 2).ok());
}

TEST(VerifierTest, RoundTripOfHandBuiltHistogram) {
  const Verifier verifier;
  const std::vector<int64_t> data = {5, 0, 3, 9, 9, 1, 2, 8};
  auto sap0 = BuildSap0(data, 3);
  ASSERT_TRUE(sap0.ok());
  EXPECT_TRUE(verifier.VerifySerializeRoundTrip(*sap0->Compile().value()).ok());
}

// The acceptance sweep: every production pipeline against every oracle,
// across >= 3 distribution families, exhaustive-checkable and larger
// domains, and multiple seeds.
class VerifyAllTest : public ::testing::TestWithParam<
                          std::tuple<std::string, int64_t, uint64_t>> {};

TEST_P(VerifyAllTest, ProductionMatchesBruteForce) {
  const auto& [family, n, seed] = GetParam();
  const std::vector<int64_t> data = MakeCounts(family, n, seed);
  ASSERT_EQ(static_cast<int64_t>(data.size()), n);
  const Verifier verifier;
  const int64_t buckets = n <= 10 ? 2 : 3;
  const Status status = verifier.VerifyAll(data, buckets);
  EXPECT_TRUE(status.ok()) << family << " n=" << n << " seed=" << seed
                           << ": " << status;
}

INSTANTIATE_TEST_SUITE_P(
    Families, VerifyAllTest,
    ::testing::Combine(
        // Distribution families (>= 3, per the audit charter).
        ::testing::Values("zipf", "spike", "selfsim"),
        // n=7/15: padded == n+1, so the full Theorem 9 checks run, with
        // n<=14 additionally exercising the exhaustive-partition oracle;
        // n=31/48 exercise the O(n³) polynomial cross-checks.
        ::testing::Values(int64_t{7}, int64_t{15}, int64_t{31}, int64_t{48}),
        // Seeds.
        ::testing::Values(uint64_t{1}, uint64_t{20010521})));

}  // namespace
}  // namespace audit
}  // namespace rangesyn
