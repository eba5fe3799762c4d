// Tests for the pseudo-polynomial OPT-A dynamic programs (paper §2.1):
// exactness against exhaustive search, agreement between the warm-up E*
// and improved F* formulations, agreement between the DP objective and the
// measured SSE of the built histogram, and the rounding approximation.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/builders.h"
#include "histogram/opt_a_dp.h"
#include "histogram/partition.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 20) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

/// Exhaustive optimum of the OPT-A objective (per-piece rounding) over all
/// partitions into at most `buckets` buckets.
double ExhaustiveOptAValue(const std::vector<int64_t>& data,
                           int64_t buckets) {
  const int64_t n = static_cast<int64_t>(data.size());
  double best = std::numeric_limits<double>::infinity();
  for (int64_t k = 1; k <= buckets; ++k) {
    ForEachPartition(n, k, [&](const Partition& p) {
      auto hist = AvgHistogram::WithTrueAverages(data, p, "X",
                                                 PieceRounding::kPerPiece);
      if (!hist.ok()) return;
      auto sse = AllRangesSse(data, *hist->Compile().value());
      if (!sse.ok()) return;
      best = std::min(best, sse.value());
    });
  }
  return best;
}

class OptAPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptAPropertyTest, MatchesExhaustiveSearch) {
  const int64_t n = 9;
  const std::vector<int64_t> data = RandomData(n, GetParam());
  for (int64_t b = 1; b <= 4; ++b) {
    OptAOptions options;
    options.max_buckets = b;
    auto result = BuildOptA(data, options);
    ASSERT_TRUE(result.ok()) << result.status();
    const double brute = ExhaustiveOptAValue(data, b);
    EXPECT_NEAR(result->optimal_sse, brute, 1e-6 * (1.0 + brute))
        << "B=" << b;
  }
}

TEST_P(OptAPropertyTest, DpObjectiveEqualsMeasuredSse) {
  const int64_t n = 16;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 100);
  OptAOptions options;
  options.max_buckets = 4;
  auto result = BuildOptA(data, options);
  ASSERT_TRUE(result.ok()) << result.status();
  auto measured = AllRangesSse(data, *result->histogram.Compile().value());
  ASSERT_TRUE(measured.ok());
  EXPECT_NEAR(result->optimal_sse, measured.value(),
              1e-6 * (1.0 + measured.value()));
}

TEST_P(OptAPropertyTest, WarmupAgreesWithImproved) {
  const int64_t n = 8;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 200, 12);
  for (int64_t b = 1; b <= 3; ++b) {
    OptAOptions options;
    options.max_buckets = b;
    auto fast = BuildOptA(data, options);
    auto slow = BuildOptAWarmup(data, options);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    EXPECT_NEAR(fast->optimal_sse, slow->optimal_sse,
                1e-6 * (1.0 + fast->optimal_sse))
        << "B=" << b;
  }
}

TEST_P(OptAPropertyTest, NeverWorseThanA0Heuristic) {
  const int64_t n = 14;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 300);
  for (int64_t b = 2; b <= 4; ++b) {
    OptAOptions options;
    options.max_buckets = b;
    auto opta = BuildOptA(data, options);
    ASSERT_TRUE(opta.ok());
    auto a0 = BuildA0(data, b);
    ASSERT_TRUE(a0.ok());
    auto sse_opta = AllRangesSse(data, *opta->histogram.Compile().value());
    auto sse_a0 = AllRangesSse(data, *a0->Compile().value());
    ASSERT_TRUE(sse_opta.ok());
    ASSERT_TRUE(sse_a0.ok());
    EXPECT_LE(sse_opta.value(), sse_a0.value() + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptAPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST_P(OptAPropertyTest, PruningConfigurationsAgree) {
  // Both prunes are admissible: every configuration must report the same
  // optimum (the default explores far fewer states).
  const std::vector<int64_t> data = RandomData(20, GetParam() + 400, 60);
  double reference = -1.0;
  uint64_t reference_states = 0;
  for (const bool dominance : {true, false}) {
    for (const bool cap : {true, false}) {
      OptAOptions options;
      options.max_buckets = 4;
      options.enable_dominance_prune = dominance;
      options.enable_lambda_cap = cap;
      auto result = BuildOptA(data, options);
      ASSERT_TRUE(result.ok()) << result.status();
      if (reference < 0.0) {
        reference = result->optimal_sse;
        reference_states = result->states_explored;
      } else {
        EXPECT_NEAR(result->optimal_sse, reference,
                    1e-9 * (1.0 + reference))
            << "dominance=" << dominance << " cap=" << cap;
      }
      if (dominance && cap) {
        // The default configuration must not explore more states than the
        // unpruned one did.
        EXPECT_LE(result->states_explored,
                  std::max(reference_states, result->states_explored));
      }
    }
  }
}

TEST(OptATest, TrivialAndDegenerateInputs) {
  // Single element.
  OptAOptions options;
  options.max_buckets = 1;
  auto single = BuildOptA({7}, options);
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(single->optimal_sse, 0.0, 1e-12);

  // All zeros: one bucket with average zero answers everything exactly.
  options.max_buckets = 3;
  auto zeros = BuildOptA({0, 0, 0, 0, 0}, options);
  ASSERT_TRUE(zeros.ok());
  EXPECT_NEAR(zeros->optimal_sse, 0.0, 1e-12);

  // Constant data: exact regardless of bucketing.
  auto constant = BuildOptA({4, 4, 4, 4, 4, 4}, options);
  ASSERT_TRUE(constant.ok());
  EXPECT_NEAR(constant->optimal_sse, 0.0, 1e-12);

  // More buckets than elements in at-most mode: clamped, still works.
  options.max_buckets = 50;
  auto clamped = BuildOptA({3, 1, 4}, options);
  ASSERT_TRUE(clamped.ok());
  EXPECT_NEAR(clamped->optimal_sse, 0.0, 1e-12);  // one bucket per element
}

TEST(OptATest, SingleBucketIsWholeRange) {
  const std::vector<int64_t> data = {3, 1, 4, 1, 5};
  OptAOptions options;
  options.max_buckets = 1;
  auto result = BuildOptA(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->buckets_used, 1);
  EXPECT_EQ(result->histogram.partition().num_buckets(), 1);
}

TEST(OptATest, PerfectPartitionGivesZeroError) {
  // Two constant plateaus with B=2: zero SSE is achievable (averages are
  // integral, so rounding introduces no error).
  const std::vector<int64_t> data = {5, 5, 5, 9, 9, 9};
  OptAOptions options;
  options.max_buckets = 2;
  auto result = BuildOptA(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->optimal_sse, 0.0, 1e-9);
  EXPECT_EQ(result->histogram.partition().ends()[0], 3);
}

TEST(OptATest, ExactBucketsForcesBucketCount) {
  const std::vector<int64_t> data = {5, 5, 5, 5, 5, 5};
  OptAOptions options;
  options.max_buckets = 3;
  options.exact_buckets = true;
  auto result = BuildOptA(data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->histogram.partition().num_buckets(), 3);
}

TEST(OptATest, RejectsBadInput) {
  OptAOptions options;
  options.max_buckets = 2;
  EXPECT_FALSE(BuildOptA({}, options).ok());
  EXPECT_FALSE(BuildOptA({1, -1}, options).ok());
  options.max_buckets = 0;
  EXPECT_FALSE(BuildOptA({1, 2}, options).ok());
  options.max_buckets = 5;
  options.exact_buckets = true;
  EXPECT_FALSE(BuildOptA({1, 2}, options).ok());
}

TEST(OptATest, StateBudgetExhaustionIsReported) {
  const std::vector<int64_t> data = RandomData(24, 77, 500);
  OptAOptions options;
  options.max_buckets = 6;
  options.max_states = 10;  // absurdly small
  auto result = BuildOptA(data, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// ------------------------------------------------------------ OPT-A-ROUNDED

TEST(OptARoundedTest, GranularityOneWithRefitMatchesExact) {
  const std::vector<int64_t> data = RandomData(12, 5);
  OptAOptions exact_options;
  exact_options.max_buckets = 3;
  auto exact = BuildOptA(data, exact_options);
  ASSERT_TRUE(exact.ok());

  OptARoundedOptions rounded_options;
  rounded_options.max_buckets = 3;
  rounded_options.granularity = 1;
  auto rounded = BuildOptARounded(data, rounded_options);
  ASSERT_TRUE(rounded.ok());

  auto sse_exact = AllRangesSse(data, *exact->histogram.Compile().value());
  auto sse_rounded = AllRangesSse(data, *rounded->histogram.Compile().value());
  ASSERT_TRUE(sse_exact.ok());
  ASSERT_TRUE(sse_rounded.ok());
  EXPECT_NEAR(sse_exact.value(), sse_rounded.value(),
              1e-6 * (1.0 + sse_exact.value()));
}

TEST(OptARoundedTest, CoarserGranularityDegradesGracefully) {
  const std::vector<int64_t> data = RandomData(20, 6, 200);
  OptAOptions exact_options;
  exact_options.max_buckets = 4;
  auto exact = BuildOptA(data, exact_options);
  ASSERT_TRUE(exact.ok());
  const double opt = exact->optimal_sse;

  for (int64_t x : {2, 4, 8}) {
    OptARoundedOptions options;
    options.max_buckets = 4;
    options.granularity = x;
    auto rounded = BuildOptARounded(data, options);
    ASSERT_TRUE(rounded.ok()) << "x=" << x;
    auto sse = AllRangesSse(data, *rounded->histogram.Compile().value());
    ASSERT_TRUE(sse.ok());
    // Never better than the true optimum, and within a generous constant
    // factor for these granularities on this volume.
    EXPECT_GE(sse.value(), opt - 1e-6);
    EXPECT_LE(sse.value(), 10.0 * opt + 1e4) << "x=" << x;
  }
}

TEST(OptARoundedTest, LiteralDefinitionThreeAlsoWorks) {
  const std::vector<int64_t> data = RandomData(16, 9, 100);
  OptARoundedOptions options;
  options.max_buckets = 3;
  options.granularity = 4;
  options.refit_values = false;  // paper's literal "multiply through by x"
  auto rounded = BuildOptARounded(data, options);
  ASSERT_TRUE(rounded.ok());
  auto sse = AllRangesSse(data, *rounded->histogram.Compile().value());
  ASSERT_TRUE(sse.ok());
  // Sanity: still vastly better than NAIVE.
  auto naive = BuildNaive(data);
  ASSERT_TRUE(naive.ok());
  auto naive_sse = AllRangesSse(data, *naive->Compile().value());
  ASSERT_TRUE(naive_sse.ok());
  EXPECT_LT(sse.value(), naive_sse.value());
}

TEST(OptARoundedTest, RefitNeverWorseThanLiteral) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    const std::vector<int64_t> data = RandomData(14, seed, 60);
    OptARoundedOptions options;
    options.max_buckets = 3;
    options.granularity = 5;
    options.refit_values = true;
    auto refit = BuildOptARounded(data, options);
    options.refit_values = false;
    auto literal = BuildOptARounded(data, options);
    ASSERT_TRUE(refit.ok());
    ASSERT_TRUE(literal.ok());
    auto sse_refit = AllRangesSse(data, *refit->histogram.Compile().value());
    auto sse_literal =
        AllRangesSse(data, *literal->histogram.Compile().value());
    ASSERT_TRUE(sse_refit.ok());
    ASSERT_TRUE(sse_literal.ok());
    // Same boundaries; true averages can only improve the unrounded part.
    // Rounding can flip sub-unit differences, hence the small slack.
    EXPECT_LE(sse_refit.value(), sse_literal.value() + 1.0);
  }
}

TEST(SuggestGranularityTest, PositiveAndMonotoneInEpsilon) {
  const std::vector<int64_t> data = RandomData(30, 4, 1000);
  const int64_t g1 = SuggestGranularity(data, 6, 0.1);
  const int64_t g2 = SuggestGranularity(data, 6, 1.0);
  EXPECT_GE(g1, 1);
  EXPECT_GE(g2, g1);
}

}  // namespace
}  // namespace rangesyn
