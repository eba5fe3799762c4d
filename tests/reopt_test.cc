// Tests for the §5 re-optimization post-pass: closed-form normal equations
// vs brute-force assembly, least-squares optimality, and the "never worse"
// guarantee over the original histogram.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/builders.h"
#include "histogram/opt_a_dp.h"
#include "histogram/prefix_stats.h"
#include "histogram/reopt.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 30) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

class ReoptPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReoptPropertyTest, ClosedFormMatchesBruteForceAssembly) {
  const int64_t n = 17;
  const std::vector<int64_t> data = RandomData(n, GetParam());
  const std::vector<std::vector<int64_t>> partitions = {
      {17}, {8, 17}, {3, 9, 14, 17}, {1, 2, 3, 17}, {5, 6, 16, 17}};
  for (const auto& ends : partitions) {
    auto p = Partition::FromEnds(n, ends);
    ASSERT_TRUE(p.ok());
    auto fast = AssembleNormalEquations(data, p.value());
    auto brute = AssembleNormalEquationsBrute(data, p.value());
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(brute.ok());
    EXPECT_LT(fast->q.MaxAbsDiff(brute->q), 1e-6);
    for (size_t k = 0; k < fast->rhs.size(); ++k) {
      EXPECT_NEAR(fast->rhs[k], brute->rhs[k],
                  1e-9 * (1.0 + std::abs(brute->rhs[k])));
    }
    EXPECT_NEAR(fast->c0, brute->c0, 1e-9 * (1.0 + brute->c0));
  }
}

TEST_P(ReoptPropertyTest, QuadraticPredictsMeasuredSse) {
  const int64_t n = 13;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 40);
  auto p = Partition::FromEnds(n, {4, 9, 13});
  ASSERT_TRUE(p.ok());
  auto eq = AssembleNormalEquations(data, p.value());
  ASSERT_TRUE(eq.ok());
  // For arbitrary stored values x, SseAt(x) must equal the measured
  // all-ranges SSE of the unrounded histogram with those values.
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> x(3);
    for (auto& v : x) v = rng.NextDouble(0.0, 20.0);
    auto hist =
        AvgHistogram::Create(p.value(), x, "X", PieceRounding::kNone);
    ASSERT_TRUE(hist.ok());
    auto measured = AllRangesSse(data, *hist->Compile().value());
    ASSERT_TRUE(measured.ok());
    EXPECT_NEAR(eq->SseAt(x), measured.value(),
                1e-6 * (1.0 + measured.value()));
  }
}

TEST_P(ReoptPropertyTest, SolutionBeatsPerturbations) {
  const int64_t n = 15;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 80);
  auto p = Partition::FromEnds(n, {5, 10, 15});
  ASSERT_TRUE(p.ok());
  auto values = OptimalBucketValues(data, p.value());
  ASSERT_TRUE(values.ok());
  auto eq = AssembleNormalEquations(data, p.value());
  ASSERT_TRUE(eq.ok());
  const double best = eq->SseAt(values.value());
  Rng rng(GetParam() + 7);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> x = values.value();
    for (auto& v : x) v += rng.NextDouble(-1.0, 1.0);
    EXPECT_GE(eq->SseAt(x), best - 1e-6);
  }
}

TEST_P(ReoptPropertyTest, ReoptNeverWorseThanBase) {
  const int64_t n = 24;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 120);
  for (int64_t b : {2, 4, 6}) {
    auto base = BuildEquiDepth(data, b, PieceRounding::kNone);
    ASSERT_TRUE(base.ok());
    auto reopt = Reoptimize(data, base.value());
    ASSERT_TRUE(reopt.ok());
    auto sse_base = AllRangesSse(data, *base->Compile().value());
    auto sse_reopt = AllRangesSse(data, *reopt->Compile().value());
    ASSERT_TRUE(sse_base.ok());
    ASSERT_TRUE(sse_reopt.ok());
    EXPECT_LE(sse_reopt.value(), sse_base.value() + 1e-6) << "B=" << b;
    EXPECT_EQ(reopt->Name(), "EQUI-DEPTH-reopt");
    EXPECT_EQ(reopt->StorageWords(), base->StorageWords());
  }
}

TEST_P(ReoptPropertyTest, ReoptOnOptACanOnlyImproveUnroundedSse) {
  // The paper's §5 observation: reopt-ing OPT-A can improve it, since
  // OPT-A optimizes boundaries for average values, not for free values.
  const int64_t n = 18;
  const std::vector<int64_t> data = RandomData(n, GetParam() + 200, 50);
  OptAOptions options;
  options.max_buckets = 4;
  auto opta = BuildOptA(data, options);
  ASSERT_TRUE(opta.ok());
  auto reopt = Reoptimize(data, opta->histogram);
  ASSERT_TRUE(reopt.ok());
  // Compare both unrounded on the same boundaries: reopt is least-squares
  // optimal so it must be at least as good as the averages.
  auto unrounded = AvgHistogram::WithTrueAverages(
      data, opta->histogram.partition(), "X", PieceRounding::kNone);
  ASSERT_TRUE(unrounded.ok());
  auto sse_avg = AllRangesSse(data, *unrounded->Compile().value());
  auto sse_reopt = AllRangesSse(data, *reopt->Compile().value());
  ASSERT_TRUE(sse_avg.ok());
  ASSERT_TRUE(sse_reopt.ok());
  EXPECT_LE(sse_reopt.value(), sse_avg.value() + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReoptPropertyTest,
                         ::testing::Values(1, 9, 27, 81));

TEST(ReoptTest, SingleBucketReoptMatchesGlobalLeastSquares) {
  const std::vector<int64_t> data = {10, 0, 0, 0};
  auto p = Partition::FromEnds(4, {4});
  ASSERT_TRUE(p.ok());
  auto values = OptimalBucketValues(data, p.value());
  ASSERT_TRUE(values.ok());
  // One value x answering every range (a,b) as (b-a+1)x; the optimum is
  // sum(len * s) / sum(len^2) over all ranges.
  double num = 0.0, den = 0.0;
  PrefixStats stats(data);
  for (int64_t a = 1; a <= 4; ++a) {
    for (int64_t b = a; b <= 4; ++b) {
      const double len = static_cast<double>(b - a + 1);
      num += len * static_cast<double>(stats.Sum(a, b));
      den += len * len;
    }
  }
  EXPECT_NEAR(values.value()[0], num / den, 1e-9);
}

TEST(ReoptTest, RejectsSizeMismatch) {
  auto p = Partition::FromEnds(4, {4});
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(AssembleNormalEquations({1, 2, 3}, p.value()).ok());
  EXPECT_FALSE(OptimalBucketValues({1, 2, 3}, p.value()).ok());
}

}  // namespace
}  // namespace rangesyn
