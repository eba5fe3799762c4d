// Cross-family property suite: the provable orderings between estimator
// families, swept over random seeds and distribution shapes. These pin
// the paper's optimality claims as executable invariants:
//
//  * OPT-A is the SSE envelope of every average-per-bucket histogram at
//    the same bucket budget (it is *optimal* for that representation);
//  * SAP1 at B buckets is no worse than OPT-A at B buckets (paper §2.2.2:
//    "produces a B-bucket histogram with error no worse");
//  * SAP2 at B buckets is no worse than SAP1 at B buckets;
//  * re-optimization never hurts (least squares on a superset);
//  * NAIVE is the ceiling for everything.

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "eval/metrics.h"
#include "histogram/builders.h"
#include "histogram/opt_a_dp.h"
#include "histogram/reopt.h"

namespace rangesyn {
namespace {

using Params = std::tuple<std::string, uint64_t>;

class GuaranteesTest : public ::testing::TestWithParam<Params> {
 protected:
  std::vector<int64_t> MakeData(int64_t n) const {
    const auto& [dist, seed] = GetParam();
    Rng rng(seed);
    auto floats = MakeNamedDistribution(dist, n, 900.0, &rng);
    RANGESYN_CHECK_OK(floats.status());
    auto data = RandomRound(floats.value(), RandomRoundingMode::kHalf, &rng);
    RANGESYN_CHECK_OK(data.status());
    // Guard: some families can produce all-zero rounded data; nudge one
    // entry so estimators have something to model.
    bool all_zero = true;
    for (int64_t v : data.value()) {
      if (v != 0) {
        all_zero = false;
        break;
      }
    }
    std::vector<int64_t> out = data.value();
    if (all_zero) out[out.size() / 2] = 1;
    return out;
  }
};

TEST_P(GuaranteesTest, OptAIsTheAvgRepresentationEnvelope) {
  const std::vector<int64_t> data = MakeData(40);
  const int64_t b = 5;
  OptAOptions options;
  options.max_buckets = b;
  auto opta = BuildOptA(data, options);
  ASSERT_TRUE(opta.ok()) << opta.status();
  auto opta_sse = AllRangesSse(data, *opta->histogram.Compile().value());
  ASSERT_TRUE(opta_sse.ok());

  auto check_not_below = [&](const Result<AvgHistogram>& other) {
    ASSERT_TRUE(other.ok()) << other.status();
    // Compare under the identical answering rule (per-piece rounding):
    // reuse the competitor's boundaries with true averages.
    auto same_rule = AvgHistogram::WithTrueAverages(
        data, other->partition(), "competitor", PieceRounding::kPerPiece);
    ASSERT_TRUE(same_rule.ok());
    auto sse = AllRangesSse(data, *same_rule->Compile().value());
    ASSERT_TRUE(sse.ok());
    EXPECT_GE(sse.value(), opta_sse.value() - 1e-6);
  };
  check_not_below(BuildA0(data, b));
  check_not_below(BuildPointOpt(data, b));
  check_not_below(BuildVOptimal(data, b));
  check_not_below(BuildEquiWidth(data, b));
  check_not_below(BuildEquiDepth(data, b));
  check_not_below(BuildMaxDiff(data, b));
}

TEST_P(GuaranteesTest, SapLadderAtEqualBucketCount) {
  const std::vector<int64_t> data = MakeData(36);
  const int64_t b = 4;
  OptAOptions options;
  options.max_buckets = b;
  auto opta = BuildOptA(data, options);
  auto sap1 = BuildSap1(data, b);
  auto sap2 = BuildSap2(data, b);
  ASSERT_TRUE(opta.ok());
  ASSERT_TRUE(sap1.ok());
  ASSERT_TRUE(sap2.ok());
  const double sse_opta =
      AllRangesSse(data, *opta->histogram.Compile().value()).value();
  const double sse_sap1 = AllRangesSse(data, *sap1->Compile().value()).value();
  const double sse_sap2 = AllRangesSse(data, *sap2->Compile().value()).value();
  // SAP1's optimal linear models can represent OPT-A's averages (slope =
  // avg, intercept = 0); the slack absorbs OPT-A's sub-unit rounding.
  const double rounding_slack =
      4.0 * static_cast<double>(data.size() * data.size());
  EXPECT_LE(sse_sap1, sse_opta + rounding_slack);
  EXPECT_LE(sse_sap2, sse_sap1 + 1e-6);
}

TEST_P(GuaranteesTest, ReoptNeverHurtsUnroundedBases) {
  const std::vector<int64_t> data = MakeData(32);
  for (int64_t b : {2, 5}) {
    for (auto builder : {BuildEquiDepth, BuildMaxDiff}) {
      auto base = builder(data, b, PieceRounding::kNone);
      ASSERT_TRUE(base.ok());
      auto reopt = Reoptimize(data, base.value());
      ASSERT_TRUE(reopt.ok());
      const double sse_base =
          AllRangesSse(data, *base->Compile().value()).value();
      const double sse_reopt =
          AllRangesSse(data, *reopt->Compile().value()).value();
      EXPECT_LE(sse_reopt, sse_base + 1e-6);
    }
  }
}

TEST_P(GuaranteesTest, NaiveIsTheCeiling) {
  const std::vector<int64_t> data = MakeData(30);
  auto naive = BuildNaive(data);
  ASSERT_TRUE(naive.ok());
  const double ceiling = AllRangesSse(data, *naive->Compile().value()).value();
  // Every multi-bucket construction with its own optimal values must do
  // at least as well (up to OPT-A's sub-unit rounding noise).
  const double slack = 4.0 * static_cast<double>(data.size() * data.size());
  auto sap0 = BuildSap0(data, 4);
  ASSERT_TRUE(sap0.ok());
  EXPECT_LE(AllRangesSse(data, *sap0->Compile().value()).value(),
            ceiling + 1e-6);
  auto sap1 = BuildSap1(data, 4);
  ASSERT_TRUE(sap1.ok());
  EXPECT_LE(AllRangesSse(data, *sap1->Compile().value()).value(),
            ceiling + 1e-6);
  OptAOptions options;
  options.max_buckets = 4;
  auto opta = BuildOptA(data, options);
  ASSERT_TRUE(opta.ok());
  EXPECT_LE(AllRangesSse(data, *opta->histogram.Compile().value()).value(),
            ceiling + slack);
}

TEST_P(GuaranteesTest, MoreBucketsNeverHurtOptA) {
  const std::vector<int64_t> data = MakeData(24);
  double prev = -1.0;
  for (int64_t b : {1, 2, 4, 6}) {
    OptAOptions options;
    options.max_buckets = b;
    auto opta = BuildOptA(data, options);
    ASSERT_TRUE(opta.ok());
    if (prev >= 0.0) {
      // "At most B" semantics: larger budgets search supersets.
      EXPECT_LE(opta->optimal_sse, prev + 1e-6) << "B=" << b;
    }
    prev = opta->optimal_sse;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GuaranteesTest,
    ::testing::Combine(::testing::Values("zipf", "uniform", "gauss", "step",
                                         "spike", "cusp"),
                       ::testing::Values(1u, 7u, 23u)));

}  // namespace
}  // namespace rangesyn
