// End-to-end integration test at the paper's experimental scale (n = 127
// Zipf(1.8) dataset): builds the full Figure-1 method set at one budget
// and asserts the orderings the paper reports, plus the OPT-A internal
// consistency (DP objective == measured SSE) on real-size input.

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "core/threadpool.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/factory.h"
#include "eval/metrics.h"
#include "histogram/builders.h"
#include "histogram/opt_a_dp.h"
#include "histogram/reopt.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

class PaperScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto data = MakePaperDataset({});
    ASSERT_TRUE(data.ok());
    data_ = data.value();
  }
  std::vector<int64_t> data_;
};

TEST_F(PaperScaleTest, OptADpObjectiveEqualsMeasuredSseAtFullScale) {
  OptAOptions options;
  options.max_buckets = 8;
  auto opta = BuildOptA(data_, options);
  ASSERT_TRUE(opta.ok()) << opta.status();
  auto measured = AllRangesSse(data_, *opta->histogram.Compile().value());
  ASSERT_TRUE(measured.ok());
  EXPECT_NEAR(opta->optimal_sse, measured.value(),
              1e-9 * (1.0 + measured.value()));
}

TEST_F(PaperScaleTest, FigureOneOrderingsAtTwentyFourWords) {
  // 24 words: B=12 for 2-word methods, 8 for SAP0, 4 for SAP1.
  OptAOptions options;
  options.max_buckets = 12;
  auto opta = BuildOptA(data_, options);
  auto a0 = BuildA0(data_, 12);
  auto pointopt = BuildPointOpt(data_, 12);
  auto sap0 = BuildSap0(data_, 8);
  auto naive = BuildNaive(data_);
  auto topbb = BuildTopBB(data_, 12);
  ASSERT_TRUE(opta.ok());
  ASSERT_TRUE(a0.ok());
  ASSERT_TRUE(pointopt.ok());
  ASSERT_TRUE(sap0.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(topbb.ok());

  const double sse_opta =
      AllRangesSse(data_, *opta->histogram.Compile().value()).value();
  const double sse_a0 = AllRangesSse(data_, *a0->Compile().value()).value();
  const double sse_pointopt =
      AllRangesSse(data_, *pointopt->Compile().value()).value();
  const double sse_sap0 = AllRangesSse(data_, *sap0->Compile().value()).value();
  const double sse_naive =
      AllRangesSse(data_, *naive->Compile().value()).value();
  const double sse_topbb =
      AllRangesSse(data_, *topbb->Compile().value()).value();

  // The paper's Figure 1 orderings.
  EXPECT_LE(sse_opta, sse_a0 + 1e-6);         // OPT-A is the envelope
  EXPECT_LT(sse_opta, sse_pointopt);          // range-opt beats point-opt
  EXPECT_LT(sse_a0, sse_pointopt);            // even the heuristic does
  EXPECT_LT(sse_pointopt, sse_naive);         // everything beats NAIVE
  EXPECT_LT(sse_opta, sse_sap0);              // SAP0 weak per unit storage
  EXPECT_LT(sse_opta, sse_topbb);             // wavelets trail histograms
  EXPECT_GT(sse_naive / sse_opta, 100.0);     // log-scale separation
}

TEST_F(PaperScaleTest, ReoptImprovesOptAAsInSectionFive) {
  OptAOptions options;
  options.max_buckets = 12;
  auto opta = BuildOptA(data_, options);
  ASSERT_TRUE(opta.ok());
  auto reopt = Reoptimize(data_, opta->histogram);
  ASSERT_TRUE(reopt.ok());
  const double sse_opta =
      AllRangesSse(data_, *opta->histogram.Compile().value()).value();
  const double sse_reopt =
      AllRangesSse(data_, *reopt->Compile().value()).value();
  // The paper reports "up to 41% better"; require a real improvement and
  // no regression.
  EXPECT_LT(sse_reopt, sse_opta);
  EXPECT_GT(1.0 - sse_reopt / sse_opta, 0.05);
}

TEST_F(PaperScaleTest, WaveletRangeOptPredictionExactAtN127) {
  // n + 1 = 128 is a power of two — the regime where Theorem 9's
  // optimality (and our SSE prediction) is exact; likely why the paper
  // chose 127 keys.
  for (int64_t budget : {6, 12, 24}) {
    auto synopsis = BuildWaveRangeOpt(data_, budget);
    ASSERT_TRUE(synopsis.ok());
    auto predicted = PredictPrefixSynopsisSse(data_, synopsis.value());
    auto measured = AllRangesSse(data_, *synopsis->Compile().value());
    ASSERT_TRUE(predicted.ok());
    ASSERT_TRUE(measured.ok());
    EXPECT_NEAR(predicted.value(), measured.value(),
                1e-6 * (1.0 + measured.value()))
        << "budget=" << budget;
  }
}

TEST_F(PaperScaleTest, RoundedDpTracksExactAtModerateGranularity) {
  OptAOptions exact_options;
  exact_options.max_buckets = 8;
  auto exact = BuildOptA(data_, exact_options);
  ASSERT_TRUE(exact.ok());
  OptARoundedOptions rounded_options;
  rounded_options.max_buckets = 8;
  rounded_options.granularity = 4;
  auto rounded = BuildOptARounded(data_, rounded_options);
  ASSERT_TRUE(rounded.ok());
  const double sse_exact =
      AllRangesSse(data_, *exact->histogram.Compile().value()).value();
  const double sse_rounded =
      AllRangesSse(data_, *rounded->histogram.Compile().value()).value();
  EXPECT_LE(sse_rounded, 1.25 * sse_exact + 1e4);
  EXPECT_LT(rounded->states_explored, exact->states_explored);
}

// [slow] End-to-end determinism at the paper's scale: the full 127-key
// Zipf(1.8) constructions on an 8-thread pool must reproduce the serial
// goldens bit for bit — SSE values compared with ==, partitions and
// coefficient sets structurally equal. (The whole binary carries the
// `slow` ctest label; filter with `ctest -L slow` / `-LE slow`.)
TEST_F(PaperScaleTest, ParallelConstructionMatchesSerialGoldenEndToEnd) {
  OptAOptions options;
  options.max_buckets = 8;

  SetGlobalThreads(1);
  auto golden_opta = BuildOptA(data_, options);
  auto golden_sap0 = BuildSap0(data_, 8);
  auto golden_wave = BuildWaveRangeOpt(data_, 24);
  ASSERT_TRUE(golden_opta.ok()) << golden_opta.status();
  ASSERT_TRUE(golden_sap0.ok()) << golden_sap0.status();
  ASSERT_TRUE(golden_wave.ok()) << golden_wave.status();
  const double golden_opta_sse =
      AllRangesSse(data_, *golden_opta->histogram.Compile().value()).value();
  const double golden_sap0_sse =
      AllRangesSse(data_, *golden_sap0->Compile().value()).value();

  SetGlobalThreads(8);
  auto opta = BuildOptA(data_, options);
  auto sap0 = BuildSap0(data_, 8);
  auto wave = BuildWaveRangeOpt(data_, 24);
  ASSERT_TRUE(opta.ok()) << opta.status();
  ASSERT_TRUE(sap0.ok()) << sap0.status();
  ASSERT_TRUE(wave.ok()) << wave.status();
  const double opta_sse =
      AllRangesSse(data_, *opta->histogram.Compile().value()).value();
  const double sap0_sse = AllRangesSse(data_, *sap0->Compile().value()).value();
  SetGlobalThreads(-1);

  EXPECT_EQ(golden_opta->optimal_sse, opta->optimal_sse);
  EXPECT_EQ(golden_opta->states_explored, opta->states_explored);
  EXPECT_EQ(golden_opta->histogram.partition(), opta->histogram.partition());
  EXPECT_EQ(golden_opta->histogram.values(), opta->histogram.values());
  EXPECT_EQ(golden_opta_sse, opta_sse);

  EXPECT_EQ(golden_sap0->partition(), sap0->partition());
  EXPECT_EQ(golden_sap0->suffix_values(), sap0->suffix_values());
  EXPECT_EQ(golden_sap0->prefix_values(), sap0->prefix_values());
  EXPECT_EQ(golden_sap0_sse, sap0_sse);

  ASSERT_EQ(golden_wave->coefficients().size(),
            wave->coefficients().size());
  for (size_t i = 0; i < wave->coefficients().size(); ++i) {
    EXPECT_EQ(golden_wave->coefficients()[i].index,
              wave->coefficients()[i].index);
    EXPECT_EQ(golden_wave->coefficients()[i].value,
              wave->coefficients()[i].value);
  }
}

// [slow] Query micro-golden at n = 4096 (the "paper scale" the bench
// suite uses): one seeded Zipf dataset, one synopsis per estimator
// family, and the all-ranges SSE — 8.4M queries — swept through the
// factory's FlatSynopsis. Each sum must reproduce the checked-in golden
// exactly (== on doubles), the value the records' former range formulas
// gave before the flat view became the only query path: any change to
// the query path, the builders, or the seeded generator shows up here as
// a one-ULP diff, not a silent drift.
TEST(QpathPaperScaleGoldenTest, FlatSseMatchesGoldenAtN4096) {
  Rng rng(0x5EEDBA5EULL);
  auto floats = MakeNamedDistribution("zipf", 4096, 500000.0, &rng);
  ASSERT_TRUE(floats.ok()) << floats.status();
  auto rounded = RandomRound(floats.value(), RandomRoundingMode::kHalf,
                             &rng);
  ASSERT_TRUE(rounded.ok()) << rounded.status();
  const std::vector<int64_t> data = rounded.value();

  // One row per flat kernel family; goldens are the exact decimal
  // renderings (17 significant digits round-trip doubles exactly).
  struct GoldenRow {
    const char* method;
    int64_t budget_words;
    double sse;
  };
  const GoldenRow kGolden[] = {
      {"equidepth", 64, 6119955768722257.0},
      {"sap0", 64, 16470212531601.637},
      {"a0", 64, 1782099182746.0},
      {"sap1", 64, 23991424855122.238},
      {"sap2", 64, 46655985094349.648},
      {"naive", 64, 1.1644308229079832e+17},
      {"wave-point", 64, 27024647599431556.0},
      {"wave-range-opt", 64, 70199243724804.273},
  };
  for (const GoldenRow& row : kGolden) {
    SynopsisSpec spec;
    spec.method = row.method;
    spec.budget_words = row.budget_words;
    auto flat = BuildSynopsis(spec, data);
    ASSERT_TRUE(flat.ok()) << row.method << ": " << flat.status();
    auto flat_sse = AllRangesSse(data, *flat.value());
    ASSERT_TRUE(flat_sse.ok()) << flat_sse.status();
    EXPECT_EQ(row.sse, flat_sse.value())
        << row.method << ": golden mismatch, actual "
        << std::bit_cast<uint64_t>(flat_sse.value());
  }
}

}  // namespace
}  // namespace rangesyn
