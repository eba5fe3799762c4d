// Tests for the query-level operations layered on synopses: quantile
// positions, equi-join size estimation, conjunctive selectivity.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "engine/catalog.h"
#include "engine/query_ops.h"
#include "engine/table.h"
#include "histogram/builders.h"
#include "histogram/prefix_stats.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 50) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

int64_t ExactQuantilePosition(const std::vector<int64_t>& data, double q) {
  PrefixStats stats(data);
  const double target = q * static_cast<double>(stats.TotalVolume());
  for (int64_t x = 1; x <= stats.n(); ++x) {
    if (static_cast<double>(stats.P(x)) >= target) return x;
  }
  return stats.n();
}

TEST(QuantileTest, ExactOnFineHistogram) {
  // A histogram with one bucket per value answers prefixes exactly, so
  // the estimated quantile equals the exact quantile.
  const std::vector<int64_t> data = RandomData(24, 3);
  auto hist = BuildEquiWidth(data, 24, PieceRounding::kNone);
  ASSERT_TRUE(hist.ok());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    auto est = EstimateQuantilePosition(*hist->Compile().value(), q);
    ASSERT_TRUE(est.ok());
    EXPECT_EQ(est.value(), ExactQuantilePosition(data, q)) << "q=" << q;
  }
}

TEST(QuantileTest, CloseOnCoarseSynopses) {
  const std::vector<int64_t> data = RandomData(100, 7);
  auto sap1 = BuildSap1(data, 10);
  ASSERT_TRUE(sap1.ok());
  for (double q : {0.25, 0.5, 0.75}) {
    auto est = EstimateQuantilePosition(*sap1->Compile().value(), q);
    ASSERT_TRUE(est.ok());
    EXPECT_NEAR(static_cast<double>(est.value()),
                static_cast<double>(ExactQuantilePosition(data, q)), 12.0)
        << "q=" << q;
  }
}

TEST(QuantileTest, WaveletPrefixDipsAreHandled) {
  const std::vector<int64_t> data = RandomData(63, 9);
  auto wave = BuildWaveRangeOpt(data, 8);
  ASSERT_TRUE(wave.ok());
  const auto wave_flat = wave->Compile().value();
  auto est = EstimateQuantilePosition(*wave_flat, 0.5);
  ASSERT_TRUE(est.ok());
  // The returned position satisfies the defining inequality under the
  // synopsis' own estimates.
  const double total = wave_flat->EstimateOne(1, 63);
  EXPECT_GE(wave_flat->EstimateOne(1, est.value()), 0.5 * total - 1e-9);
}

TEST(QuantileTest, RejectsBadArguments) {
  const std::vector<int64_t> data = {1, 2, 3};
  auto naive = BuildNaive(data);
  ASSERT_TRUE(naive.ok());
  EXPECT_FALSE(EstimateQuantilePosition(*naive->Compile().value(), 0.0).ok());
  EXPECT_FALSE(EstimateQuantilePosition(*naive->Compile().value(), 1.0).ok());
  auto zero = BuildNaive(std::vector<int64_t>{0, 0});
  ASSERT_TRUE(zero.ok());
  EXPECT_FALSE(EstimateQuantilePosition(*zero->Compile().value(), 0.5).ok());
}

TEST(JoinSizeTest, ExactOracle) {
  auto exact = ExactEquiJoinSize({1, 2, 3}, {4, 0, 2});
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact.value(), 1 * 4 + 2 * 0 + 3 * 2);
  EXPECT_FALSE(ExactEquiJoinSize({}, {1}).ok());
}

TEST(JoinSizeTest, FineHistogramsGiveExactJoin) {
  const std::vector<int64_t> r = RandomData(16, 11, 10);
  const std::vector<int64_t> s = RandomData(16, 13, 10);
  auto hr = BuildEquiWidth(r, 16, PieceRounding::kNone);
  auto hs = BuildEquiWidth(s, 16, PieceRounding::kNone);
  ASSERT_TRUE(hr.ok());
  ASSERT_TRUE(hs.ok());
  auto est =
      EstimateEquiJoinSize(*hr->Compile().value(), *hs->Compile().value());
  auto exact = ExactEquiJoinSize(r, s);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(est.value(), exact.value(), 1e-6);
}

TEST(JoinSizeTest, CoarseSynopsesApproximateJoin) {
  const std::vector<int64_t> r = RandomData(128, 17, 30);
  const std::vector<int64_t> s = RandomData(128, 19, 30);
  auto hr = BuildSap1(r, 16);
  auto hs = BuildSap1(s, 16);
  ASSERT_TRUE(hr.ok());
  ASSERT_TRUE(hs.ok());
  auto est =
      EstimateEquiJoinSize(*hr->Compile().value(), *hs->Compile().value());
  auto exact = ExactEquiJoinSize(r, s);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(est.value(), exact.value(), 0.25 * exact.value());
}

TEST(JoinSizeTest, SelfJoinDetectsSkew) {
  // Skewed data has a much larger second moment than uniform data of the
  // same volume; synopses must preserve that signal.
  std::vector<int64_t> uniform(64, 10);
  std::vector<int64_t> skewed(64, 1);
  skewed[5] = 64 * 10 - 63;
  auto hu = BuildSap1(uniform, 8);
  auto hs = BuildSap1(skewed, 8);
  ASSERT_TRUE(hu.ok());
  ASSERT_TRUE(hs.ok());
  auto sj_u = EstimateSelfJoinSize(*hu->Compile().value());
  auto sj_s = EstimateSelfJoinSize(*hs->Compile().value());
  ASSERT_TRUE(sj_u.ok());
  ASSERT_TRUE(sj_s.ok());
  EXPECT_GT(sj_s.value(), 10.0 * sj_u.value());
}

TEST(ConjunctionTest, IndependenceProduct) {
  Rng rng(23);
  Column a("a"), b("b");
  for (int i = 0; i < 4000; ++i) {
    a.Append(rng.NextInt(0, 99));
    b.Append(rng.NextInt(0, 99));
  }
  SynopsisCatalog catalog;
  SynopsisSpec spec;
  spec.method = "sap1";
  spec.budget_words = 30;
  ASSERT_TRUE(catalog.RegisterColumn("t.a", a, spec).ok());
  ASSERT_TRUE(catalog.RegisterColumn("t.b", b, spec).ok());
  auto sel = catalog.EstimateConjunctionSelectivity(
      {{"t.a", 0, 49}, {"t.b", 0, 24}});
  ASSERT_TRUE(sel.ok());
  // Independent uniform columns: ~0.5 * 0.25.
  EXPECT_NEAR(sel.value(), 0.125, 0.03);
  EXPECT_FALSE(catalog.EstimateConjunctionSelectivity({}).ok());
  EXPECT_FALSE(
      catalog.EstimateConjunctionSelectivity({{"missing", 0, 1}}).ok());
}

}  // namespace
}  // namespace rangesyn
