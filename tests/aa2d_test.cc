// Tests for the virtual-AA validation tooling: pointwise SSE over AA's
// upper triangle equals the all-ranges SSE of any estimator, and 2-D Haar
// keeps the paper's Theorem 9 equivalence honest.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/builders.h"
#include "histogram/prefix_stats.h"
#include "qpath/flat_synopsis.h"
#include "wavelet/aa2d.h"
#include "wavelet/haar.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 20) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

TEST(AATest, EntriesAreRangeSums) {
  const std::vector<int64_t> data = {1, 3, 5, 11};
  auto aa = MaterializeAA(data);
  ASSERT_TRUE(aa.ok());
  PrefixStats stats(data);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = i; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(aa.value()(i, j),
                       static_cast<double>(stats.Sum(i + 1, j + 1)));
    }
    for (int64_t j = 0; j < i; ++j) {
      EXPECT_DOUBLE_EQ(aa.value()(i, j), 0.0);
    }
  }
}

TEST(AATest, PaddedShapeIsPowerOfTwo) {
  auto aa = MaterializeAAPadded(RandomData(5, 1));
  ASSERT_TRUE(aa.ok());
  EXPECT_EQ(aa->rows(), 8);
  EXPECT_EQ(aa->cols(), 8);
}

// The central identity behind the paper's §3: approximating AA pointwise
// IS approximating all range queries. We build the estimate matrix
// ÂA[i][j] = estimator(i+1, j+1) and check the SSE identity for several
// estimator families.
TEST(AATest, UpperTriangleSseEqualsAllRangesSse) {
  const std::vector<int64_t> data = RandomData(16, 9);
  auto aa = MaterializeAA(data);
  ASSERT_TRUE(aa.ok());

  auto check = [&](const auto& record) {
    auto view = record.Compile();
    ASSERT_TRUE(view.ok()) << view.status();
    const FlatSynopsis& est = *view.value();
    Matrix approx(16, 16);
    for (int64_t i = 0; i < 16; ++i) {
      for (int64_t j = i; j < 16; ++j) {
        approx(i, j) = est.EstimateOne(i + 1, j + 1);
      }
    }
    auto direct = AllRangesSse(data, est);
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(UpperTriangleSse(aa.value(), approx, 16), direct.value(),
                1e-6 * (1.0 + direct.value()));
  };
  auto hist = BuildEquiWidth(data, 4);
  ASSERT_TRUE(hist.ok());
  check(hist.value());
  auto wave = BuildWaveRangeOpt(data, 4);
  ASSERT_TRUE(wave.ok());
  check(wave.value());
  auto sap = BuildSap0(data, 4);
  ASSERT_TRUE(sap.ok());
  check(sap.value());
}

// 2-D Haar of AA is orthonormal, so the pointwise (and hence range) SSE of
// dropping a coefficient subset equals the dropped energy — the mechanism
// the paper's Theorem 9 exploits on the virtual AA array.
TEST(AATest, TwoDimensionalParsevalOnAA) {
  const std::vector<int64_t> data = RandomData(8, 5);
  auto aa = MaterializeAAPadded(data);
  ASSERT_TRUE(aa.ok());
  auto coeffs = Haar2D(aa.value());
  ASSERT_TRUE(coeffs.ok());
  // Zero out the 75% smallest coefficients, reconstruct, compare SSE with
  // dropped energy (over the full matrix, not just the triangle).
  std::vector<double> mags;
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t c = 0; c < 8; ++c) {
      mags.push_back(std::abs(coeffs.value()(r, c)));
    }
  }
  std::nth_element(mags.begin(), mags.begin() + 48, mags.end());
  const double cutoff = mags[48];
  Matrix kept = coeffs.value();
  double dropped_energy = 0.0;
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t c = 0; c < 8; ++c) {
      if (std::abs(kept(r, c)) < cutoff) {
        dropped_energy += kept(r, c) * kept(r, c);
        kept(r, c) = 0.0;
      }
    }
  }
  auto back = Haar2DInverse(kept);
  ASSERT_TRUE(back.ok());
  double full_sse = 0.0;
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t c = 0; c < 8; ++c) {
      const double d = back.value()(r, c) - aa.value()(r, c);
      full_sse += d * d;
    }
  }
  EXPECT_NEAR(full_sse, dropped_energy, 1e-6 * (1.0 + dropped_energy));
}

TEST(AATest, RejectsBadInput) {
  EXPECT_FALSE(MaterializeAA({}).ok());
  EXPECT_FALSE(MaterializeAA({1, -2}).ok());
}

}  // namespace
}  // namespace rangesyn
