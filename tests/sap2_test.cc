// Tests for the SAP2 extension (quadratic suffix/prefix models) and the
// shared quadratic-fit primitive.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"
#include "eval/metrics.h"
#include "histogram/bucket_cost.h"
#include "histogram/builders.h"
#include "histogram/histogram.h"
#include "histogram/prefix_stats.h"
#include "histogram/quadratic_fit.h"

namespace rangesyn {
namespace {

std::vector<int64_t> RandomData(int64_t n, uint64_t seed, int64_t hi = 30) {
  Rng rng(seed);
  std::vector<int64_t> data(static_cast<size_t>(n));
  for (auto& v : data) v = rng.NextInt(0, hi);
  return data;
}

QuadraticFit FitPoints(const std::vector<double>& xs,
                       const std::vector<double>& ys) {
  double m = static_cast<double>(xs.size());
  double sx = 0, sx2 = 0, sx3 = 0, sx4 = 0, sy = 0, sxy = 0, sx2y = 0,
         sy2 = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i], y = ys[i];
    sx += x;
    sx2 += x * x;
    sx3 += x * x * x;
    sx4 += x * x * x * x;
    sy += y;
    sxy += x * y;
    sx2y += x * x * y;
    sy2 += y * y;
  }
  return FitQuadraticFromMoments(m, sx, sx2, sx3, sx4, sy, sxy, sx2y, sy2);
}

TEST(QuadraticFitTest, ExactQuadraticIsRecovered) {
  // y = 2 - 3x + 0.5x² sampled at five points: ssr 0, coefficients exact.
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(2.0 - 3.0 * x + 0.5 * x * x);
  const QuadraticFit fit = FitPoints(xs, ys);
  EXPECT_NEAR(fit.c0, 2.0, 1e-8);
  EXPECT_NEAR(fit.c1, -3.0, 1e-8);
  EXPECT_NEAR(fit.c2, 0.5, 1e-8);
  EXPECT_NEAR(fit.ssr, 0.0, 1e-7);
}

TEST(QuadraticFitTest, DegenerateSampleSizes) {
  // One point: constant, exact.
  QuadraticFit one = FitPoints({3.0}, {7.0});
  EXPECT_NEAR(one.At(3.0), 7.0, 1e-12);
  EXPECT_NEAR(one.ssr, 0.0, 1e-12);
  // Two points: exact line.
  QuadraticFit two = FitPoints({1.0, 3.0}, {2.0, 8.0});
  EXPECT_NEAR(two.At(1.0), 2.0, 1e-9);
  EXPECT_NEAR(two.At(3.0), 8.0, 1e-9);
  EXPECT_NEAR(two.ssr, 0.0, 1e-9);
  // Three points: exact parabola.
  QuadraticFit three = FitPoints({1.0, 2.0, 3.0}, {1.0, 4.0, 9.0});
  EXPECT_NEAR(three.At(2.0), 4.0, 1e-8);
  EXPECT_NEAR(three.ssr, 0.0, 1e-7);
}

TEST(QuadraticFitTest, ResidualsSumToZero) {
  // The with-intercept least-squares property the Decomposition Lemma
  // relies on.
  Rng rng(5);
  std::vector<double> xs, ys;
  for (int i = 1; i <= 12; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(rng.NextDouble(-10.0, 10.0));
  }
  const QuadraticFit fit = FitPoints(xs, ys);
  double residual_sum = 0.0;
  double ssr = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - fit.At(xs[i]);
    residual_sum += r;
    ssr += r * r;
  }
  EXPECT_NEAR(residual_sum, 0.0, 1e-7);
  EXPECT_NEAR(fit.ssr, ssr, 1e-6 * (1.0 + ssr));
}

// ------------------------------------------------ Bit-for-bit pinning

// The fit as it was computed before QuadraticDesign factored it: a fresh
// pivoted elimination of the Gram matrix and right-hand side per call.
bool ReferenceSolve3x3(double g[3][3], double b[3], double c[3]) {
  int perm[3] = {0, 1, 2};
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r) {
      if (std::fabs(g[perm[r]][col]) > std::fabs(g[perm[pivot]][col])) {
        pivot = r;
      }
    }
    std::swap(perm[col], perm[pivot]);
    const double d = g[perm[col]][col];
    if (std::fabs(d) < 1e-12) return false;
    for (int r = col + 1; r < 3; ++r) {
      const double f = g[perm[r]][col] / d;
      for (int cc = col; cc < 3; ++cc) g[perm[r]][cc] -= f * g[perm[col]][cc];
      b[perm[r]] -= f * b[perm[col]];
    }
  }
  for (int col = 2; col >= 0; --col) {
    double acc = b[perm[col]];
    for (int cc = col + 1; cc < 3; ++cc) acc -= g[perm[col]][cc] * c[cc];
    c[col] = acc / g[perm[col]][col];
  }
  return true;
}

QuadraticFit ReferenceFit(double m, double sx, double sx2, double sx3,
                          double sx4, double sy, double sxy, double sx2y,
                          double sy2) {
  QuadraticFit fit;
  if (m <= 0.5) return fit;
  if (m < 1.5) {
    fit.c0 = sy / m;
    fit.ssr = 0.0;
    return fit;
  }
  if (m < 2.5) {
    const double sxx = sx2 - sx * sx / m;
    if (sxx > 1e-12) {
      fit.c1 = (sxy - sx * sy / m) / sxx;
      fit.c0 = (sy - fit.c1 * sx) / m;
      fit.ssr = 0.0;
      return fit;
    }
    fit.c0 = sy / m;
    fit.ssr = std::fmax(0.0, sy2 - sy * sy / m);
    return fit;
  }
  double g[3][3] = {{m, sx, sx2}, {sx, sx2, sx3}, {sx2, sx3, sx4}};
  double b[3] = {sy, sxy, sx2y};
  double c[3] = {0, 0, 0};
  if (!ReferenceSolve3x3(g, b, c)) {
    const double sxx = sx2 - sx * sx / m;
    if (sxx > 1e-12) {
      fit.c1 = (sxy - sx * sy / m) / sxx;
      fit.c0 = (sy - fit.c1 * sx) / m;
      const double syy = std::fmax(0.0, sy2 - sy * sy / m);
      const double sxy_c = sxy - sx * sy / m;
      fit.ssr = std::fmax(0.0, syy - sxy_c * sxy_c / sxx);
    } else {
      fit.c0 = sy / m;
      fit.ssr = std::fmax(0.0, sy2 - sy * sy / m);
    }
    return fit;
  }
  fit.c0 = c[0];
  fit.c1 = c[1];
  fit.c2 = c[2];
  fit.ssr = std::fmax(0.0, sy2 - (c[0] * sy + c[1] * sxy + c[2] * sx2y));
  return fit;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

struct Moments {
  double m = 0, sx = 0, sx2 = 0, sx3 = 0, sx4 = 0;
  double sy = 0, sxy = 0, sx2y = 0, sy2 = 0;
};

Moments MomentsOf(const std::vector<double>& xs,
                  const std::vector<double>& ys) {
  Moments mo;
  mo.m = static_cast<double>(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i], y = ys[i];
    mo.sx += x;
    mo.sx2 += x * x;
    mo.sx3 += x * x * x;
    mo.sx4 += x * x * x * x;
    mo.sy += y;
    mo.sxy += x * y;
    mo.sx2y += x * x * y;
    mo.sy2 += y * y;
  }
  return mo;
}

// Checks FitQuadraticFromMoments, a reused design's Fit() and its Ssr()
// against the reference, comparing bit patterns.
void ExpectFitBitsMatchReference(const QuadraticDesign& design,
                                 const Moments& mo, const char* label) {
  const QuadraticFit want = ReferenceFit(mo.m, mo.sx, mo.sx2, mo.sx3, mo.sx4,
                                         mo.sy, mo.sxy, mo.sx2y, mo.sy2);
  const QuadraticFit fresh =
      FitQuadraticFromMoments(mo.m, mo.sx, mo.sx2, mo.sx3, mo.sx4, mo.sy,
                              mo.sxy, mo.sx2y, mo.sy2);
  const QuadraticFit reused = design.Fit(mo.sy, mo.sxy, mo.sx2y, mo.sy2);
  for (const QuadraticFit* got : {&fresh, &reused}) {
    ASSERT_EQ(Bits(got->c0), Bits(want.c0)) << label << " m=" << mo.m;
    ASSERT_EQ(Bits(got->c1), Bits(want.c1)) << label << " m=" << mo.m;
    ASSERT_EQ(Bits(got->c2), Bits(want.c2)) << label << " m=" << mo.m;
    ASSERT_EQ(Bits(got->ssr), Bits(want.ssr)) << label << " m=" << mo.m;
  }
  ASSERT_EQ(Bits(design.Ssr(mo.sy, mo.sxy, mo.sx2y, mo.sy2)), Bits(want.ssr))
      << label << " m=" << mo.m;
}

// SAP2's x's are 1..m; one design per m serves every y sample: random
// y's (consistent moments) and raw random y moments (arbitrary ones).
TEST(QuadraticFitTest, FactoredFitIsBitIdenticalToElimination) {
  Rng rng(2024);
  for (int64_t m = 1; m <= 4096; ++m) {
    const double md = static_cast<double>(m);
    const QuadraticDesign design(md, PrefixStats::SumT(1, m),
                                 PrefixStats::SumT2(1, m),
                                 PrefixStats::SumT3(1, m),
                                 PrefixStats::SumT4(1, m));
    std::vector<double> xs(static_cast<size_t>(m));
    std::vector<double> ys(static_cast<size_t>(m));
    for (int64_t t = 0; t < m; ++t) {
      xs[static_cast<size_t>(t)] = static_cast<double>(t + 1);
      ys[static_cast<size_t>(t)] =
          static_cast<double>(rng.NextInt(0, 1 << 20));
    }
    Moments sampled = MomentsOf(xs, ys);
    sampled.sx = PrefixStats::SumT(1, m);
    sampled.sx2 = PrefixStats::SumT2(1, m);
    sampled.sx3 = PrefixStats::SumT3(1, m);
    sampled.sx4 = PrefixStats::SumT4(1, m);
    ExpectFitBitsMatchReference(design, sampled, "sampled");
    Moments raw = sampled;
    raw.sy = rng.NextDouble(-1e9, 1e9);
    raw.sxy = rng.NextDouble(-1e12, 1e12);
    raw.sx2y = rng.NextDouble(-1e15, 1e15);
    raw.sy2 = rng.NextDouble(0.0, 1e18);
    ExpectFitBitsMatchReference(design, raw, "raw");
  }
}

// The fallbacks taken without a full-rank Gram matrix: x's with only two
// distinct values (x² is then affine in x, so the matrix is singular and
// the fit falls back to the line), a single repeated x (constant with a
// residual), and the m <= 2 shapes.
TEST(QuadraticFitTest, SingularAndSmallFallbacksAreBitIdentical) {
  Rng rng(77);
  for (int m = 3; m <= 64; ++m) {
    std::vector<double> two(static_cast<size_t>(m)), one(static_cast<size_t>(m));
    std::vector<double> ys(static_cast<size_t>(m));
    for (int t = 0; t < m; ++t) {
      two[static_cast<size_t>(t)] = (t % 3 == 0) ? 2.0 : 5.0;
      one[static_cast<size_t>(t)] = 4.0;
      ys[static_cast<size_t>(t)] = rng.NextDouble(-50.0, 50.0);
    }
    const Moments line = MomentsOf(two, ys);
    const QuadraticDesign line_design(line.m, line.sx, line.sx2, line.sx3,
                                      line.sx4);
    ExpectFitBitsMatchReference(line_design, line, "two-values");
    // The fallback really is the least-squares line.
    const QuadraticFit fit = line_design.Fit(line.sy, line.sxy, line.sx2y,
                                             line.sy2);
    EXPECT_EQ(fit.c2, 0.0) << "m=" << m;
    EXPECT_NE(fit.c1, 0.0) << "m=" << m;
    EXPECT_GT(fit.ssr, 0.0) << "m=" << m;

    const Moments flat = MomentsOf(one, ys);
    const QuadraticDesign flat_design(flat.m, flat.sx, flat.sx2, flat.sx3,
                                      flat.sx4);
    ExpectFitBitsMatchReference(flat_design, flat, "one-value");
    EXPECT_EQ(flat_design.Fit(flat.sy, flat.sxy, flat.sx2y, flat.sy2).c1,
              0.0);
  }
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      small = {{{3.0}, {7.0}},
               {{1.0, 3.0}, {2.0, 8.0}},
               {{2.0, 2.0}, {1.0, 6.0}}};
  for (const auto& [xs, ys] : small) {
    const Moments mo = MomentsOf(xs, ys);
    ExpectFitBitsMatchReference(
        QuadraticDesign(mo.m, mo.sx, mo.sx2, mo.sx3, mo.sx4), mo, "small");
  }
  const Moments empty;
  ExpectFitBitsMatchReference(QuadraticDesign(0.0, 0.0, 0.0, 0.0, 0.0), empty,
                              "empty");
}

class Sap2PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Sap2PropertyTest, CostSumEqualsHistogramSse) {
  const int64_t n = 20;
  const std::vector<int64_t> data = RandomData(n, GetParam());
  PrefixStats stats(data);
  BucketCosts costs(stats);
  const std::vector<std::vector<int64_t>> partitions = {
      {20}, {10, 20}, {5, 10, 15, 20}, {1, 2, 20}};
  for (const auto& ends : partitions) {
    auto partition = Partition::FromEnds(n, ends);
    ASSERT_TRUE(partition.ok());
    double cost_sum = 0.0;
    for (int64_t k = 0; k < partition->num_buckets(); ++k) {
      cost_sum += costs.Sap2Cost(partition->bucket_start(k),
                                 partition->bucket_end(k));
    }
    auto hist = Sap2Histogram::Build(data, partition.value());
    ASSERT_TRUE(hist.ok());
    auto sse = AllRangesSse(data, *hist->Compile().value());
    ASSERT_TRUE(sse.ok());
    EXPECT_NEAR(cost_sum, sse.value(), 1e-5 * (1.0 + sse.value()));
  }
}

TEST_P(Sap2PropertyTest, NeverWorseThanSap1OnSameBoundaries) {
  const std::vector<int64_t> data = RandomData(18, GetParam() + 9);
  auto p = Partition::FromEnds(18, {6, 12, 18});
  ASSERT_TRUE(p.ok());
  auto h1 = Sap1Histogram::Build(data, p.value());
  auto h2 = Sap2Histogram::Build(data, p.value());
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  auto sse1 = AllRangesSse(data, *h1->Compile().value());
  auto sse2 = AllRangesSse(data, *h2->Compile().value());
  ASSERT_TRUE(sse1.ok());
  ASSERT_TRUE(sse2.ok());
  // The quadratic model class contains the linear one.
  EXPECT_LE(sse2.value(), sse1.value() + 1e-6);
}

TEST_P(Sap2PropertyTest, BuildIsRangeOptimalForItsRepresentation) {
  const std::vector<int64_t> data = RandomData(8, GetParam() + 21);
  for (int64_t b = 1; b <= 3; ++b) {
    auto built = BuildSap2(data, b);
    ASSERT_TRUE(built.ok());
    auto built_sse = AllRangesSse(data, *built->Compile().value());
    ASSERT_TRUE(built_sse.ok());
    for (int64_t k = 1; k <= b; ++k) {
      ForEachPartition(8, k, [&](const Partition& p) {
        auto alt = Sap2Histogram::Build(data, p);
        ASSERT_TRUE(alt.ok());
        auto alt_sse = AllRangesSse(data, *alt->Compile().value());
        ASSERT_TRUE(alt_sse.ok());
        EXPECT_GE(alt_sse.value(), built_sse.value() - 1e-6);
      });
    }
  }
}

TEST_P(Sap2PropertyTest, FromSummariesRecoversAverages) {
  const std::vector<int64_t> data = RandomData(16, GetParam() + 33);
  auto p = Partition::FromEnds(16, {4, 9, 16});
  ASSERT_TRUE(p.ok());
  auto built = Sap2Histogram::Build(data, p.value());
  ASSERT_TRUE(built.ok());
  const auto built_flat = built->Compile().value();
  auto rebuilt = Sap2Histogram::FromSummaries(
      p.value(), built->suffix_models(), built->prefix_models());
  ASSERT_TRUE(rebuilt.ok());
  const auto rebuilt_flat = rebuilt->Compile().value();
  for (size_t k = 0; k < built->averages().size(); ++k) {
    EXPECT_NEAR(rebuilt->averages()[k], built->averages()[k], 1e-6)
        << "bucket " << k;
  }
  // And the full answering behavior matches.
  for (int64_t a = 1; a <= 16; a += 2) {
    for (int64_t b = a; b <= 16; b += 3) {
      EXPECT_NEAR(rebuilt_flat->EstimateOne(a, b),
                  built_flat->EstimateOne(a, b),
                  1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sap2PropertyTest,
                         ::testing::Values(2, 7, 19, 40));

TEST(Sap2Test, StorageIsSevenWordsPerBucket) {
  const std::vector<int64_t> data = RandomData(14, 3);
  auto h = BuildSap2(data, 2);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->StorageWords(), 14);
}

TEST(Sap2Test, QuadraticSuffixDataIsExactlyRepresentable) {
  // A[i] linear in i makes suffix sums quadratic in the piece length, so
  // a single SAP2 bucket answers every inter-piece query exactly; with
  // one bucket everything is intra, so make two buckets and check the
  // suffix/prefix pieces.
  std::vector<int64_t> data(16);
  for (int64_t i = 0; i < 16; ++i) data[static_cast<size_t>(i)] = 2 * i + 1;
  auto p = Partition::FromEnds(16, {8, 16});
  ASSERT_TRUE(p.ok());
  auto h = Sap2Histogram::Build(data, p.value());
  ASSERT_TRUE(h.ok());
  const auto h_flat = h->Compile().value();
  PrefixStats stats(data);
  // Inter-bucket queries are exact: both partial pieces are quadratic in
  // their lengths and the quadratic fit interpolates them exactly.
  for (int64_t a = 1; a <= 8; ++a) {
    for (int64_t b = 9; b <= 16; ++b) {
      EXPECT_NEAR(h_flat->EstimateOne(a, b),
                  static_cast<double>(stats.Sum(a, b)), 1e-6)
          << "[" << a << "," << b << "]";
    }
  }
}

}  // namespace
}  // namespace rangesyn
