#ifndef RANGESYN_HISTOGRAM_QUADRATIC_FIT_H_
#define RANGESYN_HISTOGRAM_QUADRATIC_FIT_H_

#include <cmath>
#include <cstdint>

namespace rangesyn {

/// Least-squares fit y ≈ c0 + c1·x + c2·x² from the raw moments of the
/// sample — the primitive behind the SAP2 histogram's O(1) bucket costs.
/// All moments are over the same m >= 1 points.
struct QuadraticFit {
  double c0 = 0.0;
  double c1 = 0.0;
  double c2 = 0.0;
  /// Residual sum of squares of the fit (>= 0, clamped).
  double ssr = 0.0;

  double At(double x) const { return c0 + c1 * x + c2 * x * x; }
};

/// The x-side of a quadratic least-squares fit, factored once. The Gram
/// matrix [[m, Σx, Σx²], [Σx, Σx², Σx³], [Σx², Σx³, Σx⁴]] and the choice
/// of fallback depend on the x moments alone, so a design is built once
/// (one pivoted Gaussian elimination, recording its pivot order, its three
/// row multipliers and the final upper-triangular rows) and then fits any
/// number of y samples. Fit() replays the elimination's right-hand-side
/// updates and back substitution with the same operations in the same
/// order, so its results are bit-identical to eliminating afresh. SAP2's
/// bucket costs keep one design per bucket length (the x's of a bucket's
/// suffix and prefix regressions are always 1..m).
class QuadraticDesign {
 public:
  /// Σ1 = m, Σx, Σx², Σx³, Σx⁴ of the sample's x values.
  QuadraticDesign(double m, double sx, double sx2, double sx3, double sx4);

  /// The fit for y moments Σy, Σxy, Σx²y, Σy² over the same points.
  /// Degenerate sample sizes (m <= 2, or collinear moments) gracefully
  /// fall back to the exact lower-degree interpolant with ssr = 0 when the
  /// data admits one.
  QuadraticFit Fit(double sy, double sxy, double sx2y, double sy2) const;

  /// Fit(sy, sxy, sx2y, sy2).ssr, with the full-rank path inline.
  double Ssr(double sy, double sxy, double sx2y, double sy2) const {
    if (kind_ != Kind::kQuadratic) return Fit(sy, sxy, sx2y, sy2).ssr;
    double c[3];
    Solve(sy, sxy, sx2y, c);
    return FullRankSsr(c, sy, sxy, sx2y, sy2);
  }

 private:
  enum class Kind : uint8_t { kEmpty, kConstant, kLinear, kQuadratic };

  /// One elimination step: b[target] -= factor * b[source].
  struct RowUpdate {
    double factor = 0.0;
    uint8_t target = 0;
    uint8_t source = 0;
  };

  /// Runs the pivoted elimination on the Gram matrix and records it;
  /// false when (numerically) singular.
  bool Eliminate(double sx2, double sx3, double sx4);

  /// Full-rank solve G c = (sy, sxy, sx2y): the recorded row updates, then
  /// back substitution through the recorded U rows in pivot order.
  void Solve(double sy, double sxy, double sx2y, double c[3]) const {
    double b[3] = {sy, sxy, sx2y};
    for (const RowUpdate& step : steps_) {
      b[step.target] -= step.factor * b[step.source];
    }
    c[2] = b[perm_[2]] / u_[2][2];
    c[1] = (b[perm_[1]] - u_[1][2] * c[2]) / u_[1][1];
    double acc = b[perm_[0]];
    acc -= u_[0][1] * c[1];
    acc -= u_[0][2] * c[2];
    c[0] = acc / u_[0][0];
  }

  /// SSR = y'y - c'X'y for least squares.
  static double FullRankSsr(const double c[3], double sy, double sxy,
                            double sx2y, double sy2) {
    return std::fmax(0.0, sy2 - (c[0] * sy + c[1] * sxy + c[2] * sx2y));
  }

  Kind kind_ = Kind::kEmpty;
  /// The fallback fits are exact interpolants (ssr = 0): one point, or
  /// two points with distinct x.
  bool interpolates_ = false;
  double m_ = 0.0;
  double sx_ = 0.0;
  /// Σ(x - x̄)², the linear fallback's denominator.
  double sxx_ = 0.0;
  RowUpdate steps_[3];
  uint8_t perm_[3] = {0, 1, 2};
  /// u_[r][c] (c >= r) is row perm_[r] of the eliminated Gram matrix.
  double u_[3][3] = {};
};

/// Computes the fit from Σ1=m, Σx, Σx², Σx³, Σx⁴, Σy, Σxy, Σx²y, Σy²:
/// QuadraticDesign(m, sx, sx2, sx3, sx4).Fit(sy, sxy, sx2y, sy2).
QuadraticFit FitQuadraticFromMoments(double m, double sx, double sx2,
                                     double sx3, double sx4, double sy,
                                     double sxy, double sx2y, double sy2);

}  // namespace rangesyn

#endif  // RANGESYN_HISTOGRAM_QUADRATIC_FIT_H_
