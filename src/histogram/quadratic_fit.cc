#include "histogram/quadratic_fit.h"

#include <cmath>
#include <utility>

namespace rangesyn {

QuadraticDesign::QuadraticDesign(double m, double sx, double sx2, double sx3,
                                 double sx4)
    : m_(m), sx_(sx) {
  if (m <= 0.5) return;
  if (m < 1.5) {
    // One point: exact constant.
    kind_ = Kind::kConstant;
    interpolates_ = true;
    return;
  }
  sxx_ = sx2 - sx * sx / m;
  if (m < 2.5) {
    // Two points: exact line through both (Sxx > 0 unless x's coincide).
    interpolates_ = sxx_ > 1e-12;
    kind_ = interpolates_ ? Kind::kLinear : Kind::kConstant;
    return;
  }
  if (Eliminate(sx2, sx3, sx4)) {
    kind_ = Kind::kQuadratic;
    return;
  }
  // Fall back to the linear fit (x's nearly collinear in x² space).
  kind_ = sxx_ > 1e-12 ? Kind::kLinear : Kind::kConstant;
}

bool QuadraticDesign::Eliminate(double sx2, double sx3, double sx4) {
  // Gaussian elimination with partial pivoting on the symmetric Gram
  // matrix. Fit() replays the right-hand-side half of each row update.
  double g[3][3] = {{m_, sx_, sx2}, {sx_, sx2, sx3}, {sx2, sx3, sx4}};
  int perm[3] = {0, 1, 2};
  int step = 0;
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
      steps_[step++] = {f, static_cast<uint8_t>(perm[r]),
                        static_cast<uint8_t>(perm[col])};
    }
  }
  for (int r = 0; r < 3; ++r) {
    perm_[r] = static_cast<uint8_t>(perm[r]);
    for (int cc = r; cc < 3; ++cc) u_[r][cc] = g[perm[r]][cc];
  }
  return true;
}

QuadraticFit QuadraticDesign::Fit(double sy, double sxy, double sx2y,
                                  double sy2) const {
  QuadraticFit fit;
  switch (kind_) {
    case Kind::kEmpty:
      break;
    case Kind::kConstant:
      fit.c0 = sy / m_;
      if (!interpolates_) fit.ssr = std::fmax(0.0, sy2 - sy * sy / m_);
      break;
    case Kind::kLinear:
      fit.c1 = (sxy - sx_ * sy / m_) / sxx_;
      fit.c0 = (sy - fit.c1 * sx_) / m_;
      if (!interpolates_) {
        const double syy = std::fmax(0.0, sy2 - sy * sy / m_);
        const double sxy_c = sxy - sx_ * sy / m_;
        fit.ssr = std::fmax(0.0, syy - sxy_c * sxy_c / sxx_);
      }
      break;
    case Kind::kQuadratic: {
      double c[3];
      Solve(sy, sxy, sx2y, c);
      fit.c0 = c[0];
      fit.c1 = c[1];
      fit.c2 = c[2];
      fit.ssr = FullRankSsr(c, sy, sxy, sx2y, sy2);
      break;
    }
  }
  return fit;
}

QuadraticFit FitQuadraticFromMoments(double m, double sx, double sx2,
                                     double sx3, double sx4, double sy,
                                     double sxy, double sx2y, double sy2) {
  return QuadraticDesign(m, sx, sx2, sx3, sx4).Fit(sy, sxy, sx2y, sy2);
}

}  // namespace rangesyn
