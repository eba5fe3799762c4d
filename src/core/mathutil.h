#ifndef RANGESYN_CORE_MATHUTIL_H_
#define RANGESYN_CORE_MATHUTIL_H_

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/logging.h"

namespace rangesyn {

/// Rounds to the nearest integer with ties broken toward even
/// (banker's rounding). This is the deterministic instantiation of the
/// paper's "round to a nearby integer in an arbitrary way".
///
/// Same result as std::nearbyint under the default FE_TONEAREST mode,
/// without the libm call. For |x| < 2^52, adding 2^52 leaves no fraction
/// bits, so the add itself rounds |x| to an integer, ties to even, and
/// the subtraction is exact; copysign restores the sign (and -0.0). Any
/// |x| >= 2^52 is already an integer, as are infinities; NaN passes
/// through. The expression must not be reassociated, which holds since
/// no build enables -ffast-math.
inline int64_t RoundHalfToEven(double x) {
  constexpr double kTwo52 = 4503599627370496.0;  // 2^52
  const double mag = std::fabs(x);
  const double r =
      mag < kTwo52 ? std::copysign((mag + kTwo52) - kTwo52, x) : x;
  return static_cast<int64_t>(r);
}

/// Rounds to the nearest integer, ties away from zero.
inline int64_t RoundHalfAway(double x) {
  return static_cast<int64_t>(std::llround(x));
}

/// True iff `x` is a power of two (x > 0).
inline bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x >= 1).
inline uint64_t NextPowerOfTwo(uint64_t x) {
  if (x <= 1) return 1;
  uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// Floor of log2(x) for x >= 1 (DCHECK'd). FloorLog2(0) has no
/// mathematical value; release builds return 0 so the result is at least
/// defined (`x | 1` has the bit width of x for every x >= 1, and 1 for
/// x = 0), debug/audit builds abort.
inline int FloorLog2(uint64_t x) {
  RANGESYN_DCHECK_GE(x, uint64_t{1});
  return static_cast<int>(std::bit_width(x | 1)) - 1;
}

/// Sum of 1..m as a double (avoids intermediate overflow for large m).
inline double TriangleNumber(int64_t m) {
  return 0.5 * static_cast<double>(m) * static_cast<double>(m + 1);
}

/// Number of distinct ranges (a,b), 1 <= a <= b <= n. Divides the even
/// factor first so the intermediate product cannot overflow int64_t unless
/// the result itself does (exact for all n up to ~4.29e9, vs ~3.03e9 for
/// the naive n*(n+1)/2).
inline int64_t NumRanges(int64_t n) {
  RANGESYN_DCHECK_GE(n, 0);
  return (n % 2 == 0) ? (n / 2) * (n + 1) : ((n + 1) / 2) * n;
}

/// Relative difference |a-b| / max(|a|,|b|,eps); symmetric, safe near zero.
inline double RelDiff(double a, double b, double eps = 1e-12) {
  const double scale = std::fmax(std::fmax(std::fabs(a), std::fabs(b)), eps);
  return std::fabs(a - b) / scale;
}

/// True iff `a` and `b` agree to relative tolerance `tol` (with an absolute
/// floor `abs_tol` so exact zeros compare equal to tiny values).
inline bool AlmostEqual(double a, double b, double tol = 1e-9,
                        double abs_tol = 1e-9) {
  return std::fabs(a - b) <= abs_tol + tol * std::fmax(std::fabs(a),
                                                       std::fabs(b));
}

}  // namespace rangesyn

#endif  // RANGESYN_CORE_MATHUTIL_H_
