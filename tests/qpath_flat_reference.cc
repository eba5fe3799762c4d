#include "qpath_flat_reference.h"

#include <algorithm>

#include "core/mathutil.h"

namespace rangesyn {

double ReferenceReconstructAt(std::span<const double> heights,
                              std::span<const double> table, int64_t padded,
                              int64_t t) {
  double v = 0.0;
  v += table[0] * heights[0];
  const int64_t levels = FloorLog2(static_cast<uint64_t>(padded));
  int64_t j = 0;
  for (int64_t shift = levels; shift > 0; --shift, ++j) {
    const int64_t base = padded >> shift;
    const int64_t k = base + (t >> shift);
    const int64_t start = (k - base) << shift;
    const int64_t mid = start + (int64_t{1} << (shift - 1));
    const double h = heights[j];
    v += table[k] * (t < mid ? h : -h);
  }
  return v;
}

double ReferenceRangeSum(std::span<const double> heights,
                         std::span<const double> table, int64_t padded,
                         int64_t lo, int64_t hi) {
  double v = 0.0;
  v += table[0] * (static_cast<double>(hi - lo + 1) * heights[0]);
  const int64_t levels = FloorLog2(static_cast<uint64_t>(padded));
  int64_t j = 0;
  for (int64_t shift = levels; shift > 0; --shift, ++j) {
    const int64_t base = padded >> shift;
    const int64_t level_size = int64_t{1} << shift;
    const int64_t a_lo = base + (lo >> shift);
    const int64_t a_hi = base + (hi >> shift);
    const double h = heights[j];
    {
      const int64_t start = (a_lo - base) << shift;
      const int64_t s_lo = std::max(lo, start);
      const int64_t s_hi = std::min(hi, start + level_size - 1);
      const int64_t mid = start + (level_size >> 1);
      const int64_t plus =
          std::max<int64_t>(0, std::min(s_hi, mid - 1) - s_lo + 1);
      const int64_t minus =
          std::max<int64_t>(0, s_hi - std::max(s_lo, mid) + 1);
      v += table[a_lo] * (static_cast<double>(plus - minus) * h);
    }
    if (a_hi != a_lo) {
      const int64_t start = (a_hi - base) << shift;
      const int64_t s_lo = std::max(lo, start);
      const int64_t s_hi = std::min(hi, start + level_size - 1);
      const int64_t mid = start + (level_size >> 1);
      const int64_t plus =
          std::max<int64_t>(0, std::min(s_hi, mid - 1) - s_lo + 1);
      const int64_t minus =
          std::max<int64_t>(0, s_hi - std::max(s_lo, mid) + 1);
      v += table[a_hi] * (static_cast<double>(plus - minus) * h);
    }
  }
  return v;
}

}  // namespace rangesyn
