#ifndef RANGESYN_TESTS_QPATH_FLAT_REFERENCE_H_
#define RANGESYN_TESTS_QPATH_FLAT_REFERENCE_H_

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "histogram/histogram.h"
#include "histogram/weighted_sap0.h"
#include "wavelet/synopsis.h"

namespace rangesyn {

// Reference copies of the flat Haar walks as they stood before the
// branch-free rewrite: a `t < mid ? h : -h` select per level in the
// prefix domain, and per-level max/min span clamps plus an
// `a_hi != a_lo` test in the data domain. The flat kernels must agree
// with them as 64-bit patterns, whatever the table holds.
//
// When two NaNs meet, which one an add or multiply returns depends on
// the operand order the compiler emits. So the copies keep the old
// statements verbatim, and they live in their own translation unit,
// which tests/CMakeLists.txt compiles at -O2 in every optimized build:
// inlined into the test's sweep loops, GCC 12 at -O3 returned the other
// NaN on NaN-salted tables, and at -O0 GCC emits `v += x` differently
// when `v` is reached through a lambda capture.

/// P[t] by the branchy prefix-domain walk.
double ReferenceReconstructAt(std::span<const double> heights,
                              std::span<const double> table, int64_t padded,
                              int64_t t);

/// The sum over 0-based [lo, hi] by the branchy data-domain walk.
double ReferenceRangeSum(std::span<const double> heights,
                         std::span<const double> table, int64_t padded,
                         int64_t lo, int64_t hi);

/// The answer each builder's record gave to a range before the flat view
/// became the library's only query path, computed from the record's own
/// fields and sharing no code with the flat kernels:
///   - histograms and naive: the records' EstimateRange bodies, word for
///     word, with Partition::BucketOf as the bucket search and the middle
///     from a cumulative mass built bucket by bucket;
///   - wavelets: the walks above over a dense table scattered from the
///     record's coefficients, P[b] - P[a-1] in the prefix domain.
/// The same NaN caveat applies, hence the same translation unit.
class LegacyReference {
 public:
  explicit LegacyReference(const AvgHistogram& h);
  explicit LegacyReference(const Sap0Histogram& h);
  explicit LegacyReference(const WeightedSap0Histogram& h);
  explicit LegacyReference(const Sap1Histogram& h);
  explicit LegacyReference(const Sap2Histogram& h);
  explicit LegacyReference(const NaiveEstimator& e);
  explicit LegacyReference(const WaveletSynopsis& w);

  /// s[a,b] as the record answered it. Requires 1 <= a <= b <= n.
  double EstimateRange(int64_t a, int64_t b) const;

 private:
  double MiddleMass(int64_t ka, int64_t kb) const {
    return cum_mass_[static_cast<size_t>(kb)] -
           cum_mass_[static_cast<size_t>(ka + 1)];
  }
  double Estimate(const AvgHistogram& h, int64_t a, int64_t b) const;
  double Estimate(const Sap0Histogram& h, int64_t a, int64_t b) const;
  double Estimate(const WeightedSap0Histogram& h, int64_t a,
                  int64_t b) const;
  double Estimate(const Sap1Histogram& h, int64_t a, int64_t b) const;
  double Estimate(const Sap2Histogram& h, int64_t a, int64_t b) const;
  double Estimate(const NaiveEstimator& e, int64_t a, int64_t b) const;
  double Estimate(const WaveletSynopsis& w, int64_t a, int64_t b) const;

  std::variant<AvgHistogram, Sap0Histogram, WeightedSap0Histogram,
               Sap1Histogram, Sap2Histogram, NaiveEstimator, WaveletSynopsis>
      record_;
  // Histograms: cum_mass_[k] = sum over buckets j < k of width_j * mass_j.
  std::vector<double> cum_mass_;
  // Wavelets: per-level basis heights and the dense coefficient table.
  std::vector<double> heights_;
  std::vector<double> table_;
};

}  // namespace rangesyn

#endif  // RANGESYN_TESTS_QPATH_FLAT_REFERENCE_H_
