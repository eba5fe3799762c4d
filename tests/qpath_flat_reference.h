#ifndef RANGESYN_TESTS_QPATH_FLAT_REFERENCE_H_
#define RANGESYN_TESTS_QPATH_FLAT_REFERENCE_H_

#include <cstdint>
#include <span>

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

}  // namespace rangesyn

#endif  // RANGESYN_TESTS_QPATH_FLAT_REFERENCE_H_
