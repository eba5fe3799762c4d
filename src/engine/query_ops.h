#ifndef RANGESYN_ENGINE_QUERY_OPS_H_
#define RANGESYN_ENGINE_QUERY_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/result.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// Higher-level query estimates derived from range-sum synopses — the
/// operations a query optimizer or AQP layer actually asks for, layered
/// on the paper's primitives.

/// Estimated position of the `q`-quantile (0 < q < 1): the smallest
/// 1-based position x whose estimated prefix mass reaches q * (estimated
/// total mass). Found by binary search on the estimated prefix function;
/// for synopses whose prefix estimates are non-monotone (wavelets can
/// locally dip) the result is refined by a local scan, so the returned
/// position always satisfies the defining inequality against the
/// synopsis' own estimates.
RANGESYN_HOT_PATH Result<int64_t> EstimateQuantilePosition(
    const FlatSynopsis& synopsis, double q);

/// Estimated equi-join size |R join S on value| = Σ_v f_R(v) * f_S(v),
/// computed from the two synopses' point estimates over the shared
/// 1..min(nR, nS) domain. Point estimates below zero are clamped (counts
/// cannot be negative). O(n log B).
RANGESYN_HOT_PATH Result<double> EstimateEquiJoinSize(const FlatSynopsis& r,
                                                      const FlatSynopsis& s);

/// Exact join size from two frequency vectors (the oracle the estimate is
/// judged against in tests/benchmarks).
Result<double> ExactEquiJoinSize(const std::vector<int64_t>& r,
                                 const std::vector<int64_t>& s);

/// Estimated self-join size Σ_v f(v)² — the classical "second frequency
/// moment" that drives skew detection.
RANGESYN_HOT_PATH Result<double> EstimateSelfJoinSize(
    const FlatSynopsis& synopsis);

}  // namespace rangesyn

#endif  // RANGESYN_ENGINE_QUERY_OPS_H_
