#ifndef RANGESYN_EVAL_METRICS_H_
#define RANGESYN_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "data/workload.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// Aggregate error statistics of a synopsis over a query workload.
struct ErrorStats {
  double sse = 0.0;       // sum of squared errors (the paper's metric)
  double mean_sq = 0.0;   // sse / count
  double rmse = 0.0;      // sqrt(mean_sq)
  double max_abs = 0.0;   // worst absolute error
  double mean_abs = 0.0;  // average absolute error
  double max_rel = 0.0;   // worst |err| / max(1, true value)
  int64_t count = 0;      // number of queries evaluated
};

/// Evaluates `synopsis` on an explicit workload against exact answers
/// computed from `data`. Queries must satisfy 1 <= a <= b <= n.
Result<ErrorStats> EvaluateOnWorkload(const std::vector<int64_t>& data,
                                      const FlatSynopsis& synopsis,
                                      const std::vector<RangeQuery>& queries);

/// SSE over all n(n+1)/2 ranges — the objective every construction in the
/// paper is measured by (Figure 1's y-axis).
Result<double> AllRangesSse(const std::vector<int64_t>& data,
                            const FlatSynopsis& synopsis);

/// Full statistics over all ranges.
Result<ErrorStats> AllRangesStats(const std::vector<int64_t>& data,
                                  const FlatSynopsis& synopsis);

/// SSE over the n point (equality) queries.
Result<double> PointQuerySse(const std::vector<int64_t>& data,
                             const FlatSynopsis& synopsis);

}  // namespace rangesyn

#endif  // RANGESYN_EVAL_METRICS_H_
