#include "eval/metrics.h"

#include <cmath>

#include "core/analysis_annotations.h"
#include "core/strings.h"
#include "histogram/prefix_stats.h"
#include "obs/obs.h"

namespace rangesyn {
namespace {

/// One workload query: exact answer from the prefix oracle, estimate
/// from the synopsis, error folded into the running statistics. This is
/// the sweep's per-query inner step; the hot-path contract keeps it —
/// and the kernel it calls — allocation- and lock-free.
RANGESYN_HOT_PATH void AccumulateQueryError(const PrefixStats& stats,
                                            const FlatSynopsis& synopsis,
                                            const RangeQuery& q,
                                            ErrorStats& out) {
  const double truth = static_cast<double>(stats.Sum(q.a, q.b));
  const double est = synopsis.EstimateOne(q.a, q.b);
  const double err = truth - est;
  out.sse += err * err;
  out.max_abs = std::fmax(out.max_abs, std::fabs(err));
  out.mean_abs += std::fabs(err);
  out.max_rel = std::fmax(out.max_rel,
                          std::fabs(err) / std::fmax(1.0, truth));
  ++out.count;
}

/// Squared error of one range query, the O(n^2)-iteration inner step of
/// the all-ranges SSE scan.
RANGESYN_HOT_PATH double SquaredQueryError(const PrefixStats& stats,
                                           const FlatSynopsis& synopsis,
                                           int64_t a, int64_t b) {
  const double err = static_cast<double>(stats.Sum(a, b)) -
                     synopsis.EstimateOne(a, b);
  return err * err;
}

Status ValidateEvalInput(const std::vector<int64_t>& data,
                         const FlatSynopsis& synopsis) {
  if (data.empty()) return InvalidArgumentError("eval: empty data");
  if (synopsis.n() != static_cast<int64_t>(data.size())) {
    return InvalidArgumentError(
        StrCat("eval: synopsis domain ", synopsis.n(),
               " != data size ", data.size()));
  }
  return OkStatus();
}

}  // namespace

Result<ErrorStats> EvaluateOnWorkload(
    const std::vector<int64_t>& data, const FlatSynopsis& synopsis,
    const std::vector<RangeQuery>& queries) {
  RANGESYN_RETURN_IF_ERROR(ValidateEvalInput(data, synopsis));
  RANGESYN_OBS_SPAN("eval.workload");
  RANGESYN_OBS_COUNTER_ADD("engine.query.count", queries.size());
  PrefixStats stats(data);
  const int64_t n = stats.n();
  ErrorStats out;
  for (const RangeQuery& q : queries) {
    if (q.a < 1 || q.a > q.b || q.b > n) {
      return InvalidArgumentError(
          StrCat("eval: bad query [", q.a, ",", q.b, "] for n=", n));
    }
    AccumulateQueryError(stats, synopsis, q, out);
  }
  if (out.count > 0) {
    out.mean_sq = out.sse / static_cast<double>(out.count);
    out.rmse = std::sqrt(out.mean_sq);
    out.mean_abs /= static_cast<double>(out.count);
  }
  return out;
}

Result<double> AllRangesSse(const std::vector<int64_t>& data,
                            const FlatSynopsis& synopsis) {
  RANGESYN_RETURN_IF_ERROR(ValidateEvalInput(data, synopsis));
  RANGESYN_OBS_SPAN("eval.all_ranges_sse");
  PrefixStats stats(data);
  const int64_t n = stats.n();
  RANGESYN_OBS_COUNTER_ADD("engine.query.count",
                           static_cast<uint64_t>(n) *
                               static_cast<uint64_t>(n + 1) / 2);
  double sse = 0.0;
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      sse += SquaredQueryError(stats, synopsis, a, b);
    }
  }
  return sse;
}

Result<ErrorStats> AllRangesStats(const std::vector<int64_t>& data,
                                  const FlatSynopsis& synopsis) {
  return EvaluateOnWorkload(
      data, synopsis, AllRanges(static_cast<int64_t>(data.size())));
}

Result<double> PointQuerySse(const std::vector<int64_t>& data,
                             const FlatSynopsis& synopsis) {
  RANGESYN_ASSIGN_OR_RETURN(
      ErrorStats stats,
      EvaluateOnWorkload(data, synopsis,
                         PointQueries(static_cast<int64_t>(data.size()))));
  return stats.sse;
}

}  // namespace rangesyn
