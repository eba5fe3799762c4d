#include "engine/query_ops.h"

#include <algorithm>
#include <cmath>

#include "core/strings.h"
#include "obs/obs.h"

namespace rangesyn {
namespace {

double PrefixEstimate(const FlatSynopsis& synopsis, int64_t x) {
  return x < 1 ? 0.0 : synopsis.EstimateOne(1, x);
}

double ClampedPoint(const FlatSynopsis& synopsis, int64_t i) {
  return std::fmax(0.0, synopsis.EstimateOne(i, i));
}

}  // namespace

Result<int64_t> EstimateQuantilePosition(const FlatSynopsis& synopsis,
                                         double q) {
  if (!(q > 0.0 && q < 1.0)) {
    return InvalidArgumentError("EstimateQuantilePosition: q in (0,1)");
  }
  const int64_t n = synopsis.n();
  const double total = PrefixEstimate(synopsis, n);
  if (total <= 0.0) {
    return FailedPreconditionError(
        "EstimateQuantilePosition: estimated total mass is not positive");
  }
  const double target = q * total;
  // Binary search; exact for monotone prefix estimates (all histograms).
  // Probes are counted locally and flushed once per call.
  uint64_t probes = 1;  // the total-mass probe above
  int64_t lo = 1, hi = n;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    ++probes;
    if (PrefixEstimate(synopsis, mid) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // Local refinement for mildly non-monotone estimators (wavelet
  // reconstructions can dip): walk left while the inequality still holds,
  // right if it does not.
  while (lo > 1 && (++probes, PrefixEstimate(synopsis, lo - 1) >= target)) {
    --lo;
  }
  while (lo < n && (++probes, PrefixEstimate(synopsis, lo) < target)) {
    ++lo;
  }
  RANGESYN_OBS_COUNTER_ADD("engine.query.count", probes);
  RANGESYN_OBS_COUNTER_INC("engine.query.quantile_searches");
  return lo;
}

Result<double> EstimateEquiJoinSize(const FlatSynopsis& r,
                                    const FlatSynopsis& s) {
  const int64_t n = std::min(r.n(), s.n());
  if (n < 1) return InvalidArgumentError("EstimateEquiJoinSize: empty");
  RANGESYN_OBS_SPAN("engine.query.join");
  double join = 0.0;
  for (int64_t v = 1; v <= n; ++v) {
    join += ClampedPoint(r, v) * ClampedPoint(s, v);
  }
  RANGESYN_OBS_COUNTER_ADD("engine.query.count",
                           2 * static_cast<uint64_t>(n));
  return join;
}

Result<double> ExactEquiJoinSize(const std::vector<int64_t>& r,
                                 const std::vector<int64_t>& s) {
  if (r.empty() || s.empty()) {
    return InvalidArgumentError("ExactEquiJoinSize: empty input");
  }
  const size_t n = std::min(r.size(), s.size());
  double join = 0.0;
  for (size_t v = 0; v < n; ++v) {
    join += static_cast<double>(r[v]) * static_cast<double>(s[v]);
  }
  return join;
}

Result<double> EstimateSelfJoinSize(const FlatSynopsis& synopsis) {
  return EstimateEquiJoinSize(synopsis, synopsis);
}

}  // namespace rangesyn
