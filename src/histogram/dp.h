#ifndef RANGESYN_HISTOGRAM_DP_H_
#define RANGESYN_HISTOGRAM_DP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/deadline.h"
#include "core/result.h"
#include "histogram/partition.h"

namespace rangesyn {

/// Additive bucket cost oracle: cost of making [l, r] (1-based, inclusive)
/// one bucket. Must be defined for all 1 <= l <= r <= n. The DP runs
/// serially on the calling thread, and its table fill invokes the oracle
/// exactly once per pair (l, r), n(n+1)/2 calls in all, whatever the
/// bucket budget (RANGESYN_AUDIT builds then re-sum the chosen buckets).
using BucketCostFn = std::function<double(int64_t l, int64_t r)>;

/// Result of an interval-partition dynamic program.
struct IntervalDpResult {
  Partition partition = Partition::Whole(1);
  double cost = 0.0;
  int64_t buckets_used = 0;
};

/// Finds the partition of 1..n into at most `max_buckets` contiguous
/// buckets minimizing the sum of bucket costs, by the classical O(n^2 * B)
/// dynamic program (the engine behind SAP0/SAP1/SAP2/A0/POINT-OPT
/// construction, and behind V-optimal [6]). The fill is serial.
///
/// Layout: the best-cost and split-point tables are stored row-major by
/// end index i (rows 0..n, each B+2 cells wide: bucket counts 0..B and one
/// spare), one contiguous block each, as doubles and int32 split points:
/// (B+2)(n+1)·12 bytes. For each i the fill walks the split j ascending and
/// updates every bucket count at once, two counts per packed vector, with
/// a strict '<' so that ties go to the lowest boundary; the answers are
/// bit-identical to the textbook k-outermost fill.
///
/// With RANGESYN_STATS, each solve adds to `histogram.dp.cells` the number
/// of (k, i) cells filled, sum over i of min(B, i), and to
/// `histogram.dp.transitions` the number of (k, i, j) candidates with
/// j >= k-1 whose predecessor best(k-1, j) is finite — the counts of the
/// textbook fill, which skips infeasible predecessors.
///
/// When `exact_buckets` is true the partition must use exactly
/// `max_buckets` buckets (requires max_buckets <= n).
///
/// n must be below 2^31 - 1 (the split points are int32); larger n, like
/// n < 1 or max_buckets < 1, is InvalidArgument before any allocation.
///
/// `deadline` is checked before the fill and once per block of 32 end
/// indices; an expired deadline aborts the solve with DeadlineExceeded
/// (the default Deadline never expires and adds no clock reads).
RANGESYN_CANCELLABLE RANGESYN_DETERMINISTIC Result<IntervalDpResult>
SolveIntervalDp(int64_t n, int64_t max_buckets, const BucketCostFn& cost,
                bool exact_buckets = false,
                const Deadline& deadline = Deadline());

/// As above but returns, for every k in 1..max_buckets, the optimal
/// exactly-k-bucket solution. Used by storage-sweep experiments to avoid
/// recomputing the DP table per budget.
RANGESYN_CANCELLABLE RANGESYN_DETERMINISTIC
Result<std::vector<IntervalDpResult>> SolveIntervalDpAllK(
    int64_t n, int64_t max_buckets, const BucketCostFn& cost,
    const Deadline& deadline = Deadline());

}  // namespace rangesyn

#endif  // RANGESYN_HISTOGRAM_DP_H_
