#ifndef RANGESYN_AUDIT_ORACLES_H_
#define RANGESYN_AUDIT_ORACLES_H_

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "histogram/dp.h"
#include "histogram/partition.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace audit {

/// Brute-force reference implementations ("oracles") for the quantities
/// the production code computes with closed forms, prefix-sum algebra, and
/// dynamic programs. Every oracle here is deliberately naive — direct
/// summation and exhaustive enumeration, sharing no algebra with the code
/// under test — so agreement between the two is real evidence of
/// correctness rather than the same bug evaluated twice. Costs are
/// O(n²)..O(exponential); callers gate on small n.

/// Exact s[a,b] by direct summation (1-based, inclusive); no prefix sums.
int64_t NaiveRangeSum(const std::vector<int64_t>& data, int64_t a, int64_t b);

/// All-ranges SSE of `synopsis` over the n(n+1)/2 ranges, each true
/// answer recomputed by direct summation. O(n³) time.
Result<double> NaiveAllRangesSse(const std::vector<int64_t>& data,
                                 const FlatSynopsis& synopsis);

/// Weighted all-ranges SSE with product-form weights alpha[a-1]*beta[b-1].
Result<double> NaiveWeightedAllRangesSse(const std::vector<int64_t>& data,
                                         const FlatSynopsis& synopsis,
                                         const std::vector<double>& alpha,
                                         const std::vector<double>& beta);

/// Result of an exhaustive partition search.
struct NaivePartitionOpt {
  Partition partition = Partition::Whole(1);
  double cost = 0.0;
};

/// Minimum summed bucket cost over every partition of 1..n into exactly
/// `buckets` buckets, by enumerating all C(n-1, buckets-1) of them.
/// Refuses n > 20 (the enumeration would be astronomically slow).
Result<NaivePartitionOpt> NaiveMinCostPartition(int64_t n, int64_t buckets,
                                                const BucketCostFn& cost);

/// As above with "at most `buckets`" semantics (min over k = 1..buckets).
Result<NaivePartitionOpt> NaiveMinCostPartitionAtMost(
    int64_t n, int64_t buckets, const BucketCostFn& cost);

/// Minimum all-ranges SSE achievable by a prefix-domain Haar synopsis of
/// `data` retaining `budget` non-DC coefficients, found by enumerating
/// every C(padded-1, budget) coefficient subset and evaluating each
/// candidate synopsis with NaiveAllRangesSse. The exhaustive ground truth
/// for BuildWaveRangeOpt (paper Theorem 9). Refuses padded sizes > 16.
Result<double> NaiveBestPrefixWaveletSse(const std::vector<int64_t>& data,
                                         int64_t budget);

/// Structural well-formedness of a partition, re-derived from first
/// principles (buckets non-empty, contiguous, ordered, covering 1..n,
/// widths summing to n, BucketOf consistent with the geometry).
Status CheckPartitionWellFormed(const Partition& partition);

}  // namespace audit
}  // namespace rangesyn

#endif  // RANGESYN_AUDIT_ORACLES_H_
