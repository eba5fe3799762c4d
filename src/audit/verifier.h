#ifndef RANGESYN_AUDIT_VERIFIER_H_
#define RANGESYN_AUDIT_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "histogram/dp.h"
#include "histogram/weighted_sap0.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace audit {

/// Tuning knobs for the invariant verifier.
struct VerifierOptions {
  /// Largest domain the O(n³) naive-SSE cross-checks run on; larger
  /// inputs are rejected with FailedPrecondition rather than silently
  /// skipped, so callers choose their inputs consciously.
  int64_t max_n = 64;
  /// Largest domain for the exponential exhaustive searches (partition
  /// enumeration, coefficient-subset enumeration). Beyond this the
  /// corresponding optimality check degrades to the polynomial checks.
  int64_t max_exhaustive_n = 14;
  /// Relative tolerance for cost/SSE comparisons (the production code and
  /// the oracles accumulate floating point in different orders).
  double rel_tol = 1e-7;
  /// Absolute floor for comparisons near zero.
  double abs_tol = 1e-6;
};

/// Cross-checks production outputs against the brute-force oracles. Every
/// method returns OkStatus when the invariants hold and an InternalError
/// describing the first violation otherwise; nothing aborts, so the
/// verifier is usable both from tests (EXPECT_TRUE(ok())) and from the
/// RANGESYN_AUDIT hooks (which CHECK the returned status).
class Verifier {
 public:
  explicit Verifier(VerifierOptions options = VerifierOptions())
      : options_(options) {}

  const VerifierOptions& options() const { return options_; }

  /// Partition structural invariants (delegates to the oracle layer).
  Status VerifyPartition(const Partition& partition) const;

  /// Interval-DP invariants over an arbitrary additive cost oracle:
  /// solution partitions are well-formed, reported costs re-sum from the
  /// oracle, exactly-k solutions use exactly k buckets, the at-most
  /// solution matches the best over all k, costs never increase when a
  /// bucket is split off (checked via the all-k sweep where applicable),
  /// and — for n <= max_exhaustive_n — every cost equals the exhaustive
  /// minimum over all partitions.
  Status VerifyIntervalDp(int64_t n, int64_t max_buckets,
                          const BucketCostFn& cost) const;

  /// SAP0 pipeline: the Decomposition-Lemma identity (summed additive
  /// bucket costs == naive all-ranges SSE of the built histogram) and,
  /// for small n, exact range-optimality against exhaustive partitions.
  Status VerifySap0(const std::vector<int64_t>& data, int64_t buckets) const;

  /// Weighted SAP0: the weighted decomposition identity and exhaustive
  /// optimality under product-form workload weights.
  Status VerifyWeightedSap0(const std::vector<int64_t>& data, int64_t buckets,
                            const RangeWorkloadWeights& weights) const;

  /// WAVE-RANGE-OPT: retained set is a true top-budget-by-magnitude set;
  /// when n+1 is a power of two, the synopsis SSE matches both the
  /// analytic prediction and (for small n) the exhaustive best over all
  /// coefficient subsets — the paper's Theorem 9 claim.
  Status VerifyWaveRangeOpt(const std::vector<int64_t>& data,
                            int64_t budget) const;

  /// The full RSF1 round trip: encode → decode gives back the name, n
  /// and paper storage words, re-encodes to identical bytes, and answers
  /// every range bit-identically to `synopsis`.
  Status VerifySerializeRoundTrip(const FlatSynopsis& synopsis) const;

  /// Runs every applicable check for one dataset/budget combination,
  /// including round-trips of each serializable synopsis family.
  Status VerifyAll(const std::vector<int64_t>& data, int64_t buckets) const;

 private:
  Status CheckClose(double actual, double expected, const char* what) const;

  VerifierOptions options_;
};

}  // namespace audit
}  // namespace rangesyn

#endif  // RANGESYN_AUDIT_VERIFIER_H_
