#ifndef RANGESYN_HISTOGRAM_WEIGHTED_SAP0_H_
#define RANGESYN_HISTOGRAM_WEIGHTED_SAP0_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "data/workload.h"
#include "histogram/partition.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// Product-form range-query workload weights: query (a, b) has weight
/// alpha[a-1] * beta[b-1]. The paper's SSE objective is the uniform case
/// (alpha = beta = 1); this extension generalizes the SAP0 optimality to
/// any product-form workload — the Decomposition Lemma survives because
/// per-bucket *weighted* averages make the weighted residuals sum to zero.
struct RangeWorkloadWeights {
  std::vector<double> alpha;  // left-endpoint weights, all > 0
  std::vector<double> beta;   // right-endpoint weights, all > 0

  static RangeWorkloadWeights Uniform(int64_t n);

  /// Fits product-form weights to an observed query log by its endpoint
  /// marginals (exact when the log is product-form; the natural
  /// approximation otherwise). `smoothing` is added to every endpoint
  /// count so unseen endpoints keep positive weight.
  static Result<RangeWorkloadWeights> FromQueries(
      int64_t n, const std::vector<RangeQuery>& queries,
      double smoothing = 1.0);

  int64_t n() const { return static_cast<int64_t>(alpha.size()); }
  double WeightOf(int64_t a, int64_t b) const {
    return alpha[static_cast<size_t>(a - 1)] *
           beta[static_cast<size_t>(b - 1)];
  }
};

/// SAP0 histogram whose suffix/prefix summary values are the
/// workload-weighted averages — optimal summary values for the weighted
/// SSE on its boundaries. Storage 4 words per bucket: unlike uniform
/// SAP0, the bucket average is not recoverable from the weighted
/// summaries, so it is stored explicitly.
class WeightedSap0Histogram {
 public:
  static Result<WeightedSap0Histogram> Build(
      const std::vector<int64_t>& data, Partition partition,
      const RangeWorkloadWeights& weights);

  /// Reconstructs from the 4B stored words.
  static Result<WeightedSap0Histogram> FromSummaries(
      Partition partition, std::vector<double> suffixes,
      std::vector<double> prefixes, std::vector<double> averages);

  /// The view answering suff + middle + pref: FlatKind::kWeightedSap0.
  Result<std::shared_ptr<const FlatSynopsis>> Compile() const;

  int64_t StorageWords() const { return 4 * partition_.num_buckets(); }
  int64_t domain_size() const { return partition_.n(); }
  std::string Name() const { return "W-SAP0"; }

  const Partition& partition() const { return partition_; }
  const std::vector<double>& suffix_values() const { return suff_; }
  const std::vector<double>& prefix_values() const { return pref_; }
  const std::vector<double>& averages() const { return avg_; }

 private:
  WeightedSap0Histogram(Partition partition, std::vector<double> suff,
                        std::vector<double> pref, std::vector<double> avg);

  Partition partition_;
  std::vector<double> suff_;
  std::vector<double> pref_;
  std::vector<double> avg_;
};

/// O(1)-per-suffix/prefix, O(width)-per-intra weighted bucket cost oracle.
/// Summing Cost over the buckets of a partition equals the weighted
/// all-ranges SSE of the WeightedSap0Histogram on that partition.
class WeightedSap0Costs {
 public:
  /// `data` and `weights` sizes must match; weights must be positive.
  /// Construction is O(n); Cost(l, r) is O(r - l).
  static Result<WeightedSap0Costs> Create(
      const std::vector<int64_t>& data, RangeWorkloadWeights weights);

  int64_t n() const { return n_; }
  double Cost(int64_t l, int64_t r) const;

  /// The weighted-optimal summary values of bucket [l, r].
  double WeightedSuffixValue(int64_t l, int64_t r) const;
  double WeightedPrefixValue(int64_t l, int64_t r) const;

 private:
  WeightedSap0Costs() = default;

  int64_t n_ = 0;
  std::vector<int64_t> p_;          // exact prefix sums of the data
  RangeWorkloadWeights weights_;
  std::vector<double> cum_a_;       // prefix sums of alpha
  std::vector<double> cum_b_;       // prefix sums of beta
  std::vector<double> cum_ap_;      // alpha[a-1] * P[a-1]
  std::vector<double> cum_ap2_;     // alpha[a-1] * P[a-1]^2
  std::vector<double> cum_bp_;      // beta[b-1] * P[b]
  std::vector<double> cum_bp2_;     // beta[b-1] * P[b]^2
};

/// Optimal weighted-SAP0 construction: dynamic program over the weighted
/// bucket costs; O(n^3 + n^2 B) time due to the O(width) intra term.
Result<WeightedSap0Histogram> BuildWeightedSap0(
    const std::vector<int64_t>& data, int64_t buckets,
    const RangeWorkloadWeights& weights);

/// Weighted all-ranges SSE: sum over a <= b of
/// alpha(a) * beta(b) * (s[a,b] - estimate)². O(n²) evaluation.
Result<double> WeightedRangeSse(const std::vector<int64_t>& data,
                                const FlatSynopsis& synopsis,
                                const RangeWorkloadWeights& weights);

}  // namespace rangesyn

#endif  // RANGESYN_HISTOGRAM_WEIGHTED_SAP0_H_
