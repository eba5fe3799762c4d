#ifndef RANGESYN_HISTOGRAM_HISTOGRAM_H_
#define RANGESYN_HISTOGRAM_HISTOGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "histogram/partition.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

// The builders' records. Each holds what its builder chose — boundaries
// and summary values — and answers no query itself: Compile() turns it
// into the FlatSynopsis that does (DESIGN.md §11). Name() and
// StorageWords() are what the view reports.

/// Classical histogram: bucket boundaries plus one stored value per bucket,
/// answering with the paper's eq. (1): partial left piece + exact middle +
/// partial right piece, each piece (piece length) x (stored value).
///
/// This single representation backs OPT-A, A0, POINT-OPT, EQUI-WIDTH,
/// EQUI-DEPTH, MAXDIFF and the re-optimized variants — they differ only in
/// how boundaries/values are chosen. Storage: 2 words per bucket.
class AvgHistogram {
 public:
  /// `values[k]` is the stored value of bucket k. Sizes must match.
  static Result<AvgHistogram> Create(Partition partition,
                                     std::vector<double> values,
                                     std::string name,
                                     PieceRounding rounding);

  /// Builds boundaries' true bucket averages from `data` (A[i] = data[i-1]).
  static Result<AvgHistogram> WithTrueAverages(
      const std::vector<int64_t>& data, Partition partition,
      std::string name, PieceRounding rounding);

  /// The view answering eq. (1) under rounding(): FlatKind::kAvgHistogram.
  Result<std::shared_ptr<const FlatSynopsis>> Compile() const;

  int64_t StorageWords() const { return 2 * partition_.num_buckets(); }
  int64_t domain_size() const { return partition_.n(); }
  const std::string& Name() const { return name_; }

  const Partition& partition() const { return partition_; }
  const std::vector<double>& values() const { return values_; }
  PieceRounding rounding() const { return rounding_; }

  /// Returns a copy with different stored values (used by the
  /// re-optimization post-pass).
  AvgHistogram WithValues(std::vector<double> values,
                          std::string name) const;

 private:
  AvgHistogram(Partition partition, std::vector<double> values,
               std::string name, PieceRounding rounding);

  Partition partition_;
  std::vector<double> values_;
  std::string name_;
  PieceRounding rounding_;
};

/// SAP0 histogram (paper §2.2.1): per bucket, a suffix value, a prefix
/// value, and the bucket average (recoverable from the other two, so the
/// representation costs 3 words per bucket — Theorem 7).
///
/// Inter-bucket query (a,b): suff(buck(a)) + exact middle + pref(buck(b));
/// the answer depends only on the buckets of a and b, not on a and b
/// themselves. Intra-bucket query: (b-a+1) * avg.
class Sap0Histogram {
 public:
  /// Builds the representation-optimal summary values for the given
  /// boundaries: suffix/prefix values are the averages of the bucket suffix
  /// sums and bucket prefix sums (Lemma 5 part 2).
  static Result<Sap0Histogram> Build(const std::vector<int64_t>& data,
                                     Partition partition);

  /// Reconstructs a SAP0 histogram from its 3B stored words (boundaries,
  /// suffix values, prefix values); the bucket averages are recovered as
  /// (pref + suff) / (width + 1), which is exact when the summaries are
  /// the Lemma-5 optimal values.
  static Result<Sap0Histogram> FromSummaries(Partition partition,
                                             std::vector<double> suffixes,
                                             std::vector<double> prefixes);

  /// The view answering suff + middle + pref: FlatKind::kSap0.
  Result<std::shared_ptr<const FlatSynopsis>> Compile() const;

  int64_t StorageWords() const { return 3 * partition_.num_buckets(); }
  int64_t domain_size() const { return partition_.n(); }
  std::string Name() const { return "SAP0"; }

  const Partition& partition() const { return partition_; }
  const std::vector<double>& suffix_values() const { return suff_; }
  const std::vector<double>& prefix_values() const { return pref_; }
  const std::vector<double>& averages() const { return avg_; }

 private:
  Sap0Histogram(Partition partition, std::vector<double> suff,
                std::vector<double> pref, std::vector<double> avg);

  Partition partition_;
  std::vector<double> suff_;  // avg of bucket suffix sums s[a, end]
  std::vector<double> pref_;  // avg of bucket prefix sums s[start, b]
  std::vector<double> avg_;   // bucket average (derived, not counted)
};

/// SAP1 histogram (paper §2.2.2): per bucket, linear models for the suffix
/// and prefix sums. s[a, end] is approximated by
/// (end - a + 1) * suff_slope + suff_icept, and symmetrically for prefixes.
/// Optimal summary values are the least-squares fits; 5 words per bucket
/// (Theorem 8). Intra-bucket queries use the bucket average.
class Sap1Histogram {
 public:
  /// Builds representation-optimal regression summaries for the given
  /// boundaries.
  static Result<Sap1Histogram> Build(const std::vector<int64_t>& data,
                                     Partition partition);

  /// Reconstructs a SAP1 histogram from its 5B stored words. The bucket
  /// averages are recovered through the regression means: the fitted line
  /// passes through (x̄, ȳ) with x̄ = (width+1)/2, giving the SAP0
  /// suffix/prefix averages, whence avg = (pref̄ + suff̄) / (width + 1).
  static Result<Sap1Histogram> FromSummaries(
      Partition partition, std::vector<double> suffix_slopes,
      std::vector<double> suffix_intercepts,
      std::vector<double> prefix_slopes,
      std::vector<double> prefix_intercepts);

  /// The view answering the two linear pieces + middle: FlatKind::kSap1.
  Result<std::shared_ptr<const FlatSynopsis>> Compile() const;

  int64_t StorageWords() const { return 5 * partition_.num_buckets(); }
  int64_t domain_size() const { return partition_.n(); }
  std::string Name() const { return "SAP1"; }

  const Partition& partition() const { return partition_; }
  const std::vector<double>& suffix_slopes() const { return suff_slope_; }
  const std::vector<double>& suffix_intercepts() const { return suff_icept_; }
  const std::vector<double>& prefix_slopes() const { return pref_slope_; }
  const std::vector<double>& prefix_intercepts() const { return pref_icept_; }
  const std::vector<double>& averages() const { return avg_; }

 private:
  Sap1Histogram(Partition partition, std::vector<double> ss,
                std::vector<double> si, std::vector<double> ps,
                std::vector<double> pi, std::vector<double> avg);

  Partition partition_;
  std::vector<double> suff_slope_;
  std::vector<double> suff_icept_;
  std::vector<double> pref_slope_;
  std::vector<double> pref_icept_;
  std::vector<double> avg_;  // derived, not counted in storage
};

/// SAP2 histogram — this library's extension one rung above SAP1 (the
/// paper's §2.2.2 notes the generalization): per bucket, degree-2
/// polynomial models of the suffix and prefix sums in the piece length.
/// Least-squares residuals with an intercept sum to zero, so the
/// Decomposition Lemma still applies and the O(n²B) DP construction is
/// exactly range-optimal for this representation. 7 words per bucket.
class Sap2Histogram {
 public:
  /// Per-bucket quadratic model c0 + c1*x + c2*x² in the piece length x.
  struct Model {
    double c0 = 0.0;
    double c1 = 0.0;
    double c2 = 0.0;
    double At(double x) const { return c0 + c1 * x + c2 * x * x; }
  };

  /// Builds representation-optimal quadratic summaries for the given
  /// boundaries.
  static Result<Sap2Histogram> Build(const std::vector<int64_t>& data,
                                     Partition partition);

  /// Reconstructs from the 7B stored words; averages recovered from the
  /// fits at the moment points (the fitted surface passes through the
  /// sample mean).
  static Result<Sap2Histogram> FromSummaries(Partition partition,
                                             std::vector<Model> suffix_models,
                                             std::vector<Model> prefix_models);

  /// The view answering the two quadratic pieces + middle:
  /// FlatKind::kSap2.
  Result<std::shared_ptr<const FlatSynopsis>> Compile() const;

  int64_t StorageWords() const { return 7 * partition_.num_buckets(); }
  int64_t domain_size() const { return partition_.n(); }
  std::string Name() const { return "SAP2"; }

  const Partition& partition() const { return partition_; }
  const std::vector<Model>& suffix_models() const { return suff_; }
  const std::vector<Model>& prefix_models() const { return pref_; }
  const std::vector<double>& averages() const { return avg_; }

 private:
  Sap2Histogram(Partition partition, std::vector<Model> suff,
                std::vector<Model> pref, std::vector<double> avg);

  Partition partition_;
  std::vector<Model> suff_;
  std::vector<Model> pref_;
  std::vector<double> avg_;  // derived, not counted in storage
};

/// The trivial one-value synopsis: the global average answers every query
/// as (b-a+1) * avg. Storage: 1 word. The paper's NAIVE upper bound.
class NaiveEstimator {
 public:
  static Result<NaiveEstimator> Build(const std::vector<int64_t>& data);

  /// Reconstructs from the stored word (plus the domain size).
  static Result<NaiveEstimator> FromAverage(int64_t n, double average);

  /// The view answering (b-a+1) * avg: FlatKind::kNaive.
  Result<std::shared_ptr<const FlatSynopsis>> Compile() const;

  int64_t StorageWords() const { return 1; }
  int64_t domain_size() const { return n_; }
  std::string Name() const { return "NAIVE"; }

  double average() const { return avg_; }

 private:
  NaiveEstimator(int64_t n, double avg) : n_(n), avg_(avg) {}
  int64_t n_;
  double avg_;
};

}  // namespace rangesyn

#endif  // RANGESYN_HISTOGRAM_HISTOGRAM_H_
