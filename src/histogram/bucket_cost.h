#ifndef RANGESYN_HISTOGRAM_BUCKET_COST_H_
#define RANGESYN_HISTOGRAM_BUCKET_COST_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "histogram/prefix_stats.h"
#include "histogram/quadratic_fit.h"

namespace rangesyn {

/// O(1) closed-form bucket cost oracles over a fixed dataset, built from
/// the PrefixStats window moments. All costs are *unrounded* (real-valued
/// answering); the rounded variants used by the pseudo-polynomial OPT-A
/// program are computed exactly in opt_a_dp.cc.
///
/// Derivations are in DESIGN.md §3. In all methods [l, r] is a candidate
/// bucket, 1 <= l <= r <= n.
class BucketCosts {
 public:
  /// `stats` must outlive this object.
  explicit BucketCosts(const PrefixStats& stats) : stats_(stats) {}

  int64_t n() const { return stats_.n(); }

  /// Sum over all intra-bucket ranges (a,b), l <= a <= b <= r, of
  /// (s[a,b] - (b-a+1)*avg)^2 where avg = s[l,r]/(r-l+1).
  double Intra(int64_t l, int64_t r) const;

  /// SAP0 additive bucket cost (DESIGN.md §3.2):
  ///   Intra + (n-r) * SS_suffix + (l-1) * SS_prefix
  /// where SS_suffix/SS_prefix are the sums of squared deviations of the
  /// bucket suffix/prefix sums from their means. Summing this over the
  /// buckets of a partition equals the exact all-ranges SSE of the SAP0
  /// histogram on that partition (Decomposition Lemma).
  double Sap0Cost(int64_t l, int64_t r) const;

  /// SAP1 additive bucket cost: Intra + (n-r)*SSR_suffix + (l-1)*SSR_prefix
  /// with least-squares residual sums of the suffix/prefix regressions.
  double Sap1Cost(int64_t l, int64_t r) const;

  /// SAP2 additive bucket cost: Intra + (n-r)*SSR2_suffix + (l-1)*
  /// SSR2_prefix with least-squares *quadratic* residual sums. The same
  /// Decomposition Lemma argument applies (with-intercept LS residuals sum
  /// to zero), so the DP over this cost is exactly optimal for the SAP2
  /// representation.
  ///
  /// Both regressions have x = 1..m with m = r-l+1, so their 3x3 normal
  /// equations are factored once per bucket length: the first call builds
  /// a QuadraticDesign for every m in 1..n (thread-safe, once per object)
  /// and every call then only replays it on the bucket's y moments.
  /// Objects that never price a SAP2 bucket never build the table.
  double Sap2Cost(int64_t l, int64_t r) const;

  /// A0 heuristic bucket cost: Intra + (n-r)*sum u'^2 + (l-1)*sum v'^2 with
  /// the eq. (1) partial-piece errors u', v'; ignores the (non-vanishing)
  /// cross term, as the paper's A0 heuristic does.
  double A0Cost(int64_t l, int64_t r) const;

  /// Sum of eq.(1) left-piece errors u'_a over a in [l,r] and of squared
  /// errors; exposed for the OPT-A machinery and tests.
  double SumU(int64_t l, int64_t r) const;
  double SumU2(int64_t l, int64_t r) const;
  /// Same for right-piece errors v'_b.
  double SumV(int64_t l, int64_t r) const;
  double SumV2(int64_t l, int64_t r) const;

 private:
  struct WindowQ {
    double sum_q;   // sum of Q[t] over the window, Q[t] = P[t] - mu*t
    double sum_q2;  // sum of Q[t]^2
  };
  /// Window moments of Q[t] = P[t] - mu*t over t in [x, y].
  WindowQ QMoments(int64_t x, int64_t y, double mu) const;

  double Mu(int64_t l, int64_t r) const {
    return static_cast<double>(stats_.Sum(l, r)) /
           static_cast<double>(r - l + 1);
  }

  /// Sap2Designs()[m - 1] factors the fit over x = 1..m, for m in 1..n;
  /// built by the first call.
  const std::vector<QuadraticDesign>& Sap2Designs() const;

  const PrefixStats& stats_;
  mutable std::once_flag sap2_once_;
  mutable std::vector<QuadraticDesign> sap2_designs_;
};

/// Weighted V-optimal bucket costs for point queries:
///   cost(l,r) = sum_{i=l..r} w_i * (A[i] - mu_w)^2,
/// with mu_w the w-weighted bucket mean. With w_i = i(n-i+1) (the number of
/// ranges containing i) this is the paper's POINT-OPT construction; with
/// w_i = 1 it is the classical V-optimal histogram of [6].
class WeightedPointCosts {
 public:
  /// `weights` must be positive and have the same size as `data`.
  WeightedPointCosts(const std::vector<int64_t>& data,
                     const std::vector<double>& weights);

  /// Weights w_i = i(n-i+1), i = 1..n.
  static std::vector<double> RangeCoverageWeights(int64_t n);
  /// Weights w_i = 1.
  static std::vector<double> UniformWeights(int64_t n);

  int64_t n() const { return n_; }

  double Cost(int64_t l, int64_t r) const;

  /// The w-weighted mean of A over [l, r] (the optimal stored value).
  double WeightedMean(int64_t l, int64_t r) const;

 private:
  int64_t n_;
  std::vector<double> cum_w_;    // prefix sums of w
  std::vector<double> cum_wa_;   // prefix sums of w*A
  std::vector<double> cum_wa2_;  // prefix sums of w*A^2
};

}  // namespace rangesyn

#endif  // RANGESYN_HISTOGRAM_BUCKET_COST_H_
