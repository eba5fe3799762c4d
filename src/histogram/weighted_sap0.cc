#include "histogram/weighted_sap0.h"

#include <cmath>

#include "core/logging.h"
#include "core/mathutil.h"
#include "core/strings.h"
#include "histogram/dp.h"
#include "histogram/prefix_stats.h"
#include "obs/obs.h"

namespace rangesyn {
namespace {

Status ValidateWeights(int64_t n, const RangeWorkloadWeights& weights) {
  if (static_cast<int64_t>(weights.alpha.size()) != n ||
      static_cast<int64_t>(weights.beta.size()) != n) {
    return InvalidArgumentError("weights size != data size");
  }
  for (int64_t i = 0; i < n; ++i) {
    if (!(weights.alpha[static_cast<size_t>(i)] > 0.0) ||
        !(weights.beta[static_cast<size_t>(i)] > 0.0)) {
      return InvalidArgumentError(
          StrCat("weights must be positive (index ", i, ")"));
    }
  }
  return OkStatus();
}

}  // namespace

RangeWorkloadWeights RangeWorkloadWeights::Uniform(int64_t n) {
  RANGESYN_CHECK_GE(n, 1);
  return {std::vector<double>(static_cast<size_t>(n), 1.0),
          std::vector<double>(static_cast<size_t>(n), 1.0)};
}

Result<RangeWorkloadWeights> RangeWorkloadWeights::FromQueries(
    int64_t n, const std::vector<RangeQuery>& queries, double smoothing) {
  if (n < 1) return InvalidArgumentError("FromQueries: n >= 1");
  if (smoothing <= 0.0) {
    return InvalidArgumentError("FromQueries: smoothing must be > 0");
  }
  RangeWorkloadWeights out;
  out.alpha.assign(static_cast<size_t>(n), smoothing);
  out.beta.assign(static_cast<size_t>(n), smoothing);
  for (const RangeQuery& q : queries) {
    if (q.a < 1 || q.a > q.b || q.b > n) {
      return InvalidArgumentError(
          StrCat("FromQueries: bad query [", q.a, ",", q.b, "]"));
    }
    out.alpha[static_cast<size_t>(q.a - 1)] += 1.0;
    out.beta[static_cast<size_t>(q.b - 1)] += 1.0;
  }
  return out;
}

// ------------------------------------------------------- WeightedSap0Costs

Result<WeightedSap0Costs> WeightedSap0Costs::Create(
    const std::vector<int64_t>& data, RangeWorkloadWeights weights) {
  const int64_t n = static_cast<int64_t>(data.size());
  if (n < 1) return InvalidArgumentError("WeightedSap0Costs: empty data");
  RANGESYN_RETURN_IF_ERROR(ValidateWeights(n, weights));
  WeightedSap0Costs out;
  out.n_ = n;
  out.p_.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 1; i <= n; ++i) {
    const int64_t v = data[static_cast<size_t>(i - 1)];
    if (v < 0) {
      return InvalidArgumentError("WeightedSap0Costs: negative count");
    }
    out.p_[static_cast<size_t>(i)] = out.p_[static_cast<size_t>(i - 1)] + v;
  }
  out.weights_ = std::move(weights);
  out.cum_a_.assign(static_cast<size_t>(n) + 1, 0.0);
  out.cum_b_.assign(static_cast<size_t>(n) + 1, 0.0);
  out.cum_ap_.assign(static_cast<size_t>(n) + 1, 0.0);
  out.cum_ap2_.assign(static_cast<size_t>(n) + 1, 0.0);
  out.cum_bp_.assign(static_cast<size_t>(n) + 1, 0.0);
  out.cum_bp2_.assign(static_cast<size_t>(n) + 1, 0.0);
  for (int64_t i = 1; i <= n; ++i) {
    const size_t k = static_cast<size_t>(i);
    const double a = out.weights_.alpha[k - 1];
    const double b = out.weights_.beta[k - 1];
    const double p_before = static_cast<double>(out.p_[k - 1]);
    const double p_at = static_cast<double>(out.p_[k]);
    out.cum_a_[k] = out.cum_a_[k - 1] + a;
    out.cum_b_[k] = out.cum_b_[k - 1] + b;
    out.cum_ap_[k] = out.cum_ap_[k - 1] + a * p_before;
    out.cum_ap2_[k] = out.cum_ap2_[k - 1] + a * p_before * p_before;
    out.cum_bp_[k] = out.cum_bp_[k - 1] + b * p_at;
    out.cum_bp2_[k] = out.cum_bp2_[k - 1] + b * p_at * p_at;
  }
  return out;
}

double WeightedSap0Costs::WeightedSuffixValue(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n_);
  // y_a = s[a,r] = P[r] - P[a-1], weighted by alpha over a in [l, r].
  const double pr = static_cast<double>(p_[static_cast<size_t>(r)]);
  const double wa = cum_a_[static_cast<size_t>(r)] -
                    cum_a_[static_cast<size_t>(l - 1)];
  const double way = wa * pr - (cum_ap_[static_cast<size_t>(r)] -
                                cum_ap_[static_cast<size_t>(l - 1)]);
  return way / wa;
}

double WeightedSap0Costs::WeightedPrefixValue(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n_);
  // z_b = s[l,b] = P[b] - P[l-1], weighted by beta over b in [l, r].
  const double pl1 = static_cast<double>(p_[static_cast<size_t>(l - 1)]);
  const double wb = cum_b_[static_cast<size_t>(r)] -
                    cum_b_[static_cast<size_t>(l - 1)];
  const double wbz = (cum_bp_[static_cast<size_t>(r)] -
                      cum_bp_[static_cast<size_t>(l - 1)]) -
                     wb * pl1;
  return wbz / wb;
}

double WeightedSap0Costs::Cost(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n_);
  const double pr = static_cast<double>(p_[static_cast<size_t>(r)]);
  const double pl1 = static_cast<double>(p_[static_cast<size_t>(l - 1)]);
  const double m = static_cast<double>(r - l + 1);
  const double mu = (pr - pl1) / m;

  // Weighted variance of the suffix sums.
  const double wa = cum_a_[static_cast<size_t>(r)] -
                    cum_a_[static_cast<size_t>(l - 1)];
  const double sum_ap = cum_ap_[static_cast<size_t>(r)] -
                        cum_ap_[static_cast<size_t>(l - 1)];
  const double sum_ap2 = cum_ap2_[static_cast<size_t>(r)] -
                         cum_ap2_[static_cast<size_t>(l - 1)];
  const double way = wa * pr - sum_ap;
  const double way2 = wa * pr * pr - 2.0 * pr * sum_ap + sum_ap2;
  const double wvar_suffix = std::fmax(0.0, way2 - way * way / wa);

  // Weighted variance of the prefix sums.
  const double wb = cum_b_[static_cast<size_t>(r)] -
                    cum_b_[static_cast<size_t>(l - 1)];
  const double sum_bp = cum_bp_[static_cast<size_t>(r)] -
                        cum_bp_[static_cast<size_t>(l - 1)];
  const double sum_bp2 = cum_bp2_[static_cast<size_t>(r)] -
                         cum_bp2_[static_cast<size_t>(l - 1)];
  const double wbz = sum_bp - wb * pl1;
  const double wbz2 = sum_bp2 - 2.0 * pl1 * sum_bp + wb * pl1 * pl1;
  const double wvar_prefix = std::fmax(0.0, wbz2 - wbz * wbz / wb);

  const double beta_after = cum_b_[static_cast<size_t>(n_)] -
                            cum_b_[static_cast<size_t>(r)];
  const double alpha_before = cum_a_[static_cast<size_t>(l - 1)];

  // Weighted intra-bucket SSE: errors are Q[b] - Q[a-1] with
  // Q[t] = P[t] - mu*t; scan b once keeping alpha-weighted moments of the
  // Q[a-1] seen so far (O(width)).
  double intra = 0.0;
  double s0 = 0.0, s1 = 0.0, s2 = 0.0;
  for (int64_t b = l; b <= r; ++b) {
    const double qx =
        static_cast<double>(p_[static_cast<size_t>(b - 1)]) -
        mu * static_cast<double>(b - 1);
    const double a_w = weights_.alpha[static_cast<size_t>(b - 1)];
    s0 += a_w;
    s1 += a_w * qx;
    s2 += a_w * qx * qx;
    const double qb = static_cast<double>(p_[static_cast<size_t>(b)]) -
                      mu * static_cast<double>(b);
    intra += weights_.beta[static_cast<size_t>(b - 1)] *
             (qb * qb * s0 - 2.0 * qb * s1 + s2);
  }
  return std::fmax(0.0, intra) + beta_after * wvar_suffix +
         alpha_before * wvar_prefix;
}

// --------------------------------------------------- WeightedSap0Histogram

WeightedSap0Histogram::WeightedSap0Histogram(Partition partition,
                                             std::vector<double> suff,
                                             std::vector<double> pref,
                                             std::vector<double> avg)
    : partition_(std::move(partition)),
      suff_(std::move(suff)),
      pref_(std::move(pref)),
      avg_(std::move(avg)) {}

Result<WeightedSap0Histogram> WeightedSap0Histogram::Build(
    const std::vector<int64_t>& data, Partition partition,
    const RangeWorkloadWeights& weights) {
  if (static_cast<int64_t>(data.size()) != partition.n()) {
    return InvalidArgumentError("WeightedSap0: data size != partition n");
  }
  RANGESYN_ASSIGN_OR_RETURN(WeightedSap0Costs costs,
                            WeightedSap0Costs::Create(data, weights));
  PrefixStats stats(data);
  const int64_t num_buckets = partition.num_buckets();
  std::vector<double> suff(static_cast<size_t>(num_buckets));
  std::vector<double> pref(static_cast<size_t>(num_buckets));
  std::vector<double> avg(static_cast<size_t>(num_buckets));
  for (int64_t k = 0; k < num_buckets; ++k) {
    const int64_t l = partition.bucket_start(k);
    const int64_t r = partition.bucket_end(k);
    suff[static_cast<size_t>(k)] = costs.WeightedSuffixValue(l, r);
    pref[static_cast<size_t>(k)] = costs.WeightedPrefixValue(l, r);
    avg[static_cast<size_t>(k)] =
        static_cast<double>(stats.Sum(l, r)) /
        static_cast<double>(r - l + 1);
  }
  return WeightedSap0Histogram(std::move(partition), std::move(suff),
                               std::move(pref), std::move(avg));
}

Result<WeightedSap0Histogram> WeightedSap0Histogram::FromSummaries(
    Partition partition, std::vector<double> suffixes,
    std::vector<double> prefixes, std::vector<double> averages) {
  const size_t num_buckets = static_cast<size_t>(partition.num_buckets());
  if (suffixes.size() != num_buckets || prefixes.size() != num_buckets ||
      averages.size() != num_buckets) {
    return InvalidArgumentError("WeightedSap0::FromSummaries: size mismatch");
  }
  return WeightedSap0Histogram(std::move(partition), std::move(suffixes),
                               std::move(prefixes), std::move(averages));
}

Result<std::shared_ptr<const FlatSynopsis>> WeightedSap0Histogram::Compile()
    const {
  return FlatSynopsis::FromHistogram(FlatKind::kWeightedSap0, 0,
                                     partition_.n(), partition_.ends(), avg_,
                                     {suff_, pref_, avg_}, Name(),
                                     StorageWords());
}

Result<WeightedSap0Histogram> BuildWeightedSap0(
    const std::vector<int64_t>& data, int64_t buckets,
    const RangeWorkloadWeights& weights) {
  if (buckets < 1) {
    return InvalidArgumentError("BuildWeightedSap0: buckets >= 1");
  }
  RANGESYN_OBS_SPAN("histogram.sap0w.build");
  RANGESYN_ASSIGN_OR_RETURN(WeightedSap0Costs costs,
                            WeightedSap0Costs::Create(data, weights));
  // Cost() is the O(width) inner kernel of the O(n^2 B) DP; count calls
  // locally and flush once so the hot loop stays atomic-free.
  uint64_t cost_evals = 0;
  RANGESYN_ASSIGN_OR_RETURN(
      IntervalDpResult dp,
      SolveIntervalDp(costs.n(), buckets,
                      [&costs, &cost_evals](int64_t l, int64_t r) {
                        ++cost_evals;
                        return costs.Cost(l, r);
                      }));
  RANGESYN_OBS_COUNTER_ADD("histogram.sap0w.cost_evals", cost_evals);
  Result<WeightedSap0Histogram> hist =
      WeightedSap0Histogram::Build(data, dp.partition, weights);
#ifdef RANGESYN_AUDIT
  // The weighted Decomposition-Lemma identity: the DP's additive bucket
  // costs must re-sum to the direct O(n²)-summed weighted all-ranges SSE
  // of the histogram actually built. Gated on domain size — the direct
  // summation is quadratic and this hook runs on every build.
  constexpr int64_t kMaxAuditN = 48;
  if (hist.ok() && costs.n() <= kMaxAuditN) {
    const Result<std::shared_ptr<const FlatSynopsis>> view = hist->Compile();
    RANGESYN_CHECK(view.ok()) << view.status();
    Result<double> direct = WeightedRangeSse(data, **view, weights);
    RANGESYN_CHECK(direct.ok()) << direct.status().message();
    RANGESYN_CHECK(AlmostEqual(dp.cost, direct.value(), 1e-7, 1e-6))
        << "weighted SAP0 audit: DP cost " << dp.cost
        << " != direct weighted all-ranges SSE " << direct.value();
  }
#endif
  return hist;
}

Result<double> WeightedRangeSse(const std::vector<int64_t>& data,
                                const FlatSynopsis& synopsis,
                                const RangeWorkloadWeights& weights) {
  const int64_t n = static_cast<int64_t>(data.size());
  if (synopsis.n() != n) {
    return InvalidArgumentError("WeightedRangeSse: domain mismatch");
  }
  RANGESYN_RETURN_IF_ERROR(ValidateWeights(n, weights));
  PrefixStats stats(data);
  double sse = 0.0;
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      const double err = static_cast<double>(stats.Sum(a, b)) -
                         synopsis.EstimateOne(a, b);
      sse += weights.WeightOf(a, b) * err * err;
    }
  }
  return sse;
}

}  // namespace rangesyn
