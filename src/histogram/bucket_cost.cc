#include "histogram/bucket_cost.h"

#include <cmath>
#include <mutex>

#include "core/logging.h"

namespace rangesyn {

BucketCosts::WindowQ BucketCosts::QMoments(int64_t x, int64_t y,
                                           double mu) const {
  WindowQ q;
  const double sum_p = stats_.SumP(x, y);
  const double sum_p2 = stats_.SumP2(x, y);
  const double sum_tp = stats_.SumTP(x, y);
  const double sum_t = PrefixStats::SumT(x, y);
  const double sum_t2 = PrefixStats::SumT2(x, y);
  q.sum_q = sum_p - mu * sum_t;
  q.sum_q2 = sum_p2 - 2.0 * mu * sum_tp + mu * mu * sum_t2;
  return q;
}

double BucketCosts::Intra(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n());
  const double m = static_cast<double>(r - l + 1);
  const double mu = Mu(l, r);
  // With Q[t] = P[t] - mu*t, every intra range error is Q[b] - Q[a-1], so
  // summing over pairs x < y in [l-1, r] (m+1 points):
  //   Intra = (m+1) * sum Q^2 - (sum Q)^2.
  const WindowQ q = QMoments(l - 1, r, mu);
  const double intra = (m + 1.0) * q.sum_q2 - q.sum_q * q.sum_q;
  return intra < 0.0 ? 0.0 : intra;  // clamp tiny negative fp noise
}

double BucketCosts::Sap0Cost(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n());
  const double m = static_cast<double>(r - l + 1);
  const double pr = static_cast<double>(stats_.P(r));
  const double pl1 = static_cast<double>(stats_.P(l - 1));

  // Suffix sums y_a = s[a,r] = P[r] - P[t], t = a-1 in [l-1, r-1].
  const double sum_suf = m * pr - stats_.SumP(l - 1, r - 1);
  const double sum_suf2 = m * pr * pr -
                          2.0 * pr * stats_.SumP(l - 1, r - 1) +
                          stats_.SumP2(l - 1, r - 1);
  const double ss_suffix =
      std::fmax(0.0, sum_suf2 - sum_suf * sum_suf / m);

  // Prefix sums y_b = s[l,b] = P[b] - P[l-1], b in [l, r].
  const double sum_pre = stats_.SumP(l, r) - m * pl1;
  const double sum_pre2 = stats_.SumP2(l, r) -
                          2.0 * pl1 * stats_.SumP(l, r) + m * pl1 * pl1;
  const double ss_prefix =
      std::fmax(0.0, sum_pre2 - sum_pre * sum_pre / m);

  return Intra(l, r) + static_cast<double>(n() - r) * ss_suffix +
         static_cast<double>(l - 1) * ss_prefix;
}

double BucketCosts::Sap1Cost(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n());
  const double m = static_cast<double>(r - l + 1);
  const double pr = static_cast<double>(stats_.P(r));
  const double pl1 = static_cast<double>(stats_.P(l - 1));
  // Piece lengths x take the values 1..m for both regressions.
  const double sum_x = m * (m + 1.0) / 2.0;
  const double sxx = m * (m * m - 1.0) / 12.0;

  // Suffix regression: y = s[a,r], x = r-a+1; t = a-1 in [l-1, r-1].
  double ssr_suffix = 0.0;
  {
    const double sum_y = m * pr - stats_.SumP(l - 1, r - 1);
    const double sum_y2 = m * pr * pr -
                          2.0 * pr * stats_.SumP(l - 1, r - 1) +
                          stats_.SumP2(l - 1, r - 1);
    const double syy = std::fmax(0.0, sum_y2 - sum_y * sum_y / m);
    const double sum_xy = pr * sum_x -
                          static_cast<double>(r) * stats_.SumP(l - 1, r - 1) +
                          stats_.SumTP(l - 1, r - 1);
    const double sxy = sum_xy - sum_x * sum_y / m;
    ssr_suffix = (sxx > 0.0) ? std::fmax(0.0, syy - sxy * sxy / sxx) : 0.0;
  }

  // Prefix regression: y = s[l,b], x = b-l+1; b in [l, r].
  double ssr_prefix = 0.0;
  {
    const double sum_y = stats_.SumP(l, r) - m * pl1;
    const double sum_y2 = stats_.SumP2(l, r) -
                          2.0 * pl1 * stats_.SumP(l, r) + m * pl1 * pl1;
    const double syy = std::fmax(0.0, sum_y2 - sum_y * sum_y / m);
    const double sum_xy =
        (stats_.SumTP(l, r) - static_cast<double>(l - 1) * stats_.SumP(l, r)) -
        pl1 * sum_x;
    const double sxy = sum_xy - sum_x * sum_y / m;
    ssr_prefix = (sxx > 0.0) ? std::fmax(0.0, syy - sxy * sxy / sxx) : 0.0;
  }

  return Intra(l, r) + static_cast<double>(n() - r) * ssr_suffix +
         static_cast<double>(l - 1) * ssr_prefix;
}

const std::vector<QuadraticDesign>& BucketCosts::Sap2Designs() const {
  std::call_once(sap2_once_, [this] {
    sap2_designs_.reserve(static_cast<size_t>(n()));
    for (int64_t m = 1; m <= n(); ++m) {
      sap2_designs_.emplace_back(
          static_cast<double>(m), PrefixStats::SumT(1, m),
          PrefixStats::SumT2(1, m), PrefixStats::SumT3(1, m),
          PrefixStats::SumT4(1, m));
    }
  });
  return sap2_designs_;
}

double BucketCosts::Sap2Cost(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n());
  const double m = static_cast<double>(r - l + 1);
  const double pr = static_cast<double>(stats_.P(r));
  const double pl1 = static_cast<double>(stats_.P(l - 1));
  const double sx = PrefixStats::SumT(1, r - l + 1);
  const double sx2 = PrefixStats::SumT2(1, r - l + 1);
  const QuadraticDesign& design = Sap2Designs()[static_cast<size_t>(r - l)];

  double ssr_suffix = 0.0;
  {
    const double sum_p = stats_.SumP(l - 1, r - 1);
    const double sum_tp = stats_.SumTP(l - 1, r - 1);
    const double sum_t2p = stats_.SumT2P(l - 1, r - 1);
    const double sy = m * pr - sum_p;
    const double sy2 =
        m * pr * pr - 2.0 * pr * sum_p + stats_.SumP2(l - 1, r - 1);
    const double sxy = pr * sx - static_cast<double>(r) * sum_p + sum_tp;
    const double sx2y =
        pr * sx2 - (static_cast<double>(r) * static_cast<double>(r) * sum_p -
                    2.0 * static_cast<double>(r) * sum_tp + sum_t2p);
    ssr_suffix = design.Ssr(sy, sxy, sx2y, sy2);
  }
  double ssr_prefix = 0.0;
  {
    const double sum_p = stats_.SumP(l, r);
    const double sum_tp = stats_.SumTP(l, r);
    const double sum_t2p = stats_.SumT2P(l, r);
    const double lm1 = static_cast<double>(l - 1);
    const double sy = sum_p - m * pl1;
    const double sy2 =
        stats_.SumP2(l, r) - 2.0 * pl1 * sum_p + m * pl1 * pl1;
    const double sxy = (sum_tp - lm1 * sum_p) - pl1 * sx;
    const double sx2y =
        (sum_t2p - 2.0 * lm1 * sum_tp + lm1 * lm1 * sum_p) - pl1 * sx2;
    ssr_prefix = design.Ssr(sy, sxy, sx2y, sy2);
  }
  return Intra(l, r) + static_cast<double>(n() - r) * ssr_suffix +
         static_cast<double>(l - 1) * ssr_prefix;
}

double BucketCosts::SumU(int64_t l, int64_t r) const {
  // u'_a = s[a,r] - (r-a+1)*mu = Q[r] - Q[a-1]; t = a-1 in [l-1, r-1].
  const double m = static_cast<double>(r - l + 1);
  const double mu = Mu(l, r);
  const double qr = static_cast<double>(stats_.P(r)) -
                    mu * static_cast<double>(r);
  const WindowQ q = QMoments(l - 1, r - 1, mu);
  return m * qr - q.sum_q;
}

double BucketCosts::SumU2(int64_t l, int64_t r) const {
  const double m = static_cast<double>(r - l + 1);
  const double mu = Mu(l, r);
  const double qr = static_cast<double>(stats_.P(r)) -
                    mu * static_cast<double>(r);
  const WindowQ q = QMoments(l - 1, r - 1, mu);
  return std::fmax(0.0, m * qr * qr - 2.0 * qr * q.sum_q + q.sum_q2);
}

double BucketCosts::SumV(int64_t l, int64_t r) const {
  // v'_b = s[l,b] - (b-l+1)*mu = Q[b] - Q[l-1]; b in [l, r].
  const double m = static_cast<double>(r - l + 1);
  const double mu = Mu(l, r);
  const double ql1 = static_cast<double>(stats_.P(l - 1)) -
                     mu * static_cast<double>(l - 1);
  const WindowQ q = QMoments(l, r, mu);
  return q.sum_q - m * ql1;
}

double BucketCosts::SumV2(int64_t l, int64_t r) const {
  const double m = static_cast<double>(r - l + 1);
  const double mu = Mu(l, r);
  const double ql1 = static_cast<double>(stats_.P(l - 1)) -
                     mu * static_cast<double>(l - 1);
  const WindowQ q = QMoments(l, r, mu);
  return std::fmax(0.0, q.sum_q2 - 2.0 * ql1 * q.sum_q + m * ql1 * ql1);
}

double BucketCosts::A0Cost(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n());
  return Intra(l, r) + static_cast<double>(n() - r) * SumU2(l, r) +
         static_cast<double>(l - 1) * SumV2(l, r);
}

// ------------------------------------------------------- WeightedPointCosts

WeightedPointCosts::WeightedPointCosts(const std::vector<int64_t>& data,
                                       const std::vector<double>& weights)
    : n_(static_cast<int64_t>(data.size())) {
  RANGESYN_CHECK_EQ(data.size(), weights.size());
  RANGESYN_CHECK_GE(n_, 1);
  cum_w_.assign(static_cast<size_t>(n_) + 1, 0.0);
  cum_wa_.assign(static_cast<size_t>(n_) + 1, 0.0);
  cum_wa2_.assign(static_cast<size_t>(n_) + 1, 0.0);
  for (int64_t i = 1; i <= n_; ++i) {
    const double w = weights[static_cast<size_t>(i - 1)];
    RANGESYN_CHECK_GT(w, 0.0) << "weights must be positive";
    const double a = static_cast<double>(data[static_cast<size_t>(i - 1)]);
    const size_t k = static_cast<size_t>(i);
    cum_w_[k] = cum_w_[k - 1] + w;
    cum_wa_[k] = cum_wa_[k - 1] + w * a;
    cum_wa2_[k] = cum_wa2_[k - 1] + w * a * a;
  }
}

std::vector<double> WeightedPointCosts::RangeCoverageWeights(int64_t n) {
  std::vector<double> w(static_cast<size_t>(n));
  for (int64_t i = 1; i <= n; ++i) {
    w[static_cast<size_t>(i - 1)] =
        static_cast<double>(i) * static_cast<double>(n - i + 1);
  }
  return w;
}

std::vector<double> WeightedPointCosts::UniformWeights(int64_t n) {
  return std::vector<double>(static_cast<size_t>(n), 1.0);
}

double WeightedPointCosts::Cost(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n_);
  const double w = cum_w_[static_cast<size_t>(r)] -
                   cum_w_[static_cast<size_t>(l - 1)];
  const double wa = cum_wa_[static_cast<size_t>(r)] -
                    cum_wa_[static_cast<size_t>(l - 1)];
  const double wa2 = cum_wa2_[static_cast<size_t>(r)] -
                     cum_wa2_[static_cast<size_t>(l - 1)];
  // sum w_i (A_i - mu_w)^2 = sum w A^2 - (sum w A)^2 / sum w.
  return std::fmax(0.0, wa2 - wa * wa / w);
}

double WeightedPointCosts::WeightedMean(int64_t l, int64_t r) const {
  RANGESYN_DCHECK(l >= 1 && l <= r && r <= n_);
  const double w = cum_w_[static_cast<size_t>(r)] -
                   cum_w_[static_cast<size_t>(l - 1)];
  const double wa = cum_wa_[static_cast<size_t>(r)] -
                    cum_wa_[static_cast<size_t>(l - 1)];
  return wa / w;
}

}  // namespace rangesyn
