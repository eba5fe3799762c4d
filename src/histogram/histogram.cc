#include "histogram/histogram.h"

#include <numeric>

#include "core/logging.h"
#include "core/strings.h"
#include "histogram/prefix_stats.h"
#include "histogram/quadratic_fit.h"

namespace rangesyn {
namespace {

/// Flattens SAP2 quadratic models to c0, c1, c2 per bucket.
std::vector<double> ModelCoefficients(
    const std::vector<Sap2Histogram::Model>& models) {
  std::vector<double> out;
  out.reserve(3 * models.size());
  for (const Sap2Histogram::Model& m : models) {
    out.insert(out.end(), {m.c0, m.c1, m.c2});
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- AvgHistogram

AvgHistogram::AvgHistogram(Partition partition, std::vector<double> values,
                           std::string name, PieceRounding rounding)
    : partition_(std::move(partition)),
      values_(std::move(values)),
      name_(std::move(name)),
      rounding_(rounding) {}

Result<AvgHistogram> AvgHistogram::Create(Partition partition,
                                          std::vector<double> values,
                                          std::string name,
                                          PieceRounding rounding) {
  if (static_cast<int64_t>(values.size()) != partition.num_buckets()) {
    return InvalidArgumentError(
        StrCat("AvgHistogram: ", values.size(), " values for ",
               partition.num_buckets(), " buckets"));
  }
  return AvgHistogram(std::move(partition), std::move(values),
                      std::move(name), rounding);
}

Result<AvgHistogram> AvgHistogram::WithTrueAverages(
    const std::vector<int64_t>& data, Partition partition, std::string name,
    PieceRounding rounding) {
  if (static_cast<int64_t>(data.size()) != partition.n()) {
    return InvalidArgumentError("AvgHistogram: data size != partition n");
  }
  PrefixStats stats(data);
  std::vector<double> values(static_cast<size_t>(partition.num_buckets()));
  for (int64_t k = 0; k < partition.num_buckets(); ++k) {
    const int64_t l = partition.bucket_start(k);
    const int64_t r = partition.bucket_end(k);
    values[static_cast<size_t>(k)] =
        static_cast<double>(stats.Sum(l, r)) /
        static_cast<double>(r - l + 1);
  }
  return Create(std::move(partition), std::move(values), std::move(name),
                rounding);
}

Result<std::shared_ptr<const FlatSynopsis>> AvgHistogram::Compile() const {
  return FlatSynopsis::FromHistogram(
      FlatKind::kAvgHistogram, static_cast<uint8_t>(rounding_),
      partition_.n(), partition_.ends(), values_, {values_}, name_,
      StorageWords());
}

AvgHistogram AvgHistogram::WithValues(std::vector<double> values,
                                      std::string name) const {
  RANGESYN_CHECK_EQ(static_cast<int64_t>(values.size()),
                    partition_.num_buckets());
  return AvgHistogram(partition_, std::move(values), std::move(name),
                      rounding_);
}

// --------------------------------------------------------------- Sap0Histogram

Sap0Histogram::Sap0Histogram(Partition partition, std::vector<double> suff,
                             std::vector<double> pref,
                             std::vector<double> avg)
    : partition_(std::move(partition)),
      suff_(std::move(suff)),
      pref_(std::move(pref)),
      avg_(std::move(avg)) {}

Result<Sap0Histogram> Sap0Histogram::Build(const std::vector<int64_t>& data,
                                           Partition partition) {
  if (static_cast<int64_t>(data.size()) != partition.n()) {
    return InvalidArgumentError("Sap0Histogram: data size != partition n");
  }
  PrefixStats stats(data);
  const int64_t num_buckets = partition.num_buckets();
  std::vector<double> suff(static_cast<size_t>(num_buckets));
  std::vector<double> pref(static_cast<size_t>(num_buckets));
  std::vector<double> avg(static_cast<size_t>(num_buckets));
  for (int64_t k = 0; k < num_buckets; ++k) {
    const int64_t l = partition.bucket_start(k);
    const int64_t r = partition.bucket_end(k);
    const double m = static_cast<double>(r - l + 1);
    // Average of suffix sums s[a,r] over a in [l,r]:
    //   (1/m) * (m*P[r] - sum_{t=l-1..r-1} P[t]).
    const double sum_suffix =
        m * static_cast<double>(stats.P(r)) - stats.SumP(l - 1, r - 1);
    // Average of prefix sums s[l,b] over b in [l,r]:
    //   (1/m) * (sum_{t=l..r} P[t] - m*P[l-1]).
    const double sum_prefix =
        stats.SumP(l, r) - m * static_cast<double>(stats.P(l - 1));
    suff[static_cast<size_t>(k)] = sum_suffix / m;
    pref[static_cast<size_t>(k)] = sum_prefix / m;
    avg[static_cast<size_t>(k)] =
        static_cast<double>(stats.Sum(l, r)) / m;
  }
  return Sap0Histogram(std::move(partition), std::move(suff),
                       std::move(pref), std::move(avg));
}

Result<Sap0Histogram> Sap0Histogram::FromSummaries(
    Partition partition, std::vector<double> suffixes,
    std::vector<double> prefixes) {
  const int64_t num_buckets = partition.num_buckets();
  if (static_cast<int64_t>(suffixes.size()) != num_buckets ||
      static_cast<int64_t>(prefixes.size()) != num_buckets) {
    return InvalidArgumentError("Sap0::FromSummaries: size mismatch");
  }
  std::vector<double> avg(static_cast<size_t>(num_buckets));
  for (int64_t k = 0; k < num_buckets; ++k) {
    const double m = static_cast<double>(partition.bucket_width(k));
    // Sum over the bucket of (prefix sum + suffix sum) counts every entry
    // m+1 times: m * (pref + suff) = (m+1) * s, so avg = s/m below.
    avg[static_cast<size_t>(k)] = (prefixes[static_cast<size_t>(k)] +
                                   suffixes[static_cast<size_t>(k)]) /
                                  (m + 1.0);
  }
  return Sap0Histogram(std::move(partition), std::move(suffixes),
                       std::move(prefixes), std::move(avg));
}

Result<std::shared_ptr<const FlatSynopsis>> Sap0Histogram::Compile() const {
  return FlatSynopsis::FromHistogram(FlatKind::kSap0, 0, partition_.n(),
                                     partition_.ends(), avg_,
                                     {suff_, pref_, avg_}, Name(),
                                     StorageWords());
}

// --------------------------------------------------------------- Sap1Histogram

Sap1Histogram::Sap1Histogram(Partition partition, std::vector<double> ss,
                             std::vector<double> si, std::vector<double> ps,
                             std::vector<double> pi, std::vector<double> avg)
    : partition_(std::move(partition)),
      suff_slope_(std::move(ss)),
      suff_icept_(std::move(si)),
      pref_slope_(std::move(ps)),
      pref_icept_(std::move(pi)),
      avg_(std::move(avg)) {}

Result<Sap1Histogram> Sap1Histogram::Build(const std::vector<int64_t>& data,
                                           Partition partition) {
  if (static_cast<int64_t>(data.size()) != partition.n()) {
    return InvalidArgumentError("Sap1Histogram: data size != partition n");
  }
  PrefixStats stats(data);
  const int64_t num_buckets = partition.num_buckets();
  std::vector<double> ss(static_cast<size_t>(num_buckets));
  std::vector<double> si(static_cast<size_t>(num_buckets));
  std::vector<double> ps(static_cast<size_t>(num_buckets));
  std::vector<double> pi(static_cast<size_t>(num_buckets));
  std::vector<double> avg(static_cast<size_t>(num_buckets));
  for (int64_t k = 0; k < num_buckets; ++k) {
    const int64_t l = partition.bucket_start(k);
    const int64_t r = partition.bucket_end(k);
    const double m = static_cast<double>(r - l + 1);
    avg[static_cast<size_t>(k)] = static_cast<double>(stats.Sum(l, r)) / m;

    // Regress suffix sums y_a = s[a,r] on piece length x_a = r-a+1.
    // x takes values 1..m; Sxx = m(m^2-1)/12 in closed form.
    const double sum_x = m * (m + 1) / 2.0;
    const double sxx = m * (m * m - 1.0) / 12.0;
    {
      const double sum_y =
          m * static_cast<double>(stats.P(r)) - stats.SumP(l - 1, r - 1);
      // sum of x*y with t = a-1 in [l-1, r-1], x = r-t, y = P[r]-P[t].
      const double sum_xy =
          static_cast<double>(stats.P(r)) * sum_x -
          static_cast<double>(r) * stats.SumP(l - 1, r - 1) +
          stats.SumTP(l - 1, r - 1);
      const double sxy = sum_xy - sum_x * sum_y / m;
      const double slope = (sxx > 0.0) ? sxy / sxx : 0.0;
      const double icept = sum_y / m - slope * sum_x / m;
      ss[static_cast<size_t>(k)] = slope;
      si[static_cast<size_t>(k)] = icept;
    }
    // Regress prefix sums y_b = s[l,b] on piece length x_b = b-l+1.
    {
      const double sum_y =
          stats.SumP(l, r) - m * static_cast<double>(stats.P(l - 1));
      // sum of x*y with b in [l, r], x = b-l+1, y = P[b]-P[l-1].
      const double sum_xy =
          (stats.SumTP(l, r) -
           static_cast<double>(l - 1) * stats.SumP(l, r)) -
          static_cast<double>(stats.P(l - 1)) * sum_x;
      const double sxy = sum_xy - sum_x * sum_y / m;
      const double slope = (sxx > 0.0) ? sxy / sxx : 0.0;
      const double icept = sum_y / m - slope * sum_x / m;
      ps[static_cast<size_t>(k)] = slope;
      pi[static_cast<size_t>(k)] = icept;
    }
  }
  return Sap1Histogram(std::move(partition), std::move(ss), std::move(si),
                       std::move(ps), std::move(pi), std::move(avg));
}

Result<Sap1Histogram> Sap1Histogram::FromSummaries(
    Partition partition, std::vector<double> suffix_slopes,
    std::vector<double> suffix_intercepts, std::vector<double> prefix_slopes,
    std::vector<double> prefix_intercepts) {
  const int64_t num_buckets = partition.num_buckets();
  if (static_cast<int64_t>(suffix_slopes.size()) != num_buckets ||
      static_cast<int64_t>(suffix_intercepts.size()) != num_buckets ||
      static_cast<int64_t>(prefix_slopes.size()) != num_buckets ||
      static_cast<int64_t>(prefix_intercepts.size()) != num_buckets) {
    return InvalidArgumentError("Sap1::FromSummaries: size mismatch");
  }
  std::vector<double> avg(static_cast<size_t>(num_buckets));
  for (int64_t k = 0; k < num_buckets; ++k) {
    const double m = static_cast<double>(partition.bucket_width(k));
    const double mean_len = (m + 1.0) / 2.0;
    // Regression lines pass through (x̄, ȳ), so the SAP0-style averages of
    // the suffix/prefix sums are recoverable from the fits.
    const double suff_bar =
        suffix_slopes[static_cast<size_t>(k)] * mean_len +
        suffix_intercepts[static_cast<size_t>(k)];
    const double pref_bar =
        prefix_slopes[static_cast<size_t>(k)] * mean_len +
        prefix_intercepts[static_cast<size_t>(k)];
    avg[static_cast<size_t>(k)] = (pref_bar + suff_bar) / (m + 1.0);
  }
  return Sap1Histogram(std::move(partition), std::move(suffix_slopes),
                       std::move(suffix_intercepts),
                       std::move(prefix_slopes),
                       std::move(prefix_intercepts), std::move(avg));
}

Result<std::shared_ptr<const FlatSynopsis>> Sap1Histogram::Compile() const {
  return FlatSynopsis::FromHistogram(
      FlatKind::kSap1, 0, partition_.n(), partition_.ends(), avg_,
      {suff_slope_, suff_icept_, pref_slope_, pref_icept_, avg_}, Name(),
      StorageWords());
}

// --------------------------------------------------------------- Sap2Histogram

Sap2Histogram::Sap2Histogram(Partition partition, std::vector<Model> suff,
                             std::vector<Model> pref,
                             std::vector<double> avg)
    : partition_(std::move(partition)),
      suff_(std::move(suff)),
      pref_(std::move(pref)),
      avg_(std::move(avg)) {}

Result<Sap2Histogram> Sap2Histogram::Build(const std::vector<int64_t>& data,
                                           Partition partition) {
  if (static_cast<int64_t>(data.size()) != partition.n()) {
    return InvalidArgumentError("Sap2Histogram: data size != partition n");
  }
  PrefixStats stats(data);
  const int64_t num_buckets = partition.num_buckets();
  std::vector<Model> suff(static_cast<size_t>(num_buckets));
  std::vector<Model> pref(static_cast<size_t>(num_buckets));
  std::vector<double> avg(static_cast<size_t>(num_buckets));
  for (int64_t k = 0; k < num_buckets; ++k) {
    const int64_t l = partition.bucket_start(k);
    const int64_t r = partition.bucket_end(k);
    const double m = static_cast<double>(r - l + 1);
    avg[static_cast<size_t>(k)] = static_cast<double>(stats.Sum(l, r)) / m;
    // Piece lengths x run over 1..m for both sides.
    const double sx = PrefixStats::SumT(1, r - l + 1);
    const double sx2 = PrefixStats::SumT2(1, r - l + 1);
    const double sx3 = PrefixStats::SumT3(1, r - l + 1);
    const double sx4 = PrefixStats::SumT4(1, r - l + 1);
    const double pr = static_cast<double>(stats.P(r));
    const double pl1 = static_cast<double>(stats.P(l - 1));
    {
      // Suffix sums: t = a-1 in [l-1, r-1], x = r-t, y = P[r]-P[t].
      const double sum_p = stats.SumP(l - 1, r - 1);
      const double sum_tp = stats.SumTP(l - 1, r - 1);
      const double sum_t2p = stats.SumT2P(l - 1, r - 1);
      const double sy = m * pr - sum_p;
      const double sy2 =
          m * pr * pr - 2.0 * pr * sum_p + stats.SumP2(l - 1, r - 1);
      const double sxy =
          pr * sx - static_cast<double>(r) * sum_p + sum_tp;
      const double sx2y =
          pr * sx2 - (static_cast<double>(r) * static_cast<double>(r) *
                          sum_p -
                      2.0 * static_cast<double>(r) * sum_tp + sum_t2p);
      const QuadraticFit fit = FitQuadraticFromMoments(
          m, sx, sx2, sx3, sx4, sy, sxy, sx2y, sy2);
      suff[static_cast<size_t>(k)] = {fit.c0, fit.c1, fit.c2};
    }
    {
      // Prefix sums: b in [l, r], x = b-l+1, y = P[b]-P[l-1].
      const double sum_p = stats.SumP(l, r);
      const double sum_tp = stats.SumTP(l, r);
      const double sum_t2p = stats.SumT2P(l, r);
      const double lm1 = static_cast<double>(l - 1);
      const double sy = sum_p - m * pl1;
      const double sy2 =
          stats.SumP2(l, r) - 2.0 * pl1 * sum_p + m * pl1 * pl1;
      const double sxy = (sum_tp - lm1 * sum_p) - pl1 * sx;
      const double sx2y =
          (sum_t2p - 2.0 * lm1 * sum_tp + lm1 * lm1 * sum_p) - pl1 * sx2;
      const QuadraticFit fit = FitQuadraticFromMoments(
          m, sx, sx2, sx3, sx4, sy, sxy, sx2y, sy2);
      pref[static_cast<size_t>(k)] = {fit.c0, fit.c1, fit.c2};
    }
  }
  return Sap2Histogram(std::move(partition), std::move(suff),
                       std::move(pref), std::move(avg));
}

Result<Sap2Histogram> Sap2Histogram::FromSummaries(
    Partition partition, std::vector<Model> suffix_models,
    std::vector<Model> prefix_models) {
  const int64_t num_buckets = partition.num_buckets();
  if (static_cast<int64_t>(suffix_models.size()) != num_buckets ||
      static_cast<int64_t>(prefix_models.size()) != num_buckets) {
    return InvalidArgumentError("Sap2::FromSummaries: size mismatch");
  }
  std::vector<double> avg(static_cast<size_t>(num_buckets));
  for (int64_t k = 0; k < num_buckets; ++k) {
    const double m = static_cast<double>(partition.bucket_width(k));
    // Least squares with intercept: residuals sum to zero, so the sample
    // mean is the model evaluated at the moment means (x̄, x²-bar).
    const double mean_x = PrefixStats::SumT(1, partition.bucket_width(k)) / m;
    const double mean_x2 =
        PrefixStats::SumT2(1, partition.bucket_width(k)) / m;
    const Model& s = suffix_models[static_cast<size_t>(k)];
    const Model& p = prefix_models[static_cast<size_t>(k)];
    const double suff_bar = s.c0 + s.c1 * mean_x + s.c2 * mean_x2;
    const double pref_bar = p.c0 + p.c1 * mean_x + p.c2 * mean_x2;
    avg[static_cast<size_t>(k)] = (pref_bar + suff_bar) / (m + 1.0);
  }
  return Sap2Histogram(std::move(partition), std::move(suffix_models),
                       std::move(prefix_models), std::move(avg));
}

Result<std::shared_ptr<const FlatSynopsis>> Sap2Histogram::Compile() const {
  return FlatSynopsis::FromHistogram(
      FlatKind::kSap2, 0, partition_.n(), partition_.ends(), avg_,
      {ModelCoefficients(suff_), ModelCoefficients(pref_), avg_}, Name(),
      StorageWords());
}

// -------------------------------------------------------------- NaiveEstimator

Result<NaiveEstimator> NaiveEstimator::Build(
    const std::vector<int64_t>& data) {
  if (data.empty()) return InvalidArgumentError("NaiveEstimator: empty data");
  const double total = static_cast<double>(
      std::accumulate(data.begin(), data.end(), int64_t{0}));
  return NaiveEstimator(static_cast<int64_t>(data.size()),
                        total / static_cast<double>(data.size()));
}

Result<NaiveEstimator> NaiveEstimator::FromAverage(int64_t n,
                                                   double average) {
  if (n < 1) return InvalidArgumentError("NaiveEstimator: n must be >= 1");
  return NaiveEstimator(n, average);
}

Result<std::shared_ptr<const FlatSynopsis>> NaiveEstimator::Compile() const {
  return FlatSynopsis::FromVectors(FlatKind::kNaive, 0, n_, 0, 0, {}, {avg_},
                                   Name(), StorageWords());
}

}  // namespace rangesyn
