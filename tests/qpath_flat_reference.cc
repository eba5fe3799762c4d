#include "qpath_flat_reference.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "core/mathutil.h"

namespace rangesyn {
namespace {

double MaybeRoundPiece(double piece, PieceRounding rounding) {
  if (rounding == PieceRounding::kPerPiece) {
    return static_cast<double>(RoundHalfToEven(piece));
  }
  return piece;
}

/// cum[k] = sum over buckets j < k of width_j * value_j.
std::vector<double> CumulativeMass(const Partition& partition,
                                   const std::vector<double>& values) {
  std::vector<double> cum(static_cast<size_t>(partition.num_buckets()) + 1,
                          0.0);
  for (int64_t k = 0; k < partition.num_buckets(); ++k) {
    cum[static_cast<size_t>(k + 1)] =
        cum[static_cast<size_t>(k)] +
        static_cast<double>(partition.bucket_width(k)) *
            values[static_cast<size_t>(k)];
  }
  return cum;
}

}  // namespace

double ReferenceReconstructAt(std::span<const double> heights,
                              std::span<const double> table, int64_t padded,
                              int64_t t) {
  double v = 0.0;
  v += table[0] * heights[0];
  const int64_t levels = FloorLog2(static_cast<uint64_t>(padded));
  int64_t j = 0;
  for (int64_t shift = levels; shift > 0; --shift, ++j) {
    const int64_t base = padded >> shift;
    const int64_t k = base + (t >> shift);
    const int64_t start = (k - base) << shift;
    const int64_t mid = start + (int64_t{1} << (shift - 1));
    const double h = heights[j];
    v += table[k] * (t < mid ? h : -h);
  }
  return v;
}

double ReferenceRangeSum(std::span<const double> heights,
                         std::span<const double> table, int64_t padded,
                         int64_t lo, int64_t hi) {
  double v = 0.0;
  v += table[0] * (static_cast<double>(hi - lo + 1) * heights[0]);
  const int64_t levels = FloorLog2(static_cast<uint64_t>(padded));
  int64_t j = 0;
  for (int64_t shift = levels; shift > 0; --shift, ++j) {
    const int64_t base = padded >> shift;
    const int64_t level_size = int64_t{1} << shift;
    const int64_t a_lo = base + (lo >> shift);
    const int64_t a_hi = base + (hi >> shift);
    const double h = heights[j];
    {
      const int64_t start = (a_lo - base) << shift;
      const int64_t s_lo = std::max(lo, start);
      const int64_t s_hi = std::min(hi, start + level_size - 1);
      const int64_t mid = start + (level_size >> 1);
      const int64_t plus =
          std::max<int64_t>(0, std::min(s_hi, mid - 1) - s_lo + 1);
      const int64_t minus =
          std::max<int64_t>(0, s_hi - std::max(s_lo, mid) + 1);
      v += table[a_lo] * (static_cast<double>(plus - minus) * h);
    }
    if (a_hi != a_lo) {
      const int64_t start = (a_hi - base) << shift;
      const int64_t s_lo = std::max(lo, start);
      const int64_t s_hi = std::min(hi, start + level_size - 1);
      const int64_t mid = start + (level_size >> 1);
      const int64_t plus =
          std::max<int64_t>(0, std::min(s_hi, mid - 1) - s_lo + 1);
      const int64_t minus =
          std::max<int64_t>(0, s_hi - std::max(s_lo, mid) + 1);
      v += table[a_hi] * (static_cast<double>(plus - minus) * h);
    }
  }
  return v;
}

LegacyReference::LegacyReference(const AvgHistogram& h)
    : record_(h), cum_mass_(CumulativeMass(h.partition(), h.values())) {}

LegacyReference::LegacyReference(const Sap0Histogram& h)
    : record_(h), cum_mass_(CumulativeMass(h.partition(), h.averages())) {}

LegacyReference::LegacyReference(const WeightedSap0Histogram& h)
    : record_(h), cum_mass_(CumulativeMass(h.partition(), h.averages())) {}

LegacyReference::LegacyReference(const Sap1Histogram& h)
    : record_(h), cum_mass_(CumulativeMass(h.partition(), h.averages())) {}

LegacyReference::LegacyReference(const Sap2Histogram& h)
    : record_(h), cum_mass_(CumulativeMass(h.partition(), h.averages())) {}

LegacyReference::LegacyReference(const NaiveEstimator& e) : record_(e) {}

LegacyReference::LegacyReference(const WaveletSynopsis& w)
    : record_(w), table_(static_cast<size_t>(w.padded_size()), 0.0) {
  const int64_t levels = FloorLog2(static_cast<uint64_t>(w.padded_size()));
  for (int64_t j = 0; j <= levels; ++j) {
    heights_.push_back(1.0 / std::sqrt(static_cast<double>(
                                 w.padded_size() >> j)));
  }
  for (const WaveletCoefficient& c : w.coefficients()) {
    table_[static_cast<size_t>(c.index)] = c.value;
  }
}

double LegacyReference::EstimateRange(int64_t a, int64_t b) const {
  return std::visit(
      [&](const auto& record) { return Estimate(record, a, b); }, record_);
}

double LegacyReference::Estimate(const AvgHistogram& h, int64_t a,
                                 int64_t b) const {
  const Partition& partition_ = h.partition();
  const std::vector<double>& values_ = h.values();
  const PieceRounding rounding_ = h.rounding();
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= partition_.n());
  const int64_t ka = partition_.BucketOf(a);
  const int64_t kb = partition_.BucketOf(b);
  if (ka == kb) {
    const double whole =
        static_cast<double>(b - a + 1) * values_[static_cast<size_t>(ka)];
    if (rounding_ == PieceRounding::kNone) return whole;
    return static_cast<double>(RoundHalfToEven(whole));
  }
  const double left = static_cast<double>(partition_.bucket_end(ka) - a + 1) *
                      values_[static_cast<size_t>(ka)];
  const double right =
      static_cast<double>(b - partition_.bucket_start(kb) + 1) *
      values_[static_cast<size_t>(kb)];
  const double middle = MiddleMass(ka, kb);
  const double total = MaybeRoundPiece(left, rounding_) + middle +
                       MaybeRoundPiece(right, rounding_);
  if (rounding_ == PieceRounding::kWhole) {
    return static_cast<double>(RoundHalfToEven(total));
  }
  return total;
}

double LegacyReference::Estimate(const Sap0Histogram& h, int64_t a,
                                 int64_t b) const {
  const Partition& partition_ = h.partition();
  const std::vector<double>& suff_ = h.suffix_values();
  const std::vector<double>& pref_ = h.prefix_values();
  const std::vector<double>& avg_ = h.averages();
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= partition_.n());
  const int64_t ka = partition_.BucketOf(a);
  const int64_t kb = partition_.BucketOf(b);
  if (ka == kb) {
    return static_cast<double>(b - a + 1) * avg_[static_cast<size_t>(ka)];
  }
  return suff_[static_cast<size_t>(ka)] + MiddleMass(ka, kb) +
         pref_[static_cast<size_t>(kb)];
}

double LegacyReference::Estimate(const WeightedSap0Histogram& h, int64_t a,
                                 int64_t b) const {
  const Partition& partition_ = h.partition();
  const std::vector<double>& suff_ = h.suffix_values();
  const std::vector<double>& pref_ = h.prefix_values();
  const std::vector<double>& avg_ = h.averages();
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= partition_.n());
  const int64_t ka = partition_.BucketOf(a);
  const int64_t kb = partition_.BucketOf(b);
  if (ka == kb) {
    return static_cast<double>(b - a + 1) * avg_[static_cast<size_t>(ka)];
  }
  return suff_[static_cast<size_t>(ka)] + MiddleMass(ka, kb) +
         pref_[static_cast<size_t>(kb)];
}

double LegacyReference::Estimate(const Sap1Histogram& h, int64_t a,
                                 int64_t b) const {
  const Partition& partition_ = h.partition();
  const std::vector<double>& suff_slope_ = h.suffix_slopes();
  const std::vector<double>& suff_icept_ = h.suffix_intercepts();
  const std::vector<double>& pref_slope_ = h.prefix_slopes();
  const std::vector<double>& pref_icept_ = h.prefix_intercepts();
  const std::vector<double>& avg_ = h.averages();
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= partition_.n());
  const int64_t ka = partition_.BucketOf(a);
  const int64_t kb = partition_.BucketOf(b);
  if (ka == kb) {
    return static_cast<double>(b - a + 1) * avg_[static_cast<size_t>(ka)];
  }
  const double left_len =
      static_cast<double>(partition_.bucket_end(ka) - a + 1);
  const double right_len =
      static_cast<double>(b - partition_.bucket_start(kb) + 1);
  return left_len * suff_slope_[static_cast<size_t>(ka)] +
         suff_icept_[static_cast<size_t>(ka)] +
         right_len * pref_slope_[static_cast<size_t>(kb)] +
         pref_icept_[static_cast<size_t>(kb)] + MiddleMass(ka, kb);
}

double LegacyReference::Estimate(const Sap2Histogram& h, int64_t a,
                                 int64_t b) const {
  const Partition& partition_ = h.partition();
  const std::vector<Sap2Histogram::Model>& suff_ = h.suffix_models();
  const std::vector<Sap2Histogram::Model>& pref_ = h.prefix_models();
  const std::vector<double>& avg_ = h.averages();
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= partition_.n());
  const int64_t ka = partition_.BucketOf(a);
  const int64_t kb = partition_.BucketOf(b);
  if (ka == kb) {
    return static_cast<double>(b - a + 1) * avg_[static_cast<size_t>(ka)];
  }
  const double left_len =
      static_cast<double>(partition_.bucket_end(ka) - a + 1);
  const double right_len =
      static_cast<double>(b - partition_.bucket_start(kb) + 1);
  return suff_[static_cast<size_t>(ka)].At(left_len) +
         pref_[static_cast<size_t>(kb)].At(right_len) + MiddleMass(ka, kb);
}

double LegacyReference::Estimate(const NaiveEstimator& e, int64_t a,
                                 int64_t b) const {
  const int64_t n_ = e.domain_size();
  const double avg_ = e.average();
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= n_);
  return static_cast<double>(b - a + 1) * avg_;
}

double LegacyReference::Estimate(const WaveletSynopsis& w, int64_t a,
                                 int64_t b) const {
  RANGESYN_DCHECK(a >= 1 && a <= b && b <= w.domain_size());
  if (w.domain() == WaveletDomain::kData) {
    return ReferenceRangeSum(heights_, table_, w.padded_size(), a - 1, b - 1);
  }
  // Prefix domain: s[a,b] = P[b] - P[a-1]; P[t] sits at slot t.
  return ReferenceReconstructAt(heights_, table_, w.padded_size(), b) -
         ReferenceReconstructAt(heights_, table_, w.padded_size(), a - 1);
}

}  // namespace rangesyn
