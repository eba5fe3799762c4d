#include "audit/verifier.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "audit/oracles.h"
#include "core/logging.h"
#include "core/mathutil.h"
#include "core/strings.h"
#include "histogram/bucket_cost.h"
#include "histogram/builders.h"
#include "histogram/prefix_stats.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"
#include "wavelet/haar.h"
#include "wavelet/selection.h"
#include "wavelet/synopsis.h"

namespace rangesyn {
namespace audit {
namespace {

Status ValidateAuditInput(const std::vector<int64_t>& data, int64_t max_n) {
  if (data.empty()) return InvalidArgumentError("verifier: empty data");
  if (static_cast<int64_t>(data.size()) > max_n) {
    return FailedPreconditionError(
        StrCat("verifier: n=", data.size(), " exceeds brute-force cap ",
               max_n));
  }
  for (int64_t v : data) {
    if (v < 0) return InvalidArgumentError("verifier: negative count");
  }
  return OkStatus();
}

/// Sum of `cost` over the buckets of `partition`.
double ResumCost(const Partition& partition, const BucketCostFn& cost) {
  double total = 0.0;
  for (int64_t k = 0; k < partition.num_buckets(); ++k) {
    total += cost(partition.bucket_start(k), partition.bucket_end(k));
  }
  return total;
}

}  // namespace

Status Verifier::CheckClose(double actual, double expected,
                            const char* what) const {
  if (AlmostEqual(actual, expected, options_.rel_tol, options_.abs_tol)) {
    return OkStatus();
  }
  return InternalError(StrCat("audit mismatch [", what, "]: got ", actual,
                              ", reference ", expected, " (reldiff ",
                              RelDiff(actual, expected), ")"));
}

Status Verifier::VerifyPartition(const Partition& partition) const {
  return CheckPartitionWellFormed(partition);
}

Status Verifier::VerifyIntervalDp(int64_t n, int64_t max_buckets,
                                  const BucketCostFn& cost) const {
  RANGESYN_ASSIGN_OR_RETURN(IntervalDpResult at_most,
                            SolveIntervalDp(n, max_buckets, cost));
  RANGESYN_ASSIGN_OR_RETURN(std::vector<IntervalDpResult> per_k,
                            SolveIntervalDpAllK(n, max_buckets, cost));
  RANGESYN_RETURN_IF_ERROR(CheckPartitionWellFormed(at_most.partition));
  RANGESYN_RETURN_IF_ERROR(
      CheckClose(ResumCost(at_most.partition, cost), at_most.cost,
                 "dp at-most cost resum"));
  double best_k_cost = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < per_k.size(); ++i) {
    const IntervalDpResult& r = per_k[i];
    const int64_t k = static_cast<int64_t>(i) + 1;
    RANGESYN_RETURN_IF_ERROR(CheckPartitionWellFormed(r.partition));
    if (r.buckets_used != k || r.partition.num_buckets() != k) {
      return InternalError(StrCat("audit mismatch [dp exact-k]: asked for ",
                                  k, " buckets, got ",
                                  r.partition.num_buckets()));
    }
    RANGESYN_RETURN_IF_ERROR(
        CheckClose(ResumCost(r.partition, cost), r.cost,
                   "dp exact-k cost resum"));
    best_k_cost = std::min(best_k_cost, r.cost);
    if (n <= options_.max_exhaustive_n) {
      RANGESYN_ASSIGN_OR_RETURN(NaivePartitionOpt naive,
                                NaiveMinCostPartition(n, k, cost));
      RANGESYN_RETURN_IF_ERROR(
          CheckClose(r.cost, naive.cost, "dp vs exhaustive partitions"));
    }
  }
  return CheckClose(at_most.cost, best_k_cost, "dp at-most vs best exact-k");
}

Status Verifier::VerifySap0(const std::vector<int64_t>& data,
                            int64_t buckets) const {
  RANGESYN_RETURN_IF_ERROR(ValidateAuditInput(data, options_.max_n));
  RANGESYN_ASSIGN_OR_RETURN(Sap0Histogram hist, BuildSap0(data, buckets));
  RANGESYN_RETURN_IF_ERROR(CheckPartitionWellFormed(hist.partition()));

  PrefixStats stats(data);
  BucketCosts costs(stats);
  const BucketCostFn cost_fn = [&costs](int64_t l, int64_t r) {
    return costs.Sap0Cost(l, r);
  };
  // Decomposition Lemma: the additive bucket costs of the chosen partition
  // sum to the true all-ranges SSE of the histogram built on it.
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> view,
                            hist.Compile());
  RANGESYN_ASSIGN_OR_RETURN(double naive_sse, NaiveAllRangesSse(data, *view));
  RANGESYN_RETURN_IF_ERROR(CheckClose(ResumCost(hist.partition(), cost_fn),
                                      naive_sse, "sap0 decomposition"));
  // Range-optimality (paper Theorem 6) against exhaustive enumeration.
  if (stats.n() <= options_.max_exhaustive_n) {
    RANGESYN_ASSIGN_OR_RETURN(
        NaivePartitionOpt naive,
        NaiveMinCostPartitionAtMost(stats.n(), buckets, cost_fn));
    RANGESYN_RETURN_IF_ERROR(
        CheckClose(naive_sse, naive.cost, "sap0 range-optimality"));
  }
  return OkStatus();
}

Status Verifier::VerifyWeightedSap0(const std::vector<int64_t>& data,
                                    int64_t buckets,
                                    const RangeWorkloadWeights& weights) const {
  RANGESYN_RETURN_IF_ERROR(ValidateAuditInput(data, options_.max_n));
  RANGESYN_ASSIGN_OR_RETURN(WeightedSap0Histogram hist,
                            BuildWeightedSap0(data, buckets, weights));
  RANGESYN_RETURN_IF_ERROR(CheckPartitionWellFormed(hist.partition()));
  RANGESYN_ASSIGN_OR_RETURN(WeightedSap0Costs costs,
                            WeightedSap0Costs::Create(data, weights));
  const BucketCostFn cost_fn = [&costs](int64_t l, int64_t r) {
    return costs.Cost(l, r);
  };
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> view,
                            hist.Compile());
  RANGESYN_ASSIGN_OR_RETURN(
      double naive_sse,
      NaiveWeightedAllRangesSse(data, *view, weights.alpha, weights.beta));
  RANGESYN_RETURN_IF_ERROR(CheckClose(ResumCost(hist.partition(), cost_fn),
                                      naive_sse,
                                      "weighted-sap0 decomposition"));
  if (costs.n() <= options_.max_exhaustive_n) {
    RANGESYN_ASSIGN_OR_RETURN(
        NaivePartitionOpt naive,
        NaiveMinCostPartitionAtMost(costs.n(), buckets, cost_fn));
    RANGESYN_RETURN_IF_ERROR(
        CheckClose(naive_sse, naive.cost, "weighted-sap0 optimality"));
  }
  return OkStatus();
}

Status Verifier::VerifyWaveRangeOpt(const std::vector<int64_t>& data,
                                    int64_t budget) const {
  RANGESYN_RETURN_IF_ERROR(ValidateAuditInput(data, options_.max_n));
  RANGESYN_ASSIGN_OR_RETURN(WaveletSynopsis synopsis,
                            BuildWaveRangeOpt(data, budget));
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t padded = synopsis.padded_size();

  // Recompute the prefix-domain transform and check the retained set is a
  // genuine top-|c| set over the non-DC coefficients.
  std::vector<double> p(static_cast<size_t>(padded), 0.0);
  int64_t acc = 0;
  for (int64_t t = 1; t < padded; ++t) {
    if (t <= n) acc += data[static_cast<size_t>(t - 1)];
    p[static_cast<size_t>(t)] = static_cast<double>(acc);
  }
  RANGESYN_ASSIGN_OR_RETURN(std::vector<double> coeffs, HaarTransform(p));
  std::vector<bool> kept(coeffs.size(), false);
  double min_kept = std::numeric_limits<double>::infinity();
  for (const WaveletCoefficient& c : synopsis.coefficients()) {
    if (c.index < 1 || c.index >= padded) {
      return InternalError(
          StrCat("audit mismatch [wave-range-opt]: coefficient index ",
                 c.index, " outside (0, ", padded, ")"));
    }
    RANGESYN_RETURN_IF_ERROR(
        CheckClose(c.value, coeffs[static_cast<size_t>(c.index)],
                   "wave-range-opt stored coefficient"));
    kept[static_cast<size_t>(c.index)] = true;
    min_kept = std::min(min_kept, std::fabs(c.value));
  }
  for (size_t k = 1; k < coeffs.size(); ++k) {
    if (kept[k]) continue;
    if (std::fabs(coeffs[k]) >
        min_kept * (1.0 + options_.rel_tol) + options_.abs_tol) {
      return InternalError(StrCat(
          "audit mismatch [wave-range-opt]: dropped coefficient ", k,
          " has |c|=", std::fabs(coeffs[k]), " > min kept |c|=", min_kept));
    }
  }

  if (padded != n + 1) return OkStatus();  // the exact theory needs n+1 = 2^j
  // Theorem 9: the prediction formula and (for small n) the exhaustive
  // best subset both agree with the realized SSE.
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> view,
                            synopsis.Compile());
  RANGESYN_ASSIGN_OR_RETURN(double naive_sse, NaiveAllRangesSse(data, *view));
  RANGESYN_ASSIGN_OR_RETURN(double predicted,
                            PredictPrefixSynopsisSse(data, synopsis));
  RANGESYN_RETURN_IF_ERROR(
      CheckClose(naive_sse, predicted, "wave-range-opt predicted sse"));
  if (padded <= 16) {
    RANGESYN_ASSIGN_OR_RETURN(double best,
                              NaiveBestPrefixWaveletSse(data, budget));
    RANGESYN_RETURN_IF_ERROR(
        CheckClose(naive_sse, best, "wave-range-opt vs exhaustive subsets"));
  }
  return OkStatus();
}

Status Verifier::VerifySerializeRoundTrip(
    const FlatSynopsis& synopsis) const {
  RANGESYN_ASSIGN_OR_RETURN(const std::string bytes,
                            EncodeFlatSynopsis(synopsis));
  RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> restored,
                            DecodeFlatSynopsis(bytes));
  if (restored->Name() != synopsis.Name() || restored->n() != synopsis.n() ||
      restored->StorageWords() != synopsis.StorageWords()) {
    return InternalError(
        StrCat("audit mismatch [round-trip metadata]: ", synopsis.Name(),
               " n=", synopsis.n(), " words=", synopsis.StorageWords(),
               " came back as ", restored->Name(), " n=", restored->n(),
               " words=", restored->StorageWords()));
  }
  // Re-encoding the decoded synopsis must reproduce the exact bytes: every
  // stored word and the name round-trip bitwise.
  RANGESYN_ASSIGN_OR_RETURN(const std::string bytes2,
                            EncodeFlatSynopsis(*restored));
  if (bytes2 != bytes) {
    return InternalError(
        StrCat("audit mismatch [round-trip bytes]: re-encoding a decoded ",
               synopsis.Name(), " produced different bytes"));
  }
  // The decoded synopsis answers bit for bit what its source does.
  const int64_t n = synopsis.n();
  const int64_t step = n <= 64 ? 1 : std::max<int64_t>(1, n / 16);
  for (int64_t a = 1; a <= n; a += step) {
    for (int64_t b = a; b <= n; b += step) {
      const double orig = synopsis.EstimateOne(a, b);
      const double back = restored->EstimateOne(a, b);
      if (std::bit_cast<uint64_t>(back) != std::bit_cast<uint64_t>(orig)) {
        return InternalError(StrCat("audit mismatch [round-trip estimate]: ",
                                    synopsis.Name(), " range [", a, ",", b,
                                    "] ", orig, " -> ", back));
      }
    }
  }
  return OkStatus();
}

Status Verifier::VerifyAll(const std::vector<int64_t>& data,
                           int64_t buckets) const {
  RANGESYN_RETURN_IF_ERROR(ValidateAuditInput(data, options_.max_n));
  const int64_t n = static_cast<int64_t>(data.size());

  // The DP itself, over the production intra-bucket cost oracle.
  PrefixStats stats(data);
  BucketCosts costs(stats);
  RANGESYN_RETURN_IF_ERROR(
      VerifyIntervalDp(n, buckets, [&costs](int64_t l, int64_t r) {
        return costs.Intra(l, r);
      }));

  RANGESYN_RETURN_IF_ERROR(VerifySap0(data, buckets));
  RANGESYN_RETURN_IF_ERROR(
      VerifyWeightedSap0(data, buckets, RangeWorkloadWeights::Uniform(n)));
  // A deterministic non-uniform product-form workload.
  RangeWorkloadWeights skewed;
  skewed.alpha.resize(static_cast<size_t>(n));
  skewed.beta.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    skewed.alpha[static_cast<size_t>(i)] = 1.0 + static_cast<double>(i % 3);
    skewed.beta[static_cast<size_t>(i)] = 1.0 + 0.5 * static_cast<double>(i % 2);
  }
  RANGESYN_RETURN_IF_ERROR(VerifyWeightedSap0(data, buckets, skewed));
  RANGESYN_RETURN_IF_ERROR(VerifyWaveRangeOpt(data, buckets));

  // Round-trip every serializable synopsis family built from this data.
  const auto round_trip = [this](const auto& built) -> Status {
    RANGESYN_RETURN_IF_ERROR(built.status());
    RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> view,
                              built->Compile());
    return VerifySerializeRoundTrip(*view);
  };
  RANGESYN_RETURN_IF_ERROR(round_trip(BuildNaive(data)));
  RANGESYN_RETURN_IF_ERROR(round_trip(BuildEquiWidth(data, buckets)));
  RANGESYN_RETURN_IF_ERROR(round_trip(BuildSap0(data, buckets)));
  RANGESYN_RETURN_IF_ERROR(round_trip(BuildSap1(data, buckets)));
  RANGESYN_RETURN_IF_ERROR(round_trip(BuildSap2(data, buckets)));
  RANGESYN_RETURN_IF_ERROR(round_trip(
      BuildWeightedSap0(data, buckets, RangeWorkloadWeights::Uniform(n))));
  RANGESYN_RETURN_IF_ERROR(round_trip(BuildWavePoint(data, buckets)));
  RANGESYN_RETURN_IF_ERROR(round_trip(BuildWaveRangeOpt(data, buckets)));
  return OkStatus();
}

}  // namespace audit
}  // namespace rangesyn
