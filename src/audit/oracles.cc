#include "audit/oracles.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "core/logging.h"
#include "core/mathutil.h"
#include "core/strings.h"
#include "wavelet/haar.h"
#include "wavelet/synopsis.h"

namespace rangesyn {
namespace audit {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Status ValidateDataVsSynopsis(const std::vector<int64_t>& data,
                              const FlatSynopsis& synopsis) {
  if (data.empty()) return InvalidArgumentError("oracle: empty data");
  if (synopsis.n() != static_cast<int64_t>(data.size())) {
    return InvalidArgumentError(
        StrCat("oracle: synopsis domain ", synopsis.n(),
               " != data size ", data.size()));
  }
  return OkStatus();
}

}  // namespace

int64_t NaiveRangeSum(const std::vector<int64_t>& data, int64_t a,
                      int64_t b) {
  RANGESYN_DCHECK(a >= 1 && a <= b &&
                  b <= static_cast<int64_t>(data.size()));
  int64_t s = 0;
  for (int64_t i = a; i <= b; ++i) s += data[static_cast<size_t>(i - 1)];
  return s;
}

Result<double> NaiveAllRangesSse(const std::vector<int64_t>& data,
                                 const FlatSynopsis& synopsis) {
  RANGESYN_RETURN_IF_ERROR(ValidateDataVsSynopsis(data, synopsis));
  const int64_t n = static_cast<int64_t>(data.size());
  double sse = 0.0;
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      const double err = static_cast<double>(NaiveRangeSum(data, a, b)) -
                         synopsis.EstimateOne(a, b);
      sse += err * err;
    }
  }
  return sse;
}

Result<double> NaiveWeightedAllRangesSse(const std::vector<int64_t>& data,
                                         const FlatSynopsis& synopsis,
                                         const std::vector<double>& alpha,
                                         const std::vector<double>& beta) {
  RANGESYN_RETURN_IF_ERROR(ValidateDataVsSynopsis(data, synopsis));
  if (alpha.size() != data.size() || beta.size() != data.size()) {
    return InvalidArgumentError("oracle: weight size mismatch");
  }
  const int64_t n = static_cast<int64_t>(data.size());
  double sse = 0.0;
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      const double err = static_cast<double>(NaiveRangeSum(data, a, b)) -
                         synopsis.EstimateOne(a, b);
      sse += alpha[static_cast<size_t>(a - 1)] *
             beta[static_cast<size_t>(b - 1)] * err * err;
    }
  }
  return sse;
}

Result<NaivePartitionOpt> NaiveMinCostPartition(int64_t n, int64_t buckets,
                                                const BucketCostFn& cost) {
  if (n < 1) return InvalidArgumentError("oracle: n >= 1");
  if (buckets < 1 || buckets > n) {
    return InvalidArgumentError("oracle: need 1 <= buckets <= n");
  }
  if (n > 20) {
    return FailedPreconditionError(
        StrCat("oracle: exhaustive partition search refuses n=", n, " > 20"));
  }
  NaivePartitionOpt best;
  best.cost = kInf;
  ForEachPartition(n, buckets, [&](const Partition& p) {
    double c = 0.0;
    for (int64_t k = 0; k < p.num_buckets(); ++k) {
      c += cost(p.bucket_start(k), p.bucket_end(k));
    }
    if (c < best.cost) {
      best.cost = c;
      best.partition = p;
    }
  });
  if (best.cost == kInf) {
    return InternalError("oracle: exhaustive search found no partition");
  }
  return best;
}

Result<NaivePartitionOpt> NaiveMinCostPartitionAtMost(
    int64_t n, int64_t buckets, const BucketCostFn& cost) {
  if (buckets < 1) return InvalidArgumentError("oracle: buckets >= 1");
  NaivePartitionOpt best;
  best.cost = kInf;
  for (int64_t k = 1; k <= std::min(buckets, n); ++k) {
    RANGESYN_ASSIGN_OR_RETURN(NaivePartitionOpt opt,
                              NaiveMinCostPartition(n, k, cost));
    if (opt.cost < best.cost) best = std::move(opt);
  }
  return best;
}

Result<double> NaiveBestPrefixWaveletSse(const std::vector<int64_t>& data,
                                         int64_t budget) {
  const int64_t n = static_cast<int64_t>(data.size());
  if (n < 1) return InvalidArgumentError("oracle: empty data");
  if (budget < 1) return InvalidArgumentError("oracle: budget >= 1");
  const int64_t padded =
      static_cast<int64_t>(NextPowerOfTwo(static_cast<uint64_t>(n) + 1));
  if (padded > 16) {
    return FailedPreconditionError(
        StrCat("oracle: exhaustive subset search refuses padded size ",
               padded, " > 16"));
  }
  // Same prefix vector (constant-extended) as BuildWaveRangeOpt.
  std::vector<double> p(static_cast<size_t>(padded), 0.0);
  int64_t acc = 0;
  for (int64_t t = 1; t < padded; ++t) {
    if (t <= n) acc += data[static_cast<size_t>(t - 1)];
    p[static_cast<size_t>(t)] = static_cast<double>(acc);
  }
  RANGESYN_ASSIGN_OR_RETURN(std::vector<double> coeffs, HaarTransform(p));

  // Enumerate every subset of `keep` non-DC indices via combinations.
  const int64_t num_candidates = padded - 1;
  const int64_t keep = std::min(budget, num_candidates);
  std::vector<int64_t> pick(static_cast<size_t>(keep));
  std::iota(pick.begin(), pick.end(), int64_t{1});
  double best = kInf;
  while (true) {
    std::vector<WaveletCoefficient> kept;
    kept.reserve(pick.size());
    for (int64_t idx : pick) {
      kept.push_back({idx, coeffs[static_cast<size_t>(idx)]});
    }
    RANGESYN_ASSIGN_OR_RETURN(
        WaveletSynopsis synopsis,
        WaveletSynopsis::Create(std::move(kept), padded, n,
                                WaveletDomain::kPrefix, "ORACLE"));
    RANGESYN_ASSIGN_OR_RETURN(std::shared_ptr<const FlatSynopsis> view,
                              synopsis.Compile());
    RANGESYN_ASSIGN_OR_RETURN(double sse, NaiveAllRangesSse(data, *view));
    best = std::min(best, sse);
    // Next combination of `keep` values out of 1..num_candidates.
    int64_t i = keep - 1;
    while (i >= 0 &&
           pick[static_cast<size_t>(i)] == num_candidates - (keep - 1 - i)) {
      --i;
    }
    if (i < 0) break;
    ++pick[static_cast<size_t>(i)];
    for (int64_t j = i + 1; j < keep; ++j) {
      pick[static_cast<size_t>(j)] = pick[static_cast<size_t>(j - 1)] + 1;
    }
  }
  return best;
}

Status CheckPartitionWellFormed(const Partition& partition) {
  const int64_t n = partition.n();
  const int64_t b = partition.num_buckets();
  if (n < 1) return InternalError("partition audit: n < 1");
  if (b < 1) return InternalError("partition audit: no buckets");
  if (b > n) {
    return InternalError(
        StrCat("partition audit: ", b, " buckets over domain ", n));
  }
  int64_t covered = 0;
  for (int64_t k = 0; k < b; ++k) {
    const int64_t start = partition.bucket_start(k);
    const int64_t end = partition.bucket_end(k);
    if (start < 1 || end > n || start > end) {
      return InternalError(StrCat("partition audit: bucket ", k,
                                  " has bad geometry [", start, ",", end,
                                  "]"));
    }
    if (start != covered + 1) {
      return InternalError(StrCat("partition audit: bucket ", k,
                                  " starts at ", start, ", expected ",
                                  covered + 1));
    }
    if (partition.bucket_width(k) != end - start + 1) {
      return InternalError(
          StrCat("partition audit: bucket ", k, " width mismatch"));
    }
    covered = end;
  }
  if (covered != n) {
    return InternalError(
        StrCat("partition audit: buckets cover 1..", covered, ", not 1..", n));
  }
  for (int64_t i = 1; i <= n; ++i) {
    const int64_t k = partition.BucketOf(i);
    if (k < 0 || k >= b || i < partition.bucket_start(k) ||
        i > partition.bucket_end(k)) {
      return InternalError(
          StrCat("partition audit: BucketOf(", i, ") = ", k, " is wrong"));
    }
  }
  return OkStatus();
}

}  // namespace audit
}  // namespace rangesyn
