#include "histogram/dp.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/failpoint.h"
#include "core/logging.h"
#include "core/mathutil.h"
#include "obs/obs.h"

namespace rangesyn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

#ifdef RANGESYN_AUDIT
/// RANGESYN_AUDIT self-check, run on every DP solve in audit builds: the
/// reported cost must re-sum from the bucket-cost oracle over the chosen
/// partition, and for tiny domains no partition with the same budget may
/// beat it — exhaustive enumeration over all C(n-1, k-1) candidates.
/// Aborts on violation; see src/audit/ for the non-fatal verifier layer.
void AuditDpSolution(int64_t n, int64_t max_buckets,
                     const BucketCostFn& cost,
                     const IntervalDpResult& result, bool exact_buckets) {
  double resum = 0.0;
  for (int64_t k = 0; k < result.partition.num_buckets(); ++k) {
    resum += cost(result.partition.bucket_start(k),
                  result.partition.bucket_end(k));
  }
  RANGESYN_CHECK(AlmostEqual(resum, result.cost, 1e-9, 1e-6))
      << "DP audit: reported cost " << result.cost
      << " != re-summed bucket costs " << resum;
  constexpr int64_t kMaxExhaustiveN = 12;
  if (n > kMaxExhaustiveN) return;
  const double tol = 1e-9 * std::fabs(result.cost) + 1e-6;
  const auto check_no_better = [&](int64_t k) {
    ForEachPartition(n, k, [&](const Partition& p) {
      double c = 0.0;
      for (int64_t j = 0; j < p.num_buckets(); ++j) {
        c += cost(p.bucket_start(j), p.bucket_end(j));
      }
      RANGESYN_CHECK(result.cost <= c + tol)
          << "DP audit: a " << k << "-bucket partition costs " << c
          << ", beating the DP's " << result.cost << " (n=" << n << ")";
    });
  };
  if (exact_buckets) {
    check_no_better(result.buckets_used);
  } else {
    for (int64_t k = 1; k <= std::min(max_buckets, n); ++k) {
      check_no_better(k);
    }
  }
}
#endif  // RANGESYN_AUDIT

/// Shared DP core. Fills best[k][i] = optimal cost of partitioning [1, i]
/// into exactly k buckets, and parent[k][i] = the end of the (k-1)-th
/// bucket in an optimal solution.
struct DpTable {
  int64_t n;
  int64_t max_buckets;
  // Indexed [k][i] with k in 0..max_buckets, i in 0..n.
  std::vector<std::vector<double>> best;
  std::vector<std::vector<int64_t>> parent;
};

Result<DpTable> RunDp(int64_t n, int64_t max_buckets,
                      const BucketCostFn& cost, const Deadline& deadline) {
  RANGESYN_OBS_SPAN("histogram.dp.solve");
  // The table is the DP's big allocation — O(n * B) cells; the failpoint
  // models the allocation failing before any scratch is committed.
  RANGESYN_FAILPOINT("alloc.interval_dp");
  RANGESYN_RETURN_IF_DEADLINE(deadline, "histogram.dp.deadline",
                              "interval DP");
  DpTable t;
  t.n = n;
  t.max_buckets = max_buckets;
  t.best.assign(static_cast<size_t>(max_buckets) + 1,
                std::vector<double>(static_cast<size_t>(n) + 1, kInf));
  t.parent.assign(static_cast<size_t>(max_buckets) + 1,
                  std::vector<int64_t>(static_cast<size_t>(n) + 1, -1));
  t.best[0][0] = 0.0;
  // best[k][i] reads only best[k-1][j] with j < i, so the table can be
  // filled with the end index i outermost. Each i computes its bucket
  // costs c[j] = cost(j + 1, i) once and every k reuses them: the oracle
  // runs n(n+1)/2 times, not once per bucket count. The ascending j scan
  // with a strict '<' breaks ties toward the lowest boundary, as the
  // k-outermost order did, so the table is bit-identical to it.
  constexpr int64_t kRowsPerPoll = 32;
  std::vector<double> c(static_cast<size_t>(n));
  uint64_t cells = 0;
  uint64_t transitions = 0;
  for (int64_t i = 1; i <= n; ++i) {
    if (i % kRowsPerPoll == 1) {
      RANGESYN_RETURN_IF_ERROR(deadline.Check("interval DP row"));
    }
    for (int64_t j = 0; j < i; ++j) {
      c[static_cast<size_t>(j)] = cost(j + 1, i);
    }
    const int64_t k_end = std::min(max_buckets, i);
    for (int64_t k = 1; k <= k_end; ++k) {
      const auto& prev = t.best[static_cast<size_t>(k - 1)];
      ++cells;
      double best_cost = kInf;
      int64_t best_j = -1;
      for (int64_t j = k - 1; j < i; ++j) {
        const double pj = prev[static_cast<size_t>(j)];
        if (pj == kInf) continue;
        ++transitions;
        const double cand = pj + c[static_cast<size_t>(j)];
        if (cand < best_cost) {
          best_cost = cand;
          best_j = j;
        }
      }
      t.best[static_cast<size_t>(k)][static_cast<size_t>(i)] = best_cost;
      t.parent[static_cast<size_t>(k)][static_cast<size_t>(i)] = best_j;
    }
  }
  RANGESYN_OBS_COUNTER_INC("histogram.dp.solves");
  RANGESYN_OBS_COUNTER_ADD("histogram.dp.cells", cells);
  RANGESYN_OBS_COUNTER_ADD("histogram.dp.transitions", transitions);
  return t;
}

Result<IntervalDpResult> ExtractSolution(const DpTable& t, int64_t k) {
  const double cost = t.best[static_cast<size_t>(k)][static_cast<size_t>(t.n)];
  if (cost == kInf) {
    return InternalError("interval DP produced no feasible solution");
  }
  std::vector<int64_t> ends;
  int64_t i = t.n;
  for (int64_t kk = k; kk >= 1; --kk) {
    ends.push_back(i);
    i = t.parent[static_cast<size_t>(kk)][static_cast<size_t>(i)];
    RANGESYN_CHECK_GE(i, 0);
  }
  RANGESYN_CHECK_EQ(i, 0);
  std::reverse(ends.begin(), ends.end());
  IntervalDpResult out;
  RANGESYN_ASSIGN_OR_RETURN(out.partition, Partition::FromEnds(t.n, ends));
  out.cost = cost;
  out.buckets_used = k;
  return out;
}

}  // namespace

Result<IntervalDpResult> SolveIntervalDp(int64_t n, int64_t max_buckets,
                                         const BucketCostFn& cost,
                                         bool exact_buckets,
                                         const Deadline& deadline) {
  if (n < 1) return InvalidArgumentError("SolveIntervalDp: n must be >= 1");
  if (max_buckets < 1) {
    return InvalidArgumentError("SolveIntervalDp: max_buckets must be >= 1");
  }
  const int64_t b = std::min(max_buckets, n);
  if (exact_buckets && max_buckets > n) {
    return InvalidArgumentError(
        "SolveIntervalDp: cannot use more buckets than elements");
  }
  RANGESYN_ASSIGN_OR_RETURN(const DpTable t, RunDp(n, b, cost, deadline));
  if (exact_buckets) {
    Result<IntervalDpResult> r = ExtractSolution(t, b);
#ifdef RANGESYN_AUDIT
    if (r.ok()) AuditDpSolution(n, max_buckets, cost, r.value(), true);
#endif
    return r;
  }
  // "At most" semantics: pick the best k (more buckets can hurt some cost
  // models, e.g. SAP-style costs, so we do not assume monotonicity).
  int64_t best_k = 1;
  double best_cost = kInf;
  // analyze: waive(SA-105) O(B) scan over the finished DP table with an
  // O(1) body; RunDp above polled the deadline throughout the fill.
  for (int64_t k = 1; k <= b; ++k) {
    const double c = t.best[static_cast<size_t>(k)][static_cast<size_t>(n)];
    if (c < best_cost) {
      best_cost = c;
      best_k = k;
    }
  }
  Result<IntervalDpResult> r = ExtractSolution(t, best_k);
#ifdef RANGESYN_AUDIT
  if (r.ok()) AuditDpSolution(n, max_buckets, cost, r.value(), false);
#endif
  return r;
}

Result<std::vector<IntervalDpResult>> SolveIntervalDpAllK(
    int64_t n, int64_t max_buckets, const BucketCostFn& cost,
    const Deadline& deadline) {
  if (n < 1) return InvalidArgumentError("SolveIntervalDpAllK: n >= 1");
  if (max_buckets < 1) {
    return InvalidArgumentError("SolveIntervalDpAllK: max_buckets >= 1");
  }
  const int64_t b = std::min(max_buckets, n);
  RANGESYN_ASSIGN_OR_RETURN(const DpTable t, RunDp(n, b, cost, deadline));
  std::vector<IntervalDpResult> out;
  out.reserve(static_cast<size_t>(b));
  for (int64_t k = 1; k <= b; ++k) {
    RANGESYN_RETURN_IF_DEADLINE(deadline, "histogram.dp.deadline",
                                "interval DP extraction");
    RANGESYN_ASSIGN_OR_RETURN(IntervalDpResult r, ExtractSolution(t, k));
#ifdef RANGESYN_AUDIT
    AuditDpSolution(n, k, cost, r, true);
#endif
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace rangesyn
