#include "histogram/dp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/failpoint.h"
#include "core/logging.h"
#include "core/mathutil.h"
#include "core/strings.h"
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

/// Shared DP core. Fills best(k, i) = optimal cost of partitioning [1, i]
/// into exactly k buckets, and parent(k, i) = the end of the (k-1)-th
/// bucket in an optimal solution (-1 where no partition exists).
struct DpTable {
  int64_t n;
  int64_t max_buckets;
  /// Row stride: one row per end index i in 0..n, holding k in
  /// 0..max_buckets plus one spare cell, so that the fill can read and
  /// write whole pairs of bucket counts.
  size_t width;
  std::vector<double> best;
  std::vector<int32_t> parent;

  double Best(int64_t k, int64_t i) const {
    return best[static_cast<size_t>(i) * width + static_cast<size_t>(k)];
  }
  int64_t Parent(int64_t k, int64_t i) const {
    return parent[static_cast<size_t>(i) * width + static_cast<size_t>(k)];
  }
};

// Two bucket counts side by side: GNU vector types, which GCC and Clang
// lower to packed SSE2 on x86-64 without -march flags or intrinsics.
using DoublePair = double __attribute__((vector_size(16)));
using IndexPair = int64_t __attribute__((vector_size(16)));

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
  t.width = static_cast<size_t>(max_buckets) + 2;
  const size_t cells_total = (static_cast<size_t>(n) + 1) * t.width;
  t.best.assign(cells_total, kInf);
  t.parent.assign(cells_total, -1);
  t.best[0] = 0.0;
  // best(k, i) reads only best(k-1, j) with j < i, so the end index i is
  // outermost: each i computes c[j] = cost(j + 1, i) once, then walks j
  // ascending and updates a running minimum and argmin for every k in
  // 1..min(B, i). The strict '<' in ascending j breaks ties toward the
  // lowest boundary, as the textbook k-outermost fill does.
  //
  // The k loop has no feasibility test: best(k-1, j) = +inf whenever
  // k-1 > j (and wherever the oracle made a prefix infeasible), and
  // inf + c is never '<' a running minimum, while a NaN compares false.
  constexpr int64_t kRowsPerPoll = 32;
  std::vector<double> c(static_cast<size_t>(n));
  const size_t max_pairs = static_cast<size_t>(max_buckets + 1) / 2;
  std::vector<DoublePair> run_cost(max_pairs);
  std::vector<IndexPair> run_arg(max_pairs);
  // histogram.dp.transitions counts the (k, i, j) with a finite
  // best(k-1, j), j >= k-1. Row j is read by the n - j rows after it, each
  // at k-1 in [0, min(B-1, j)], so its finite cells there count n - j
  // times each.
  const auto row_transitions = [&t](int64_t j) {
    const double* row = &t.best[static_cast<size_t>(j) * t.width];
    uint64_t finite = 0;
    for (int64_t k = 0; k <= std::min(t.max_buckets - 1, j); ++k) {
      finite += row[k] != kInf ? 1 : 0;
    }
    return finite * static_cast<uint64_t>(t.n - j);
  };
  uint64_t cells = 0;
  uint64_t transitions = row_transitions(0);
  for (int64_t i = 1; i <= n; ++i) {
    if (i % kRowsPerPoll == 1) {
      RANGESYN_RETURN_IF_ERROR(deadline.Check("interval DP row"));
    }
    for (int64_t j = 0; j < i; ++j) {
      c[static_cast<size_t>(j)] = cost(j + 1, i);
    }
    const int64_t k_end = std::min(max_buckets, i);
    const size_t pairs = static_cast<size_t>(k_end + 1) / 2;
    for (size_t p = 0; p < pairs; ++p) {
      run_cost[p] = DoublePair{kInf, kInf};
      run_arg[p] = IndexPair{-1, -1};
    }
    for (int64_t j = 0; j < i; ++j) {
      // Pair p covers k = 2p+1, 2p+2, whose predecessors are the cells
      // k-1 = 2p, 2p+1 of row j.
      const double* prev = &t.best[static_cast<size_t>(j) * t.width];
      const double cj = c[static_cast<size_t>(j)];
      const DoublePair cost_j = {cj, cj};
      const IndexPair index_j = {j, j};
      for (size_t p = 0; p < pairs; ++p) {
        DoublePair pj;
        std::memcpy(&pj, prev + 2 * p, sizeof(pj));
        const DoublePair cand = pj + cost_j;
        const IndexPair lt = (IndexPair)(cand < run_cost[p]);
        run_cost[p] = (DoublePair)(((IndexPair)cand & lt) |
                                   ((IndexPair)run_cost[p] & ~lt));
        run_arg[p] = (index_j & lt) | (run_arg[p] & ~lt);
      }
    }
    // Row i takes k = 1..2*pairs; a k above min(B, i) holds the correct
    // (+inf or never-read) value, which the spare cell makes room for.
    const size_t row = static_cast<size_t>(i) * t.width;
    std::memcpy(&t.best[row + 1], run_cost.data(), pairs * sizeof(DoublePair));
    for (size_t p = 0; p < pairs; ++p) {
      t.parent[row + 1 + 2 * p] = static_cast<int32_t>(run_arg[p][0]);
      t.parent[row + 2 + 2 * p] = static_cast<int32_t>(run_arg[p][1]);
    }
    cells += static_cast<uint64_t>(k_end);
    transitions += row_transitions(i);
  }
  RANGESYN_OBS_COUNTER_INC("histogram.dp.solves");
  RANGESYN_OBS_COUNTER_ADD("histogram.dp.cells", cells);
  RANGESYN_OBS_COUNTER_ADD("histogram.dp.transitions", transitions);
  return t;
}

Result<IntervalDpResult> ExtractSolution(const DpTable& t, int64_t k) {
  const double cost = t.Best(k, t.n);
  if (cost == kInf) {
    return InternalError("interval DP produced no feasible solution");
  }
  std::vector<int64_t> ends;
  int64_t i = t.n;
  for (int64_t kk = k; kk >= 1; --kk) {
    ends.push_back(i);
    i = t.Parent(kk, i);
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

/// Argument checks shared by both entry points, run before any
/// allocation. `parent` holds split points in int32, so n must fit.
Status ValidateDpArgs(int64_t n, int64_t max_buckets, const char* who) {
  if (n < 1) return InvalidArgumentError(StrCat(who, ": n must be >= 1"));
  if (n >= std::numeric_limits<int32_t>::max()) {
    return InvalidArgumentError(
        StrCat(who, ": n must be < 2^31 - 1, got ", n));
  }
  if (max_buckets < 1) {
    return InvalidArgumentError(StrCat(who, ": max_buckets must be >= 1"));
  }
  return OkStatus();
}

}  // namespace

Result<IntervalDpResult> SolveIntervalDp(int64_t n, int64_t max_buckets,
                                         const BucketCostFn& cost,
                                         bool exact_buckets,
                                         const Deadline& deadline) {
  RANGESYN_RETURN_IF_ERROR(ValidateDpArgs(n, max_buckets, "SolveIntervalDp"));
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
    const double c = t.Best(k, n);
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
  RANGESYN_RETURN_IF_ERROR(
      ValidateDpArgs(n, max_buckets, "SolveIntervalDpAllK"));
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
