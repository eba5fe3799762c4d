#include "histogram/opt_a_dp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/failpoint.h"
#include "core/logging.h"
#include "core/mathutil.h"
#include "core/strings.h"
#include "core/threadpool.h"
#include "histogram/builders.h"
#include "histogram/prefix_stats.h"
#include "obs/obs.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-bucket statistics of the rounded eq.(1) answering rule, precomputed
/// for every candidate bucket [l, r] in O(n^3) total time (DESIGN.md §3.1):
///   intra  = sum over ranges inside the bucket of (s[a,b]-⟦len*mu⟧)^2
///   su/su2 = sum (and sum of squares) of left-piece errors
///            u_a = s[a,r] - ⟦(r-a+1)*mu⟧          (integers)
///   sv/sv2 = sum (and sum of squares) of right-piece errors
///            v_b = s[l,b] - ⟦(b-l+1)*mu⟧          (integers)
/// All rounding is RoundHalfToEven on the identical floating expression the
/// AvgHistogram uses at query time, so DP accounting and query answering
/// agree bit-for-bit.
class BucketTables {
 public:
  /// Chunks of the O(n^3) fill observe `deadline` and return early once it
  /// expires; the caller must re-check the deadline after construction and
  /// discard the (partially filled) tables on expiry.
  BucketTables(const std::vector<int64_t>& data, const Deadline& deadline)
      : n_(static_cast<int64_t>(data.size())), stats_(data) {
    RANGESYN_OBS_SPAN("histogram.opta.prefix_tables");
    const size_t tri = static_cast<size_t>(n_) * (n_ + 1) / 2;
    intra_.resize(tri);
    su_.resize(tri);
    su2_.resize(tri);
    sv_.resize(tri);
    sv2_.resize(tri);

    // Window prefix sums: for each length len, cw[len][a] = sum over
    // windows starting at <= a of s[start, start+len-1], cw2 the squares.
    std::vector<std::vector<double>> cw(static_cast<size_t>(n_) + 1);
    std::vector<std::vector<double>> cw2(static_cast<size_t>(n_) + 1);
    // Each window length's prefix array is independent; so is each row l
    // of the per-bucket tables below. All writes are index-disjoint, so
    // the parallel fill is bit-identical to the serial one.
    ParallelFor(1, n_ + 1, /*grain=*/8, [&](int64_t lo, int64_t hi) {
      if (deadline.Expired()) return;
      for (int64_t len = lo; len < hi; ++len) {
        const int64_t count = n_ - len + 1;
        auto& c = cw[static_cast<size_t>(len)];
        auto& c2 = cw2[static_cast<size_t>(len)];
        c.assign(static_cast<size_t>(count) + 1, 0.0);
        c2.assign(static_cast<size_t>(count) + 1, 0.0);
        for (int64_t a = 1; a <= count; ++a) {
          const double w = static_cast<double>(stats_.Sum(a, a + len - 1));
          c[static_cast<size_t>(a)] = c[static_cast<size_t>(a - 1)] + w;
          c2[static_cast<size_t>(a)] =
              c2[static_cast<size_t>(a - 1)] + w * w;
        }
      }
    });

    ParallelFor(1, n_ + 1, /*grain=*/1, [&](int64_t l_lo, int64_t l_hi) {
      if (deadline.Expired()) return;
      for (int64_t l = l_lo; l < l_hi; ++l) {
        for (int64_t r = l; r <= n_; ++r) {
          const size_t idx = Index(l, r);
          const int64_t m = r - l + 1;
          const int64_t sum = stats_.Sum(l, r);
          const double mu =
              static_cast<double>(sum) / static_cast<double>(m);

          // Intra-bucket SSE, grouped by range length: the rounded answer
          // ⟦len*mu⟧ is constant per length.
          double intra = 0.0;
          for (int64_t len = 1; len <= m; ++len) {
            const double t = static_cast<double>(
                RoundHalfToEven(static_cast<double>(len) * mu));
            const int64_t lo = l;          // first window start inside bucket
            const int64_t hi = r - len + 1;  // last window start
            const auto& c = cw[static_cast<size_t>(len)];
            const auto& c2 = cw2[static_cast<size_t>(len)];
            const double s1 = c[static_cast<size_t>(hi)] -
                              c[static_cast<size_t>(lo - 1)];
            const double s2 = c2[static_cast<size_t>(hi)] -
                              c2[static_cast<size_t>(lo - 1)];
            const double cnt = static_cast<double>(hi - lo + 1);
            intra += s2 - 2.0 * t * s1 + cnt * t * t;
          }
          intra_[idx] = intra;

          int64_t su = 0, sv = 0;
          double su2 = 0.0, sv2 = 0.0;
          for (int64_t a = l; a <= r; ++a) {
            const int64_t u =
                stats_.Sum(a, r) -
                RoundHalfToEven(static_cast<double>(r - a + 1) * mu);
            su += u;
            su2 += static_cast<double>(u) * static_cast<double>(u);
          }
          for (int64_t b = l; b <= r; ++b) {
            const int64_t v =
                stats_.Sum(l, b) -
                RoundHalfToEven(static_cast<double>(b - l + 1) * mu);
            sv += v;
            sv2 += static_cast<double>(v) * static_cast<double>(v);
          }
          su_[idx] = su;
          su2_[idx] = su2;
          sv_[idx] = sv;
          sv2_[idx] = sv2;
        }
      }
    });
    RANGESYN_OBS_COUNTER_ADD("histogram.opta.bucket_evals", tri);
  }

  int64_t n() const { return n_; }
  const PrefixStats& stats() const { return stats_; }

  double Intra(int64_t l, int64_t r) const { return intra_[Index(l, r)]; }
  int64_t SumU(int64_t l, int64_t r) const { return su_[Index(l, r)]; }
  double SumU2(int64_t l, int64_t r) const { return su2_[Index(l, r)]; }
  int64_t SumV(int64_t l, int64_t r) const { return sv_[Index(l, r)]; }
  double SumV2(int64_t l, int64_t r) const { return sv2_[Index(l, r)]; }

  /// The λ-independent part of the improved DP's bucket cost:
  ///   intra + (n-r)*Σu² + (l-1)*Σv².
  double K(int64_t l, int64_t r) const {
    const size_t idx = Index(l, r);
    return intra_[idx] + static_cast<double>(n_ - r) * su2_[idx] +
           static_cast<double>(l - 1) * sv2_[idx];
  }

 private:
  size_t Index(int64_t l, int64_t r) const {
    RANGESYN_DCHECK(l >= 1 && l <= r && r <= n_);
    // Row-major upper triangle: row l occupies n-l+1 slots.
    const int64_t row_offset = (l - 1) * n_ - (l - 1) * (l - 2) / 2;
    return static_cast<size_t>(row_offset + (r - l));
  }

  int64_t n_;
  PrefixStats stats_;
  std::vector<double> intra_;
  std::vector<int64_t> su_;
  std::vector<double> su2_;
  std::vector<int64_t> sv_;
  std::vector<double> sv2_;
};

/// All-ranges SSE of an AvgHistogram by direct evaluation — used to derive
/// the admissible |Λ| cap from a cheap feasible solution.
double BruteSse(const std::vector<int64_t>& data, const AvgHistogram& hist) {
  const Result<std::shared_ptr<const FlatSynopsis>> view = hist.Compile();
  RANGESYN_CHECK(view.ok()) << view.status();
  PrefixStats stats(data);
  const int64_t n = stats.n();
  double sse = 0.0;
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) {
      const double d = static_cast<double>(stats.Sum(a, b)) -
                       (*view)->EstimateOne(a, b);
      sse += d * d;
    }
  }
  return sse;
}

/// Upper bound on OPT for the OPT-A representation, from the A0 heuristic
/// (always a feasible OPT-A histogram). Falls back to NAIVE-in-one-bucket.
double OptUpperBound(const std::vector<int64_t>& data, int64_t max_buckets,
                     const Deadline& deadline = Deadline()) {
  Result<AvgHistogram> a0 =
      BuildA0(data, max_buckets, PieceRounding::kPerPiece, deadline);
  if (a0.ok()) return BruteSse(data, a0.value());
  Result<AvgHistogram> whole = AvgHistogram::WithTrueAverages(
      data, Partition::Whole(static_cast<int64_t>(data.size())), "UB",
      PieceRounding::kPerPiece);
  RANGESYN_CHECK(whole.ok());
  return BruteSse(data, whole.value());
}

struct Entry {
  double cost = kInf;
  int64_t j = -1;  // end of previous bucket in the best predecessor
};

/// One DP state in the flattened cell representation of the improved
/// algorithm: partitions of [1, i] into exactly k buckets with piece-error
/// sum Λ = lambda, at minimum committed cost.
struct LambdaState {
  int64_t lambda = 0;
  double cost = kInf;
  int32_t j = -1;
};

/// Bounds on the cross-sum V = Σ over future buckets of Σv, achievable by
/// any partition of the suffix (i, n] into at most r buckets. Used for the
/// admissible dominance prune: the future cost of a state is
/// (λ-independent terms shared by all states) + 2λV, linear in V, so a
/// state dominated at both V endpoints can never beat its dominator.
class SuffixCrossBounds {
 public:
  /// Like BucketTables, chunks return early once `deadline` expires; the
  /// caller re-checks afterwards.
  SuffixCrossBounds(const BucketTables& tables, int64_t max_buckets,
                    const Deadline& deadline)
      : n_(tables.n()), max_b_(max_buckets) {
    const size_t rows = static_cast<size_t>(max_b_) + 1;
    const size_t cols = static_cast<size_t>(n_) + 1;
    min_v_.assign(rows, std::vector<double>(cols, kInf));
    max_v_.assign(rows, std::vector<double>(cols, -kInf));
    for (int64_t r = 0; r <= max_b_; ++r) {
      min_v_[static_cast<size_t>(r)][static_cast<size_t>(n_)] = 0.0;
      max_v_[static_cast<size_t>(r)][static_cast<size_t>(n_)] = 0.0;
    }
    // Layer r reads only layer r-1, so its cells fill in parallel over i
    // (index-disjoint writes; bit-identical to the serial backward sweep).
    for (int64_t r = 1; r <= max_b_; ++r) {
      ParallelFor(0, n_, /*grain=*/8, [&](int64_t i_lo, int64_t i_hi) {
        if (deadline.Expired()) return;
        for (int64_t i = i_lo; i < i_hi; ++i) {
          double lo =
              min_v_[static_cast<size_t>(r - 1)][static_cast<size_t>(i)];
          double hi =
              max_v_[static_cast<size_t>(r - 1)][static_cast<size_t>(i)];
          for (int64_t e = i + 1; e <= n_; ++e) {
            const double sv = static_cast<double>(tables.SumV(i + 1, e));
            const double rest_lo =
                (e == n_) ? 0.0
                          : min_v_[static_cast<size_t>(r - 1)]
                                  [static_cast<size_t>(e)];
            const double rest_hi =
                (e == n_) ? 0.0
                          : max_v_[static_cast<size_t>(r - 1)]
                                  [static_cast<size_t>(e)];
            if (rest_lo != kInf) lo = std::min(lo, sv + rest_lo);
            if (rest_hi != -kInf) hi = std::max(hi, sv + rest_hi);
          }
          min_v_[static_cast<size_t>(r)][static_cast<size_t>(i)] = lo;
          max_v_[static_cast<size_t>(r)][static_cast<size_t>(i)] = hi;
        }
      });
    }
  }

  double MinV(int64_t i, int64_t remaining) const {
    return min_v_[static_cast<size_t>(std::min(remaining, max_b_))]
                 [static_cast<size_t>(i)];
  }
  double MaxV(int64_t i, int64_t remaining) const {
    return max_v_[static_cast<size_t>(std::min(remaining, max_b_))]
                 [static_cast<size_t>(i)];
  }

 private:
  int64_t n_;
  int64_t max_b_;
  // [r][i]: min/max achievable V over partitions of (i, n] into <= r
  // buckets (r >= 1 when i < n).
  std::vector<std::vector<double>> min_v_;
  std::vector<std::vector<double>> max_v_;
};

/// Keeps only states that can still be optimal for some achievable future
/// cross-sum V in [vmin, vmax]: the lower envelope of the lines
/// cost + 2λV. A state is dominated iff another state is no worse at both
/// endpoints (all arithmetic here is exact: every quantity is an integer
/// representable in a double for realistic volumes). The survivors are
/// returned sorted by lambda for O(log) parent lookup.
std::vector<LambdaState> PruneCell(std::vector<LambdaState> states,
                                   double vmin, double vmax) {
  if (states.size() > 1) {
    auto key1 = [vmin](const LambdaState& s) {
      return s.cost + 2.0 * static_cast<double>(s.lambda) * vmin;
    };
    auto key2 = [vmax](const LambdaState& s) {
      return s.cost + 2.0 * static_cast<double>(s.lambda) * vmax;
    };
    std::sort(states.begin(), states.end(),
              [&](const LambdaState& a, const LambdaState& b) {
                const double a1 = key1(a), b1 = key1(b);
                if (a1 != b1) return a1 < b1;
                return key2(a) < key2(b);
              });
    std::vector<LambdaState> kept;
    kept.reserve(states.size());
    double best2 = kInf;
    for (const LambdaState& s : states) {
      const double k2 = key2(s);
      if (k2 < best2) {
        kept.push_back(s);
        best2 = k2;
      }
    }
    states = std::move(kept);
  }
  std::sort(states.begin(), states.end(),
            [](const LambdaState& a, const LambdaState& b) {
              return a.lambda < b.lambda;
            });
  return states;
}

/// Binary search for the state with the given lambda; CHECK-fails if
/// absent (reconstruction only follows edges out of surviving states).
const LambdaState& FindState(const std::vector<LambdaState>& cell,
                             int64_t lambda) {
  auto it = std::lower_bound(
      cell.begin(), cell.end(), lambda,
      [](const LambdaState& s, int64_t l) { return s.lambda < l; });
  RANGESYN_CHECK(it != cell.end() && it->lambda == lambda)
      << "OPT-A reconstruction: missing parent state";
  return *it;
}

Status ValidateOptAInput(const std::vector<int64_t>& data,
                         int64_t max_buckets) {
  if (data.empty()) return InvalidArgumentError("OPT-A: empty data");
  if (max_buckets < 1) return InvalidArgumentError("OPT-A: buckets >= 1");
  for (size_t i = 0; i < data.size(); ++i) {
    if (data[i] < 0) {
      return InvalidArgumentError(
          StrCat("OPT-A: negative count at index ", i));
    }
  }
  return OkStatus();
}

Result<OptAResult> FinishOptA(const std::vector<int64_t>& data,
                              std::vector<int64_t> ends, double optimal_sse,
                              uint64_t states) {
  const int64_t n = static_cast<int64_t>(data.size());
  RANGESYN_ASSIGN_OR_RETURN(Partition partition,
                            Partition::FromEnds(n, std::move(ends)));
  const int64_t buckets_used = partition.num_buckets();
  RANGESYN_ASSIGN_OR_RETURN(
      AvgHistogram hist,
      AvgHistogram::WithTrueAverages(data, std::move(partition), "OPT-A",
                                     PieceRounding::kPerPiece));
  OptAResult out{std::move(hist), optimal_sse, buckets_used, states};
  return out;
}

}  // namespace

Result<OptAResult> BuildOptA(const std::vector<int64_t>& data,
                             const OptAOptions& options) {
  RANGESYN_RETURN_IF_ERROR(ValidateOptAInput(data, options.max_buckets));
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t max_b = std::min<int64_t>(options.max_buckets, n);
  if (options.exact_buckets && options.max_buckets > n) {
    return InvalidArgumentError("OPT-A: more buckets than elements");
  }
  RANGESYN_OBS_SPAN("histogram.opta.dp");
  // The O(n^2) per-bucket tables are OPT-A's dominant allocation; the
  // failpoint models it failing before any work is committed.
  RANGESYN_FAILPOINT("alloc.opta_tables");
  RANGESYN_RETURN_IF_DEADLINE(options.deadline, "histogram.opta.deadline",
                              "OPT-A bucket tables");
  BucketTables tables(data, options.deadline);
  RANGESYN_RETURN_IF_DEADLINE(options.deadline, "histogram.opta.deadline",
                              "OPT-A bucket tables");

  // Admissible Λ cap: on the optimal path, Σ u_l² never exceeds OPT
  // (each u_l is itself an intra-bucket range error), so
  // |Λ| <= Σ|u_l| <= sqrt(n * Σu²) <= sqrt(n * UB) for any upper bound UB.
  const int64_t lambda_cap =
      options.enable_lambda_cap
          ? static_cast<int64_t>(std::ceil(std::sqrt(
                static_cast<double>(n) *
                OptUpperBound(data, max_b, options.deadline)))) +
                1
          : std::numeric_limits<int64_t>::max();
  RANGESYN_RETURN_IF_DEADLINE(options.deadline, "histogram.opta.deadline",
                              "OPT-A upper bound");

  // Dominance prune support: bounds on the achievable future cross-sum.
  SuffixCrossBounds bounds(tables, max_b, options.deadline);
  RANGESYN_RETURN_IF_DEADLINE(options.deadline, "histogram.opta.deadline",
                              "OPT-A suffix bounds");

  // cells[k][i]: pruned, lambda-sorted states for exactly-k-bucket
  // partitions of [1, i].
  std::vector<std::vector<std::vector<LambdaState>>> cells(
      static_cast<size_t>(max_b) + 1,
      std::vector<std::vector<LambdaState>>(static_cast<size_t>(n) + 1));
  cells[0][0].push_back({0, 0.0, -1});
  uint64_t states = 1;

  // Layer k reads only the pruned cells of layer k-1, so its cells build
  // in parallel over the end index i. Each cell's pipeline is a pure
  // function of layer k-1: the per-cell map records the best entry per
  // lambda with ascending-j scan order and a strict '<' (ties keep the
  // lowest j), and the collected states are sorted by their unique lambda
  // key before pruning, so neither the thread count nor the map's
  // iteration order can change which states survive. State accounting
  // (and the budget check) happens serially in index order after each
  // layer, preserving the serial error behavior.
  for (int64_t k = 1; k <= max_b; ++k) {
    // At the last layer only terminal cells matter; for exact-buckets mode
    // intermediate layers never terminate, but their i=n cells are still
    // cheap and keep the code uniform.
    // The deadline is observed once per cell chunk; an expired chunk
    // returns DeadlineExceeded without building its cells, and
    // ParallelForStatus reports the first failure in chunk order.
    RANGESYN_RETURN_IF_ERROR(ParallelForStatus(
        k, n + 1, /*grain=*/1, [&](int64_t i_lo, int64_t i_hi) -> Status {
      RANGESYN_RETURN_IF_ERROR(options.deadline.Check("OPT-A layer"));
      std::unordered_map<int64_t, Entry> tmp;
      for (int64_t i = i_lo; i < i_hi; ++i) {
        if (k == max_b && i != n) continue;
        tmp.clear();
        for (int64_t j = k - 1; j < i; ++j) {
          const auto& src =
              cells[static_cast<size_t>(k - 1)][static_cast<size_t>(j)];
          if (src.empty()) continue;
          const int64_t l = j + 1;
          const int64_t du = tables.SumU(l, i);
          const double base = tables.K(l, i);
          const double sv2 = 2.0 * static_cast<double>(tables.SumV(l, i));
          for (const LambdaState& s : src) {
            const int64_t new_lambda = s.lambda + du;
            if (std::llabs(new_lambda) > lambda_cap) continue;
            const double cost =
                s.cost + base + static_cast<double>(s.lambda) * sv2;
            auto [it, inserted] =
                tmp.try_emplace(new_lambda, Entry{cost, j});
            if (!inserted && cost < it->second.cost) {
              it->second = Entry{cost, j};
            }
          }
        }
        if (tmp.empty()) continue;
        std::vector<LambdaState> cell;
        cell.reserve(tmp.size());
        // analyze: waive(SA-103) hash order cannot escape: the cell is
        // sorted by lambda immediately below before pruning or storage.
        for (const auto& [lambda, entry] : tmp) {
          cell.push_back(
              {lambda, entry.cost, static_cast<int32_t>(entry.j)});
        }
        // Deterministic pruning input regardless of hash-map order.
        std::sort(cell.begin(), cell.end(),
                  [](const LambdaState& a, const LambdaState& b) {
                    return a.lambda < b.lambda;
                  });
        const int64_t remaining = max_b - k;
        const double vmin = (i == n) ? 0.0 : bounds.MinV(i, remaining);
        const double vmax = (i == n) ? 0.0 : bounds.MaxV(i, remaining);
        // A cell with no feasible completion (i < n, remaining == 0) is
        // dead.
        if (i < n && (vmin == kInf || vmax == -kInf)) continue;
        if (options.enable_dominance_prune) {
          cell = PruneCell(std::move(cell), vmin, vmax);
        }
        cells[static_cast<size_t>(k)][static_cast<size_t>(i)] =
            std::move(cell);
      }
      return OkStatus();
    }));
    for (int64_t i = k; i <= n; ++i) {
      states +=
          cells[static_cast<size_t>(k)][static_cast<size_t>(i)].size();
      if (states > options.max_states) {
        return ResourceExhaustedError(StrCat(
            "OPT-A: state budget (", options.max_states,
            ") exceeded; use BuildOptARounded with a coarser granularity"));
      }
    }
  }

  // Pick the best terminal state over admissible bucket counts.
  double best_cost = kInf;
  int64_t best_k = -1;
  int64_t best_lambda = 0;
  const int64_t k_lo = options.exact_buckets ? max_b : 1;
  for (int64_t k = k_lo; k <= max_b; ++k) {
    RANGESYN_RETURN_IF_ERROR(options.deadline.Check("OPT-A terminal scan"));
    for (const LambdaState& s :
         cells[static_cast<size_t>(k)][static_cast<size_t>(n)]) {
      if (s.cost < best_cost) {
        best_cost = s.cost;
        best_k = k;
        best_lambda = s.lambda;
      }
    }
  }
  if (best_k < 0) {
    return InternalError("OPT-A: no terminal state (pruning too tight?)");
  }

  // Reconstruct boundaries by walking parents backward.
  std::vector<int64_t> ends;
  int64_t i = n;
  int64_t lambda = best_lambda;
  for (int64_t k = best_k; k >= 1; --k) {
    RANGESYN_RETURN_IF_ERROR(options.deadline.Check("OPT-A backtrack"));
    const LambdaState& s = FindState(
        cells[static_cast<size_t>(k)][static_cast<size_t>(i)], lambda);
    ends.push_back(i);
    lambda -= tables.SumU(s.j + 1, i);
    i = s.j;
  }
  RANGESYN_CHECK_EQ(i, 0);
  RANGESYN_CHECK_EQ(lambda, 0);
  std::reverse(ends.begin(), ends.end());
  RANGESYN_OBS_COUNTER_INC("histogram.opta.solves");
  RANGESYN_OBS_COUNTER_ADD("histogram.opta.states", states);
  return FinishOptA(data, std::move(ends), best_cost, states);
}

Result<OptAResult> BuildOptAWarmup(const std::vector<int64_t>& data,
                                   const OptAOptions& options) {
  RANGESYN_RETURN_IF_ERROR(ValidateOptAInput(data, options.max_buckets));
  const int64_t n = static_cast<int64_t>(data.size());
  const int64_t max_b = std::min<int64_t>(options.max_buckets, n);
  if (options.exact_buckets && options.max_buckets > n) {
    return InvalidArgumentError("OPT-A warm-up: more buckets than elements");
  }
  RANGESYN_OBS_SPAN("histogram.opta.warmup_dp");
  RANGESYN_FAILPOINT("alloc.opta_tables");
  RANGESYN_RETURN_IF_DEADLINE(options.deadline, "histogram.opta.deadline",
                              "OPT-A warm-up bucket tables");
  BucketTables tables(data, options.deadline);
  RANGESYN_RETURN_IF_DEADLINE(options.deadline, "histogram.opta.deadline",
                              "OPT-A warm-up bucket tables");

  // State key (Λ, Λ2); Λ2 = Σ u² is integral (sum of squared integers) and
  // is stored exactly as int64.
  struct Key {
    int64_t lambda;
    int64_t lambda2;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = static_cast<uint64_t>(k.lambda) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.lambda2) + 0x7f4a7c15ULL + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  using StateMap = std::unordered_map<Key, Entry, KeyHash>;

  std::vector<std::vector<StateMap>> layers(
      static_cast<size_t>(max_b) + 1,
      std::vector<StateMap>(static_cast<size_t>(n) + 1));
  layers[0][0].emplace(Key{0, 0}, Entry{0.0, -1});
  uint64_t states = 1;

  for (int64_t k = 1; k <= max_b; ++k) {
    for (int64_t j = k - 1; j < n; ++j) {
      RANGESYN_RETURN_IF_ERROR(options.deadline.Check("OPT-A warm-up"));
      const StateMap& src = layers[static_cast<size_t>(k - 1)]
                                  [static_cast<size_t>(j)];
      if (src.empty()) continue;
      // analyze: waive(SA-103) hash order cannot affect the result: for
      // fixed (j, i) the map key -> key + (SumU, SumU2) is injective, so
      // entries of one cell never collide in dst; collisions across cells
      // are min-merged under the deterministic outer j loop.
      for (const auto& [key, entry] : src) {
        const double lam = static_cast<double>(key.lambda);
        const double lam2 = static_cast<double>(key.lambda2);
        for (int64_t i = j + 1; i <= n; ++i) {
          const int64_t l = j + 1;
          // New queries with both endpoints <= i:
          //   intra + (i-j)*λ2 + 2λ*Σv + j*Σv².
          const double cost =
              entry.cost + tables.Intra(l, i) +
              static_cast<double>(i - j) * lam2 +
              2.0 * lam * static_cast<double>(tables.SumV(l, i)) +
              static_cast<double>(j) * tables.SumV2(l, i);
          const Key new_key{
              key.lambda + tables.SumU(l, i),
              key.lambda2 + static_cast<int64_t>(tables.SumU2(l, i))};
          StateMap& dst = layers[static_cast<size_t>(k)]
                                [static_cast<size_t>(i)];
          auto [it, inserted] = dst.try_emplace(new_key, Entry{cost, j});
          if (inserted) {
            if (++states > options.max_states) {
              return ResourceExhaustedError(
                  "OPT-A warm-up: state budget exceeded");
            }
          } else if (cost < it->second.cost) {
            it->second = Entry{cost, j};
          }
        }
      }
    }
  }

  double best_cost = kInf;
  int64_t best_k = -1;
  Key best_key{0, 0};
  const int64_t k_lo = options.exact_buckets ? max_b : 1;
  for (int64_t k = k_lo; k <= max_b; ++k) {
    RANGESYN_RETURN_IF_ERROR(
        options.deadline.Check("OPT-A warm-up terminal scan"));
    // analyze: waive(SA-103) min-selection with a total-order tie-break on
    // (cost, k, key); the winner is independent of hash iteration order.
    for (const auto& [key, entry] :
         layers[static_cast<size_t>(k)][static_cast<size_t>(n)]) {
      const bool tie =
          entry.cost == best_cost && k == best_k &&  // lint: float-eq-ok
          std::make_pair(key.lambda, key.lambda2) <
              std::make_pair(best_key.lambda, best_key.lambda2);
      if (entry.cost < best_cost || tie) {
        best_cost = entry.cost;
        best_k = k;
        best_key = key;
      }
    }
  }
  if (best_k < 0) return InternalError("OPT-A warm-up: no terminal state");

  std::vector<int64_t> ends;
  int64_t i = n;
  Key key = best_key;
  for (int64_t k = best_k; k >= 1; --k) {
    RANGESYN_RETURN_IF_ERROR(
        options.deadline.Check("OPT-A warm-up backtrack"));
    const StateMap& m =
        layers[static_cast<size_t>(k)][static_cast<size_t>(i)];
    const auto it = m.find(key);
    RANGESYN_CHECK(it != m.end());
    ends.push_back(i);
    const int64_t j = it->second.j;
    key.lambda -= tables.SumU(j + 1, i);
    key.lambda2 -= static_cast<int64_t>(tables.SumU2(j + 1, i));
    i = j;
  }
  RANGESYN_CHECK_EQ(i, 0);
  std::reverse(ends.begin(), ends.end());
  return FinishOptA(data, std::move(ends), best_cost, states);
}

Result<OptAResult> BuildOptARounded(const std::vector<int64_t>& data,
                                    const OptARoundedOptions& options) {
  if (options.granularity < 1) {
    return InvalidArgumentError("OPT-A-ROUNDED: granularity >= 1");
  }
  // Round entries to the nearest multiple of x, then divide through by x
  // (paper Definition 3).
  const double x = static_cast<double>(options.granularity);
  std::vector<int64_t> scaled(data.size());
  // analyze: waive(SA-105) O(n) rounding pass with an O(1) body; the inner
  // BuildOptA call immediately after observes the same deadline.
  for (size_t i = 0; i < data.size(); ++i) {
    scaled[i] = RoundHalfToEven(static_cast<double>(data[i]) / x);
    if (scaled[i] < 0) scaled[i] = 0;
  }
  OptAOptions inner;
  inner.max_buckets = options.max_buckets;
  inner.exact_buckets = options.exact_buckets;
  inner.max_states = options.max_states;
  inner.deadline = options.deadline;
  RANGESYN_ASSIGN_OR_RETURN(OptAResult rounded, BuildOptA(scaled, inner));

  // The DP objective on the scaled data, mapped back to original units.
  const double approx_sse = rounded.optimal_sse * x * x;

  if (options.refit_values) {
    RANGESYN_ASSIGN_OR_RETURN(
        AvgHistogram hist,
        AvgHistogram::WithTrueAverages(data, rounded.histogram.partition(),
                                       "OPT-A-ROUNDED",
                                       PieceRounding::kPerPiece));
    OptAResult out{std::move(hist), approx_sse, rounded.buckets_used,
                   rounded.states_explored};
    return out;
  }
  // Literal Definition 3: multiply the rounded-data averages through by x.
  std::vector<double> values = rounded.histogram.values();
  // analyze: waive(SA-105) O(B) scaling of final bucket values, after the
  // polled DP has already succeeded.
  for (double& v : values) v *= x;
  RANGESYN_ASSIGN_OR_RETURN(
      AvgHistogram hist,
      AvgHistogram::Create(rounded.histogram.partition(), std::move(values),
                           "OPT-A-ROUNDED", PieceRounding::kPerPiece));
  OptAResult out{std::move(hist), approx_sse, rounded.buckets_used,
                 rounded.states_explored};
  return out;
}

int64_t SuggestGranularity(const std::vector<int64_t>& data,
                           int64_t max_buckets, double epsilon) {
  RANGESYN_CHECK_GT(epsilon, 0.0);
  const int64_t n = static_cast<int64_t>(data.size());
  if (n == 0) return 1;
  const double ub = OptUpperBound(data, std::min<int64_t>(max_buckets, n));
  // Rounding by x perturbs s[a,b] by at most len*x/2; the aggregate SSE
  // perturbation over all ranges is bounded by (x^2/4) * Σ len² ≈ x²n⁴/48.
  // Choosing x so that this stays at most ε²·OPT keeps the result within
  // roughly (1+ε) of optimal.
  const double n4 = std::pow(static_cast<double>(n), 4.0) / 48.0;
  const double x = epsilon * std::sqrt(std::fmax(ub, 1.0) / n4);
  return std::max<int64_t>(1, static_cast<int64_t>(std::floor(x)));
}

}  // namespace rangesyn
