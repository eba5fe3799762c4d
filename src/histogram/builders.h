#ifndef RANGESYN_HISTOGRAM_BUILDERS_H_
#define RANGESYN_HISTOGRAM_BUILDERS_H_

#include <cstdint>
#include <vector>

#include "core/analysis_annotations.h"
#include "core/deadline.h"
#include "core/result.h"
#include "histogram/histogram.h"

namespace rangesyn {

/// Builders for the histogram family. Each takes the attribute-value
/// distribution `data` (A[i] = data[i-1], non-negative counts) and a bucket
/// count `buckets`, and chooses boundaries per its construction rule.
/// See DESIGN.md §2 for the estimator matrix.
///
/// The DP-backed builders accept an optional cooperative `deadline`
/// (checked once per block of 32 DP rows); expiry fails the build with
/// DeadlineExceeded, which the engine factory's fallback ladder converts
/// into a cheaper construction (DESIGN.md §9). The near-linear builders
/// (equi-*, maxdiff, naive) are the ladder's final rungs and take none.

/// SAP0 (paper Theorem 6): exactly range-optimal for its 3-words-per-bucket
/// representation, O(n^2 B) time via the Decomposition Lemma.
RANGESYN_CANCELLABLE Result<Sap0Histogram> BuildSap0(const std::vector<int64_t>& data,
                                int64_t buckets,
                                const Deadline& deadline = Deadline());

/// SAP1 (paper Theorem 8): exactly range-optimal for its 5-words-per-bucket
/// representation, O(n^2 B) time.
RANGESYN_CANCELLABLE Result<Sap1Histogram> BuildSap1(const std::vector<int64_t>& data,
                                int64_t buckets,
                                const Deadline& deadline = Deadline());

/// SAP2 (this library's extension of §2.2.2): exactly range-optimal for
/// its 7-words-per-bucket quadratic representation, O(n^2 B) time.
RANGESYN_CANCELLABLE Result<Sap2Histogram> BuildSap2(const std::vector<int64_t>& data,
                                int64_t buckets,
                                const Deadline& deadline = Deadline());

/// A0 heuristic (paper §4): average-only representation; the DP minimizes
/// the cost with the cross term dropped, so the result is near- but not
/// exactly optimal for the OPT-A representation.
RANGESYN_CANCELLABLE Result<AvgHistogram> BuildA0(const std::vector<int64_t>& data,
                             int64_t buckets,
                             PieceRounding rounding = PieceRounding::kPerPiece,
                             const Deadline& deadline = Deadline());

/// POINT-OPT (paper §4): V-optimal [6] with point weights i(n-i+1).
RANGESYN_CANCELLABLE Result<AvgHistogram> BuildPointOpt(const std::vector<int64_t>& data,
                                   int64_t buckets,
                                   PieceRounding rounding =
                                       PieceRounding::kPerPiece,
                                   const Deadline& deadline = Deadline());

/// Classical (unweighted) V-optimal histogram of [6].
RANGESYN_CANCELLABLE Result<AvgHistogram> BuildVOptimal(const std::vector<int64_t>& data,
                                   int64_t buckets,
                                   PieceRounding rounding =
                                       PieceRounding::kPerPiece,
                                   const Deadline& deadline = Deadline());

/// Equal-width buckets with true bucket averages.
Result<AvgHistogram> BuildEquiWidth(const std::vector<int64_t>& data,
                                    int64_t buckets,
                                    PieceRounding rounding =
                                        PieceRounding::kPerPiece);

/// Equi-depth (equal mass per bucket) with true bucket averages.
Result<AvgHistogram> BuildEquiDepth(const std::vector<int64_t>& data,
                                    int64_t buckets,
                                    PieceRounding rounding =
                                        PieceRounding::kPerPiece);

/// MaxDiff: boundaries at the buckets-1 largest adjacent differences
/// |A[i+1] - A[i]|.
Result<AvgHistogram> BuildMaxDiff(const std::vector<int64_t>& data,
                                  int64_t buckets,
                                  PieceRounding rounding =
                                      PieceRounding::kPerPiece);

/// PREFIX-OPT: optimal for the *hierarchical/prefix* query family [1, b]
/// only — the restricted setting earlier work solved optimally (paper
/// §1: "previously known results were optimal only for ... hierarchical
/// or prefix range queries"). Under eq.(1) answering the prefix error of
/// query [1, b] is exactly the right-piece error v'_b, so the bucket cost
/// is Σ v'² and the O(n²B) DP is exactly prefix-optimal. Evaluating this
/// histogram on *all* ranges demonstrates why prefix-optimality is not
/// range-optimality.
RANGESYN_CANCELLABLE Result<AvgHistogram> BuildPrefixOpt(const std::vector<int64_t>& data,
                                    int64_t buckets,
                                    PieceRounding rounding =
                                        PieceRounding::kNone,
                                    const Deadline& deadline = Deadline());

/// The single-value NAIVE synopsis.
Result<NaiveEstimator> BuildNaive(const std::vector<int64_t>& data);

}  // namespace rangesyn

#endif  // RANGESYN_HISTOGRAM_BUILDERS_H_
