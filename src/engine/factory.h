#ifndef RANGESYN_ENGINE_FACTORY_H_
#define RANGESYN_ENGINE_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/deadline.h"
#include "core/result.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {

/// A request to build one synopsis under a storage budget measured in
/// machine words — the accounting of the paper's Figure 1 x-axis. The
/// factory converts the budget into the method's natural parameter
/// (buckets or coefficients) using the per-method words-per-unit cost.
struct SynopsisSpec {
  /// One of KnownSynopsisMethods().
  std::string method;

  /// Storage budget in words; the built synopsis uses at most this much.
  int64_t budget_words = 16;

  /// OPT-A family only: rounding granularity for "opta-rounded"
  /// (Definition 3's parameter x).
  int64_t granularity = 2;

  /// OPT-A family only: DP state safety cap.
  uint64_t max_states = 50'000'000;
};

/// Methods the factory understands, in the order of the method table in
/// factory.cc, which gives each one's words per unit, build and fallback
/// ladder.
std::vector<std::string> KnownSynopsisMethods();

/// Builds a synopsis for `data` per `spec` and returns the flat view
/// that answers its queries (src/qpath). The heavy constructions
/// (pseudo-polynomial OPT-A) can fail with ResourceExhausted; everything
/// else is polynomial. Strict: no deadline, no fallback — use
/// BuildSynopsisWithOptions for graceful degradation.
Result<std::shared_ptr<const FlatSynopsis>> BuildSynopsis(
    const SynopsisSpec& spec, const std::vector<int64_t>& data);

/// Resource limits for a degradable build.
struct BuildOptions {
  /// Cooperative deadline observed inside the heavy constructions. The
  /// default never expires.
  Deadline deadline;

  /// Overrides spec.max_states when non-zero (OPT-A family state cap).
  uint64_t max_states = 0;
};

/// A build that may have degraded. `synopsis` is always usable.
struct BuildOutcome {
  std::shared_ptr<const FlatSynopsis> synopsis;

  /// Method actually built — spec.method, or the fallback that succeeded.
  std::string built_method;

  /// True when the requested method tripped its deadline or state budget
  /// and a ladder fallback was built instead.
  bool degraded = false;

  /// Original spec.method when degraded, empty otherwise.
  std::string degraded_from;

  /// The status message of the failure that triggered the (first)
  /// fallback, empty otherwise.
  std::string fallback_reason;
};

/// Like BuildSynopsis, but when the requested method fails with
/// DeadlineExceeded or ResourceExhausted, walks a fallback ladder of
/// cheaper constructions under the same word budget instead of failing
/// (DESIGN.md §9.2):
///
///   opta / opta-reopt  ->  opta-rounded  ->  sap0  ->  equiwidth
///   DP histograms (vopt, pointopt, a0, sap0/1/2, prefixopt, *-reopt)
///                                        ->  equiwidth
///   wave-range-opt / wave-point / topbb  ->  topbb
///
/// The final rung of each ladder is built without the deadline, so an
/// already-expired deadline still yields a usable (degraded) synopsis.
/// Errors other than DeadlineExceeded/ResourceExhausted — invalid input,
/// injected faults — propagate unchanged.
Result<BuildOutcome> BuildSynopsisWithOptions(
    const SynopsisSpec& spec, const std::vector<int64_t>& data,
    const BuildOptions& options);

/// Words each stored unit (bucket / coefficient) of `method` costs, e.g.
/// 2 for "opta", 3 for "sap0", 5 for "sap1". Fails on unknown methods.
Result<int64_t> WordsPerUnit(const std::string& method);

}  // namespace rangesyn

#endif  // RANGESYN_ENGINE_FACTORY_H_
