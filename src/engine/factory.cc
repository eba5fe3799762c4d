#include "engine/factory.h"

#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/strings.h"
#include "histogram/builders.h"
#include "obs/obs.h"
#include "histogram/opt_a_dp.h"
#include "histogram/reopt.h"
#include "wavelet/selection.h"

namespace rangesyn {
namespace {

Result<int64_t> UnitsForBudget(int64_t budget_words, int64_t words_per_unit) {
  if (budget_words < 1) {
    return InvalidArgumentError(
        StrCat("budget_words must be >= 1, got ", budget_words));
  }
  const int64_t units = budget_words / words_per_unit;
  if (units < 1) {
    return InvalidArgumentError(
        StrCat("budget of ", budget_words, " words cannot fund one unit at ",
               words_per_unit, " words/unit"));
  }
  return units;
}

using View = std::shared_ptr<const FlatSynopsis>;

/// What a method's build function gets: the data, the unit count its
/// word cost affords under spec.budget_words, and the OPT-A knobs.
struct BuildArgs {
  const std::vector<int64_t>& data;
  int64_t units;
  const SynopsisSpec& spec;
  const Deadline& deadline;
  uint64_t max_states;
};

/// The view of a builder's record, or the builder's error.
template <typename Record>
Result<View> Compiled(Result<Record> record) {
  RANGESYN_RETURN_IF_ERROR(record.status());
  return record->Compile();
}

OptAOptions OptAFor(const BuildArgs& a) {
  OptAOptions options;
  options.max_buckets = a.units;
  options.max_states = a.max_states;
  options.deadline = a.deadline;
  return options;
}

Result<AvgHistogram> OptAHistogram(const BuildArgs& a) {
  RANGESYN_ASSIGN_OR_RETURN(OptAResult r, BuildOptA(a.data, OptAFor(a)));
  return std::move(r.histogram);
}

constexpr PieceRounding kPerPiece = PieceRounding::kPerPiece;

/// One factory method: its name, the words each stored unit (bucket or
/// coefficient) costs, its build, and the degradation ladder of cheaper
/// methods tried in order after a deadline/state-budget trip. The last
/// rung is built without the deadline (see BuildSynopsisWithOptions), so
/// ladders end in a near-linear construction that cannot itself trip;
/// naive / equiwidth / equidepth / maxdiff never observe the deadline.
struct Method {
  const char* name;
  int64_t words_per_unit;
  Result<View> (*build)(const BuildArgs&);
  std::vector<std::string> ladder;
};

/// Every method the factory builds, in KnownSynopsisMethods() order.
const std::vector<Method>& Methods() {
  static const std::vector<Method> kMethods = {
      {"naive", 1,
       [](const BuildArgs& a) { return Compiled(BuildNaive(a.data)); },
       {}},
      {"equiwidth", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildEquiWidth(a.data, a.units));
       },
       {}},
      {"equidepth", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildEquiDepth(a.data, a.units));
       },
       {}},
      {"maxdiff", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildMaxDiff(a.data, a.units));
       },
       {}},
      {"vopt", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildVOptimal(a.data, a.units, kPerPiece, a.deadline));
       },
       {"equiwidth"}},
      {"pointopt", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildPointOpt(a.data, a.units, kPerPiece, a.deadline));
       },
       {"equiwidth"}},
      {"a0", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildA0(a.data, a.units, kPerPiece, a.deadline));
       },
       {"equiwidth"}},
      {"sap0", 3,
       [](const BuildArgs& a) {
         return Compiled(BuildSap0(a.data, a.units, a.deadline));
       },
       {"equiwidth"}},
      {"sap1", 5,
       [](const BuildArgs& a) {
         return Compiled(BuildSap1(a.data, a.units, a.deadline));
       },
       {"equiwidth"}},
      {"sap2", 7,
       [](const BuildArgs& a) {
         return Compiled(BuildSap2(a.data, a.units, a.deadline));
       },
       {"equiwidth"}},
      {"prefixopt", 2,
       [](const BuildArgs& a) {
         return Compiled(
             BuildPrefixOpt(a.data, a.units, kPerPiece, a.deadline));
       },
       {"equiwidth"}},
      {"opta", 2,
       [](const BuildArgs& a) { return Compiled(OptAHistogram(a)); },
       {"opta-rounded", "sap0", "equiwidth"}},
      {"opta-rounded", 2,
       [](const BuildArgs& a) -> Result<View> {
         OptARoundedOptions options;
         options.max_buckets = a.units;
         options.granularity = a.spec.granularity;
         options.max_states = a.max_states;
         options.deadline = a.deadline;
         RANGESYN_ASSIGN_OR_RETURN(OptAResult r,
                                   BuildOptARounded(a.data, options));
         return r.histogram.Compile();
       },
       {"sap0", "equiwidth"}},
      {"equidepth-reopt", 2,
       [](const BuildArgs& a) -> Result<View> {
         RANGESYN_ASSIGN_OR_RETURN(AvgHistogram base,
                                   BuildEquiDepth(a.data, a.units));
         return Compiled(Reoptimize(a.data, base));
       },
       {"equiwidth"}},
      {"a0-reopt", 2,
       [](const BuildArgs& a) -> Result<View> {
         RANGESYN_ASSIGN_OR_RETURN(
             AvgHistogram base,
             BuildA0(a.data, a.units, kPerPiece, a.deadline));
         return Compiled(Reoptimize(a.data, base));
       },
       {"equiwidth"}},
      {"opta-reopt", 2,
       [](const BuildArgs& a) -> Result<View> {
         RANGESYN_ASSIGN_OR_RETURN(AvgHistogram base, OptAHistogram(a));
         return Compiled(Reoptimize(a.data, base));
       },
       {"opta-rounded", "sap0", "equiwidth"}},
      {"wave-point", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildWavePoint(a.data, a.units, a.deadline));
       },
       {"topbb"}},
      {"topbb", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildTopBB(a.data, a.units, a.deadline));
       },
       {"topbb"}},
      {"wave-range-opt", 2,
       [](const BuildArgs& a) {
         return Compiled(BuildWaveRangeOpt(a.data, a.units, a.deadline));
       },
       {"topbb"}},
  };
  return kMethods;
}

Result<const Method*> FindMethod(const std::string& m) {
  for (const Method& method : Methods()) {
    if (m == method.name) return &method;
  }
  return InvalidArgumentError(StrCat("unknown synopsis method '", m, "'"));
}

/// Builds exactly `m` (with spec supplying the budget and OPT-A knobs),
/// recomputing the unit count for the method's own word cost so a
/// ladder fallback honors the same budget_words.
Result<View> BuildOneMethod(const std::string& m, const SynopsisSpec& spec,
                            const std::vector<int64_t>& data,
                            const Deadline& deadline, uint64_t max_states) {
  RANGESYN_ASSIGN_OR_RETURN(const Method* method, FindMethod(m));
  RANGESYN_ASSIGN_OR_RETURN(
      const int64_t units,
      UnitsForBudget(spec.budget_words, method->words_per_unit));
  return method->build(BuildArgs{data, units, spec, deadline, max_states});
}

/// As BuildOneMethod, but converts a thrown exception — e.g. an injected
/// "threadpool.task" fault escaping ParallelFor — into a clean Status, so
/// no fault can crash a caller of the factory.
Result<View> BuildOneMethodNoThrow(const std::string& m,
                                   const SynopsisSpec& spec,
                                   const std::vector<int64_t>& data,
                                   const Deadline& deadline,
                                   uint64_t max_states) {
  try {
    return BuildOneMethod(m, spec, data, deadline, max_states);
  } catch (const std::exception& e) {
    return InternalError(
        StrCat("synopsis build '", m, "' threw: ", e.what()));
  }
}

bool ShouldFallBack(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kResourceExhausted;
}

}  // namespace

std::vector<std::string> KnownSynopsisMethods() {
  std::vector<std::string> names;
  for (const Method& method : Methods()) names.push_back(method.name);
  return names;
}

Result<int64_t> WordsPerUnit(const std::string& method) {
  RANGESYN_ASSIGN_OR_RETURN(const Method* m, FindMethod(method));
  return m->words_per_unit;
}

Result<std::shared_ptr<const FlatSynopsis>> BuildSynopsis(
    const SynopsisSpec& spec, const std::vector<int64_t>& data) {
  RANGESYN_OBS_SPAN("engine.build");
  RANGESYN_OBS_COUNTER_INC("engine.build.count");
  RANGESYN_OBS_GAUGE_SET("engine.build.last_n",
                         static_cast<int64_t>(data.size()));
  return BuildOneMethodNoThrow(spec.method, spec, data, Deadline(),
                               spec.max_states);
}

Result<BuildOutcome> BuildSynopsisWithOptions(
    const SynopsisSpec& spec, const std::vector<int64_t>& data,
    const BuildOptions& options) {
  RANGESYN_OBS_SPAN("engine.build");
  RANGESYN_OBS_COUNTER_INC("engine.build.count");
  RANGESYN_OBS_GAUGE_SET("engine.build.last_n",
                         static_cast<int64_t>(data.size()));
  const uint64_t max_states =
      options.max_states != 0 ? options.max_states : spec.max_states;

  Result<View> first = BuildOneMethodNoThrow(
      spec.method, spec, data, options.deadline, max_states);
  if (first.ok()) {
    BuildOutcome out;
    out.synopsis = std::move(first.value());
    out.built_method = spec.method;
    return out;
  }
  if (!ShouldFallBack(first.status())) return first.status();

  RANGESYN_ASSIGN_OR_RETURN(const Method* method, FindMethod(spec.method));
  const std::vector<std::string>& ladder = method->ladder;
  const std::string reason(first.status().message());
  RANGESYN_LOG_EVENT(Warning, "engine.build.fallback_start")
      .Arg("method", spec.method)
      .Arg("ladder_len", static_cast<int64_t>(ladder.size()))
      .Arg("reason", reason);
  Status last = first.status();
  for (size_t rung = 0; rung < ladder.size(); ++rung) {
    // The final rung runs deadline-free: an already-expired deadline must
    // still produce a usable synopsis, and every ladder ends in a
    // near-linear construction whose cost is negligible by design.
    const bool final_rung = rung + 1 == ladder.size();
    Result<View> attempt = BuildOneMethodNoThrow(
        ladder[rung], spec, data,
        final_rung ? Deadline() : options.deadline, max_states);
    if (attempt.ok()) {
      RANGESYN_OBS_COUNTER_INC("engine.build.degraded");
      RANGESYN_LOG_EVENT(Warning, "engine.build.degraded")
          .Arg("from", spec.method)
          .Arg("to", ladder[rung])
          .Arg("rung", static_cast<int64_t>(rung))
          .Arg("n", static_cast<int64_t>(data.size()))
          .Arg("reason", reason);
#if RANGESYN_OBS_ENABLED
      // A degraded build is trigger class 3 (flight.h): capture the lead-up
      // — deadline expiries, per-rung failures — plus a metrics snapshot.
      ::rangesyn::obs::FlightRecorder::Get().AutoDump("build_degraded");
#endif
      BuildOutcome out;
      out.synopsis = std::move(attempt.value());
      out.built_method = ladder[rung];
      out.degraded = true;
      out.degraded_from = spec.method;
      out.fallback_reason = reason;
      return out;
    }
    if (!ShouldFallBack(attempt.status())) return attempt.status();
    last = attempt.status();
  }
  return last;
}

}  // namespace rangesyn
