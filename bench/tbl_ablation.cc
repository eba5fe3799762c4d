// EXT-ABL — ablation of the two admissible prunes in the OPT-A dynamic
// program (DESIGN.md §3.1). Both are this library's engineering additions
// on top of the paper's algorithm; they never change the optimum (they
// discard only provably dominated states), so the table reports identical
// SSE with very different state counts and build times.

#include <iostream>
#include <optional>

#include "core/deadline.h"
#include "core/flags.h"
#include "core/logging.h"
#include "core/strings.h"
#include "core/threadpool.h"
#include "data/rounding.h"
#include "engine/factory.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "histogram/opt_a_dp.h"
#include "obs/obs.h"

int main(int argc, char** argv) {
  using namespace rangesyn;

  FlagSet flags("tbl_ablation", "OPT-A DP pruning ablation");
  flags.DefineInt64("n", 127, "number of attribute values");
  flags.DefineDouble("alpha", 1.8, "Zipf tail exponent");
  flags.DefineDouble("volume", 2000.0, "total record count");
  flags.DefineInt64("seed", 20010521, "dataset seed");
  flags.DefineInt64("buckets", 8, "histogram buckets");
  flags.DefineInt64("max_states", 80000000, "DP state cap");
  flags.DefineString("json", "", "also write a schema-versioned JSON report");
  flags.DefineString("trace-out", "",
                     "write a Chrome trace (chrome://tracing) of the run");
  flags.DefineInt64("threads", -1,
                    "worker threads (0 = all cores, 1 = serial; -1 keeps "
                    "the RANGESYN_THREADS env default)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    if (s.code() == StatusCode::kFailedPrecondition) return 0;
    std::cerr << s << "\n";
    return 1;
  }
  if (flags.GetInt64("threads") >= 0) {
    SetGlobalThreads(static_cast<int>(flags.GetInt64("threads")));
  }
  obs::TraceGuard trace_guard(flags.GetString("trace-out"));

  PaperDatasetOptions dataset_options;
  dataset_options.n = flags.GetInt64("n");
  dataset_options.alpha = flags.GetDouble("alpha");
  dataset_options.total_volume = flags.GetDouble("volume");
  dataset_options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto data = MakePaperDataset(dataset_options);
  RANGESYN_CHECK_OK(data.status());

  struct Config {
    const char* label;
    bool dominance;
    bool lambda_cap;
  };
  const Config configs[] = {
      {"both prunes (default)", true, true},
      {"dominance only", true, false},
      {"lambda-cap only", false, true},
      {"no pruning", false, false},
  };

  std::cout << "# EXT-ABL: OPT-A DP pruning ablation (B="
            << flags.GetInt64("buckets") << ")\n";
  TextTable table({"configuration", "optimal SSE", "DP states",
                   "build(s)", "status"});
  std::optional<AvgHistogram> optimal_histogram;
  for (const Config& config : configs) {
    OptAOptions options;
    options.max_buckets = flags.GetInt64("buckets");
    options.max_states =
        static_cast<uint64_t>(flags.GetInt64("max_states"));
    options.enable_dominance_prune = config.dominance;
    options.enable_lambda_cap = config.lambda_cap;
    obs::Stopwatch watch;
    auto result = BuildOptA(data.value(), options);
    const double secs = watch.Seconds();
    if (result.ok()) {
      if (!optimal_histogram.has_value()) {
        optimal_histogram = result->histogram;
      }
      table.AddRow({config.label, FormatG(result->optimal_sse),
                    StrCat(result->states_explored), FormatG(secs, 3),
                    "ok"});
    } else {
      table.AddRow({config.label, "-", "-", FormatG(secs, 3),
                    std::string(StatusCodeToString(result.status().code()))});
    }
  }
  table.Print(std::cout);
  std::cout << "\nAll successful configurations must report identical SSE "
               "(the prunes are admissible).\n";

  // Degraded-build accounting (EXPERIMENTS.md): the same build with a
  // pre-expired deadline (a cancelled token, so the trip is deterministic)
  // walks the engine's fallback ladder instead of failing, and this table
  // prices that fallback: its all-ranges SSE against the optimum above.
  std::cout << "\n# degraded build: OPT-A under an expired deadline\n";
  TextTable degraded_table({"requested", "built", "fallback reason",
                            "all-ranges SSE", "SSE / optimal"});
  SynopsisSpec spec;
  spec.method = "opta";
  spec.budget_words = 2 * flags.GetInt64("buckets");
  spec.max_states = static_cast<uint64_t>(flags.GetInt64("max_states"));
  CancellationToken cancelled;
  cancelled.Cancel();
  BuildOptions degrade_options;
  degrade_options.deadline = Deadline::FromToken(cancelled);
  auto degraded =
      BuildSynopsisWithOptions(spec, data.value(), degrade_options);
  RANGESYN_CHECK_OK(degraded.status());
  int64_t degraded_count = degraded->degraded ? 1 : 0;
  auto fallback_sse = AllRangesSse(data.value(), *degraded->synopsis);
  RANGESYN_CHECK_OK(fallback_sse.status());
  double sse_ratio = 0.0;
  std::string ratio_text = "-";
  if (optimal_histogram.has_value()) {
    auto optimal_sse =
        AllRangesSse(data.value(), *optimal_histogram->Compile().value());
    RANGESYN_CHECK_OK(optimal_sse.status());
    if (optimal_sse.value() > 0.0) {
      sse_ratio = fallback_sse.value() / optimal_sse.value();
      ratio_text = FormatG(sse_ratio);
    }
  }
  degraded_table.AddRow({spec.method, degraded->built_method,
                         degraded->fallback_reason,
                         FormatG(fallback_sse.value()), ratio_text});
  degraded_table.Print(std::cout);
  std::cout << "degraded builds this run: " << degraded_count << "\n";

  if (!flags.GetString("json").empty()) {
    BenchReport report("tbl_ablation");
    report.AddMeta("n", dataset_options.n);
    report.AddMeta("alpha", dataset_options.alpha);
    report.AddMeta("volume", dataset_options.total_volume);
    report.AddMeta("seed", static_cast<int64_t>(dataset_options.seed));
    report.AddMeta("buckets", flags.GetInt64("buckets"));
    report.AddMeta("threads", static_cast<int64_t>(GlobalThreads()));
    report.AddMeta("degraded", degraded_count);
    report.AddMeta("degraded_built_method", degraded->built_method);
    report.AddMeta("fallback_sse_ratio", sse_ratio);
    report.AddTable("ablation", table);
    report.AddTable("degraded_build", degraded_table);
    RANGESYN_CHECK_OK(report.WriteJsonFile(flags.GetString("json")));
    std::cout << "# wrote JSON -> " << flags.GetString("json") << "\n";
  }
  return 0;
}
