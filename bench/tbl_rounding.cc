// EXT-EPS — Theorem 4 empirically: OPT-A-ROUNDED with granularity x runs
// the exact pseudo-polynomial DP on data divided by x, shrinking the Λ
// state space (and hence time/memory) while degrading SSE by a bounded
// factor. We sweep x and report the SSE ratio to the exact optimum, the
// DP state counts, and build times.

#include <iostream>

#include "core/flags.h"
#include "core/logging.h"
#include "core/strings.h"
#include "data/rounding.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "histogram/opt_a_dp.h"
#include "obs/obs.h"

int main(int argc, char** argv) {
  using namespace rangesyn;

  FlagSet flags("tbl_rounding", "OPT-A-ROUNDED quality/cost trade-off");
  flags.DefineInt64("n", 127, "number of attribute values");
  flags.DefineDouble("alpha", 1.8, "Zipf tail exponent");
  flags.DefineDouble("volume", 8000.0,
                     "total record count (higher stresses the Λ space)");
  flags.DefineInt64("seed", 20010521, "dataset seed");
  flags.DefineInt64("buckets", 12, "histogram buckets");
  flags.DefineString("granularities", "1,2,4,8,16,32", "values of x");
  flags.DefineString("json", "", "also write a schema-versioned JSON report");
  flags.DefineString("trace-out", "",
                     "write a Chrome trace (chrome://tracing) of the run");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    if (s.code() == StatusCode::kFailedPrecondition) return 0;
    std::cerr << s << "\n";
    return 1;
  }
  obs::TraceGuard trace_guard(flags.GetString("trace-out"));

  PaperDatasetOptions dataset_options;
  dataset_options.n = flags.GetInt64("n");
  dataset_options.alpha = flags.GetDouble("alpha");
  dataset_options.total_volume = flags.GetDouble("volume");
  dataset_options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto data_or = MakePaperDataset(dataset_options);
  RANGESYN_CHECK_OK(data_or.status());
  const std::vector<int64_t>& data = data_or.value();
  const int64_t buckets = flags.GetInt64("buckets");

  std::cout << "# EXT-EPS: OPT-A-ROUNDED (Definition 3 / Theorem 4) — "
               "granularity x vs quality and DP cost\n";
  double exact_sse = -1.0;
  TextTable table({"x", "SSE", "SSE/OPT", "DP states", "build(s)"});
  for (const std::string& x_text :
       StrSplit(flags.GetString("granularities"), ',')) {
    int64_t x = 0;
    RANGESYN_CHECK(ParseInt64(x_text, &x));
    OptARoundedOptions options;
    options.max_buckets = buckets;
    options.granularity = x;
    obs::Stopwatch watch;
    auto result = BuildOptARounded(data, options);
    const double build_seconds = watch.Seconds();
    RANGESYN_CHECK_OK(result.status());
    const double sse =
        AllRangesSse(data, *result->histogram.Compile().value()).value();
    if (x == 1) exact_sse = sse;
    table.AddRow(
        {StrCat(x), FormatG(sse),
         exact_sse > 0 ? FormatG(sse / exact_sse, 4) : "-",
         StrCat(result->states_explored), FormatG(build_seconds, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nsuggested granularity for eps=0.5: "
            << SuggestGranularity(data, buckets, 0.5)
            << ", for eps=0.1: " << SuggestGranularity(data, buckets, 0.1)
            << "\n";
  if (!flags.GetString("json").empty()) {
    BenchReport report("tbl_rounding");
    report.AddMeta("n", dataset_options.n);
    report.AddMeta("alpha", dataset_options.alpha);
    report.AddMeta("volume", dataset_options.total_volume);
    report.AddMeta("seed", static_cast<int64_t>(dataset_options.seed));
    report.AddMeta("buckets", buckets);
    report.AddTable("rounding", table);
    RANGESYN_CHECK_OK(report.WriteJsonFile(flags.GetString("json")));
    std::cout << "# wrote JSON -> " << flags.GetString("json") << "\n";
  }
  return 0;
}
