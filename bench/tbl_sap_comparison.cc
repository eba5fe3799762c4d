// CLAIM-S — the paper's §4 comparisons among the SAP variants and OPT-A:
//  * "SAP1 is provably better than OPT-A for the same number of buckets,
//     however it requires 2.5 times more space."
//  * "In our tests OPT-A is 2-4 times better than SAP1, with respect to
//     SSE for a given space bound."
//  * "The SAP0 approximation ... was inferior (in terms of SSE per unit
//     storage) to all other histograms that we tested."
//
// Two tables: equal-bucket-count (SAP1 must win or tie) and equal-storage
// (OPT-A expected to win by using more buckets).

#include <iostream>

#include "core/flags.h"
#include "core/logging.h"
#include "core/strings.h"
#include "data/rounding.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "histogram/builders.h"
#include "histogram/opt_a_dp.h"
#include "obs/obs.h"

int main(int argc, char** argv) {
  using namespace rangesyn;

  FlagSet flags("tbl_sap_comparison", "SAP0/SAP1 vs OPT-A comparisons");
  flags.DefineInt64("n", 127, "number of attribute values");
  flags.DefineDouble("alpha", 1.8, "Zipf tail exponent");
  flags.DefineDouble("volume", 2000.0, "total record count");
  flags.DefineInt64("seed", 20010521, "dataset seed");
  flags.DefineString("bucket_counts", "4,6,8,12,16", "bucket counts B");
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

  std::vector<int64_t> bucket_counts;
  for (const std::string& b :
       StrSplit(flags.GetString("bucket_counts"), ',')) {
    int64_t v = 0;
    RANGESYN_CHECK(ParseInt64(b, &v));
    bucket_counts.push_back(v);
  }

  // ---- Table 1: equal bucket count B (SAP1 must be <= OPT-A).
  std::cout << "# CLAIM-S (a): equal bucket count — SAP1 is provably <= "
               "OPT-A at the same B (using 2.5x the space)\n";
  TextTable equal_b({"B", "OPT-A SSE (2B words)", "SAP1 SSE (5B words)",
                     "SAP1 <= OPT-A?"});
  for (int64_t b : bucket_counts) {
    OptAOptions opta_options;
    opta_options.max_buckets = b;
    auto opta = BuildOptA(data, opta_options);
    RANGESYN_CHECK_OK(opta.status());
    auto sap1 = BuildSap1(data, b);
    RANGESYN_CHECK_OK(sap1.status());
    auto sse_opta = AllRangesSse(data, *opta->histogram.Compile().value());
    auto sse_sap1 = AllRangesSse(data, *sap1->Compile().value());
    RANGESYN_CHECK_OK(sse_opta.status());
    RANGESYN_CHECK_OK(sse_sap1.status());
    equal_b.AddRow({StrCat(b), FormatG(sse_opta.value()),
                    FormatG(sse_sap1.value()),
                    sse_sap1.value() <= sse_opta.value() * (1 + 1e-9)
                        ? "yes"
                        : "NO"});
  }
  equal_b.Print(std::cout);

  // ---- Table 2: equal storage (paper: OPT-A 2-4x better than SAP1;
  // SAP0 inferior per unit storage).
  std::cout << "\n# CLAIM-S (b): equal storage — OPT-A vs SAP1 vs SAP0 "
               "(paper: OPT-A 2-4x better than SAP1; SAP0 worst)\n";
  TextTable equal_w({"words", "OPT-A SSE", "SAP1 SSE", "SAP0 SSE",
                     "SAP1/OPT-A", "SAP0 worst?"});
  for (int64_t b : bucket_counts) {
    const int64_t words = 2 * b * 5 / 2;  // 5B words, a shared budget
    OptAOptions opta_options;
    opta_options.max_buckets = words / 2;
    auto opta = BuildOptA(data, opta_options);
    RANGESYN_CHECK_OK(opta.status());
    auto sap1 = BuildSap1(data, words / 5);
    auto sap0 = BuildSap0(data, words / 3);
    RANGESYN_CHECK_OK(sap1.status());
    RANGESYN_CHECK_OK(sap0.status());
    const double sse_opta =
        AllRangesSse(data, *opta->histogram.Compile().value()).value();
    const double sse_sap1 =
        AllRangesSse(data, *sap1->Compile().value()).value();
    const double sse_sap0 =
        AllRangesSse(data, *sap0->Compile().value()).value();
    equal_w.AddRow({StrCat(words), FormatG(sse_opta), FormatG(sse_sap1),
                    FormatG(sse_sap0), FormatG(sse_sap1 / sse_opta, 3),
                    (sse_sap0 >= sse_sap1 && sse_sap0 >= sse_opta) ? "yes"
                                                                   : "no"});
  }
  equal_w.Print(std::cout);
  if (!flags.GetString("json").empty()) {
    BenchReport report("tbl_sap_comparison");
    report.AddMeta("n", dataset_options.n);
    report.AddMeta("alpha", dataset_options.alpha);
    report.AddMeta("volume", dataset_options.total_volume);
    report.AddMeta("seed", static_cast<int64_t>(dataset_options.seed));
    report.AddTable("equal_bucket_count", equal_b);
    report.AddTable("equal_storage", equal_w);
    RANGESYN_CHECK_OK(report.WriteJsonFile(flags.GetString("json")));
    std::cout << "# wrote JSON -> " << flags.GetString("json") << "\n";
  }
  return 0;
}
