// Quickstart: build the paper's dataset, construct a few synopses, and
// compare their range-query estimates and all-ranges SSE.
//
//   ./build/examples/quickstart [--n=127] [--buckets=12] [--seed=20010521]

#include <iostream>
#include <memory>

#include "core/flags.h"
#include "core/logging.h"
#include "core/strings.h"
#include "data/rounding.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "histogram/builders.h"
#include "histogram/opt_a_dp.h"
#include "histogram/prefix_stats.h"
#include "qpath/flat_synopsis.h"
#include "wavelet/selection.h"

int main(int argc, char** argv) {
  using namespace rangesyn;

  FlagSet flags("quickstart", "rangesyn library tour on the paper dataset");
  flags.DefineInt64("n", 127, "domain size (number of attribute values)");
  flags.DefineInt64("buckets", 12, "histogram buckets / wavelet terms");
  flags.DefineInt64("seed", 20010521, "dataset seed");
  flags.DefineDouble("volume", 2000.0, "total record count");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    if (s.code() == StatusCode::kFailedPrecondition) return 0;  // --help
    std::cerr << s << "\n";
    return 1;
  }

  // 1. The paper's dataset: Zipf(1.8) floats, randomly rounded to integer
  //    counts.
  PaperDatasetOptions dataset_options;
  dataset_options.n = flags.GetInt64("n");
  dataset_options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  dataset_options.total_volume = flags.GetDouble("volume");
  Result<std::vector<int64_t>> dataset = MakePaperDataset(dataset_options);
  RANGESYN_CHECK_OK(dataset.status());
  const std::vector<int64_t>& data = dataset.value();
  PrefixStats stats(data);
  std::cout << "dataset: n=" << stats.n() << "  total records="
            << stats.TotalVolume() << "\n\n";

  const int64_t buckets = flags.GetInt64("buckets");

  // 2. Build synopses: a classical equi-depth baseline, the paper's SAP1
  //    (polynomial-time, provably optimal for its representation), the
  //    pseudo-polynomial range-optimal OPT-A, and the range-optimal
  //    wavelet synopsis of Theorem 9.
  auto equidepth = BuildEquiDepth(data, buckets);
  auto sap1 = BuildSap1(data, buckets);
  OptAOptions opta_options;
  opta_options.max_buckets = buckets;
  auto opta = BuildOptA(data, opta_options);
  auto wave = BuildWaveRangeOpt(data, buckets);
  RANGESYN_CHECK_OK(equidepth.status());
  RANGESYN_CHECK_OK(sap1.status());
  RANGESYN_CHECK_OK(opta.status());
  RANGESYN_CHECK_OK(wave.status());

  // 3. Compile each builder's record into the flat view that answers its
  //    queries, and answer a few representative range queries.
  const std::shared_ptr<const FlatSynopsis> views[] = {
      equidepth->Compile().value(), sap1->Compile().value(),
      opta->histogram.Compile().value(), wave->Compile().value()};
  const int64_t n = stats.n();
  const std::vector<std::pair<int64_t, int64_t>> queries = {
      {1, n}, {1, n / 4}, {n / 4, n / 2}, {n / 2, n / 2}, {3, 3}};
  TextTable answers({"query", "exact", "EQUI-DEPTH", "SAP1", "OPT-A",
                     "WAVE-RANGE-OPT"});
  for (const auto& [a, b] : queries) {
    answers.AddRow({StrCat("s[", a, ",", b, "]"),
                    StrCat(stats.Sum(a, b)),
                    FormatG(views[0]->EstimateOne(a, b), 5),
                    FormatG(views[1]->EstimateOne(a, b), 5),
                    FormatG(views[2]->EstimateOne(a, b), 5),
                    FormatG(views[3]->EstimateOne(a, b), 5)});
  }
  answers.Print(std::cout);

  // 4. Overall quality: SSE over all n(n+1)/2 ranges (the paper's metric).
  std::cout << "\nall-ranges SSE (lower is better):\n";
  TextTable sse({"synopsis", "storage(words)", "SSE"});
  for (const std::shared_ptr<const FlatSynopsis>& view : views) {
    auto s = AllRangesSse(data, *view);
    RANGESYN_CHECK_OK(s.status());
    sse.AddRow({view->Name(), StrCat(view->StorageWords()),
                FormatG(s.value())});
  }
  sse.Print(std::cout);

  std::cout << "\nOPT-A DP reports optimal SSE " << FormatG(opta->optimal_sse)
            << " using " << opta->buckets_used << " buckets and "
            << opta->states_explored << " DP states.\n";
  return 0;
}
