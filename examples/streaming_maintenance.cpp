// Streaming maintenance demo: keep range-optimal wavelet statistics fresh
// under a stream of inserts/deletes (O(log n) per update), and adapt a
// SAP0 histogram to an observed query workload. Together these show the
// two "keep the synopsis alive in production" extensions of the library.
//
//   ./build/examples/streaming_maintenance [--updates=5000]

#include <iostream>

#include "core/flags.h"
#include "core/logging.h"
#include "core/random.h"
#include "core/strings.h"
#include "data/rounding.h"
#include "data/workload.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "histogram/builders.h"
#include "histogram/weighted_sap0.h"
#include "wavelet/dynamic.h"
#include "wavelet/selection.h"

int main(int argc, char** argv) {
  using namespace rangesyn;

  FlagSet flags("streaming_maintenance",
                "dynamic wavelet upkeep + workload-adaptive histograms");
  flags.DefineInt64("n", 255, "domain size (n+1 a power of two)");
  flags.DefineInt64("updates", 5000, "stream length");
  flags.DefineInt64("budget", 16, "synopsis coefficients / buckets");
  flags.DefineInt64("seed", 11, "rng seed");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    if (s.code() == StatusCode::kFailedPrecondition) return 0;
    std::cerr << s << "\n";
    return 1;
  }

  const int64_t n = flags.GetInt64("n");
  const int64_t budget = flags.GetInt64("budget");
  Rng rng(static_cast<uint64_t>(flags.GetInt64("seed")));

  // ---- Part 1: dynamic wavelet maintenance under a stream.
  PaperDatasetOptions dataset_options;
  dataset_options.n = n;
  dataset_options.seed = rng.NextUint64();
  dataset_options.total_volume = 5000.0;
  auto initial = MakePaperDataset(dataset_options);
  RANGESYN_CHECK_OK(initial.status());
  std::vector<int64_t> data = initial.value();

  auto maintainer = DynamicRangeSynopsisMaintainer::Create(data);
  RANGESYN_CHECK_OK(maintainer.status());

  const int64_t updates = flags.GetInt64("updates");
  int64_t applied = 0;
  for (int64_t u = 0; u < updates; ++u) {
    const int64_t i = rng.NextInt(1, n);
    int64_t delta = rng.NextBool(0.6) ? rng.NextInt(1, 3)
                                      : -rng.NextInt(1, 3);
    if (data[static_cast<size_t>(i - 1)] + delta < 0) delta = 1;
    RANGESYN_CHECK_OK(maintainer->ApplyUpdate(i, delta));
    data[static_cast<size_t>(i - 1)] += delta;
    ++applied;
  }
  std::cout << "applied " << applied
            << " stream updates (O(log n) each)\n";

  auto snapshot = maintainer->Snapshot(budget);
  auto rebuilt = BuildWaveRangeOpt(data, budget);
  RANGESYN_CHECK_OK(snapshot.status());
  RANGESYN_CHECK_OK(rebuilt.status());
  const double sse_snapshot =
      AllRangesSse(data, *snapshot->Compile().value()).value();
  const double sse_rebuilt =
      AllRangesSse(data, *rebuilt->Compile().value()).value();
  std::cout << "maintained synopsis SSE:    " << FormatG(sse_snapshot)
            << "\nfrom-scratch rebuild SSE:   " << FormatG(sse_rebuilt)
            << "\n(identical by construction — the maintainer is exact)\n\n";

  // ---- Part 2: adapt a histogram to an observed query log.
  auto log = HotSpotRanges(n, 2000, 0.8, 0.05, &rng);
  RANGESYN_CHECK_OK(log.status());
  auto weights = RangeWorkloadWeights::FromQueries(n, log.value());
  RANGESYN_CHECK_OK(weights.status());

  auto adapted = BuildWeightedSap0(data, budget / 2, weights.value());
  auto generic = BuildSap0(data, budget / 2);
  RANGESYN_CHECK_OK(adapted.status());
  RANGESYN_CHECK_OK(generic.status());

  auto err_adapted =
      EvaluateOnWorkload(data, *adapted->Compile().value(), log.value());
  auto err_generic =
      EvaluateOnWorkload(data, *generic->Compile().value(), log.value());
  RANGESYN_CHECK_OK(err_adapted.status());
  RANGESYN_CHECK_OK(err_generic.status());

  std::cout << "workload: 2000 hot-spot ranges around position "
            << (8 * n) / 10 << "\n";
  TextTable table({"histogram", "SSE on observed workload", "RMSE"});
  table.AddRow({"SAP0 (uniform objective)", FormatG(err_generic->sse),
                FormatG(err_generic->rmse, 4)});
  table.AddRow({"W-SAP0 (workload-adapted)", FormatG(err_adapted->sse),
                FormatG(err_adapted->rmse, 4)});
  table.Print(std::cout);
  return 0;
}
