#ifndef RANGESYN_EVAL_EXPERIMENT_H_
#define RANGESYN_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/result.h"
#include "engine/factory.h"
#include "eval/metrics.h"
#include "eval/report.h"

namespace rangesyn {

/// One (method, budget) measurement of the storage-sweep experiment grid,
/// with a per-phase wall-time breakdown (build / query / serialize).
struct ExperimentRow {
  std::string method;
  int64_t budget_words = 0;   // requested budget
  int64_t actual_words = 0;   // what the built synopsis actually uses
  ErrorStats all_ranges;      // error statistics over all ranges
  double build_seconds = 0.0;
  double query_seconds = 0.0;      // all-ranges evaluation wall time
  double serialize_seconds = 0.0;  // flat compile + RSF1 encode wall time
  int64_t serialized_bytes = 0;    // RSF1 size of the synopsis
  bool failed = false;        // construction failed (row carries no stats)
  std::string failure;        // status message when failed
};

/// Grid definition for a storage sweep (the paper's Figure 1 protocol).
struct SweepOptions {
  std::vector<std::string> methods;
  std::vector<int64_t> budgets_words;
  /// OPT-A family knobs forwarded to the factory.
  int64_t granularity = 2;
  uint64_t max_states = 50'000'000;
  /// Skip (instead of fail) methods whose construction errors out at some
  /// budget (e.g. OPT-A exceeding its state cap).
  bool tolerate_failures = true;
};

/// Runs the grid: builds each method at each budget on `data`, measures
/// all-ranges SSE and construction time.
Result<std::vector<ExperimentRow>> RunStorageSweep(
    const std::vector<int64_t>& data, const SweepOptions& options);

/// Renders sweep rows as an aligned table (one row per measurement).
void PrintSweep(const std::vector<ExperimentRow>& rows, std::ostream& os);

/// Renders sweep rows as CSV.
void PrintSweepCsv(const std::vector<ExperimentRow>& rows, std::ostream& os);

/// Machine-readable sweep table (snake_case columns, full precision) —
/// the CSV rendering and the harnesses' --json reports share this.
TextTable SweepTable(const std::vector<ExperimentRow>& rows);

/// Looks up the row for (method, budget); nullptr if absent or failed.
const ExperimentRow* FindRow(const std::vector<ExperimentRow>& rows,
                             const std::string& method, int64_t budget);

}  // namespace rangesyn

#endif  // RANGESYN_EVAL_EXPERIMENT_H_
