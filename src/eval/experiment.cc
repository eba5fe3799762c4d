#include "eval/experiment.h"

#include "core/threadpool.h"
#include "eval/report.h"
#include "obs/obs.h"
#include "qpath/flat_file.h"
#include "qpath/flat_synopsis.h"

namespace rangesyn {
namespace {

/// Runs one (method, budget) cell of the sweep into `row` (method and
/// budget already set). A build failure with tolerate_failures marks the
/// row failed and returns OK; every other failure is returned as-is.
Status RunSweepCell(const std::vector<int64_t>& data,
                    const SweepOptions& options, ExperimentRow& row) {
  SynopsisSpec spec;
  spec.method = row.method;
  spec.budget_words = row.budget_words;
  spec.granularity = options.granularity;
  spec.max_states = options.max_states;
  obs::Stopwatch watch;
  Result<std::shared_ptr<const FlatSynopsis>> built = [&] {
    RANGESYN_OBS_SPAN("eval.sweep.build");
    return BuildSynopsis(spec, data);
  }();
  row.build_seconds = watch.Seconds();
  if (!built.ok()) {
    if (!options.tolerate_failures) return built.status();
    row.failed = true;
    row.failure = built.status().ToString();
    return OkStatus();
  }
  const FlatSynopsis& synopsis = *built.value();
  row.actual_words = synopsis.StorageWords();
  watch.Reset();
  {
    RANGESYN_OBS_SPAN("eval.sweep.query");
    RANGESYN_ASSIGN_OR_RETURN(row.all_ranges, AllRangesStats(data, synopsis));
  }
  row.query_seconds = watch.Seconds();
  watch.Reset();
  {
    RANGESYN_OBS_SPAN("eval.sweep.serialize");
    RANGESYN_ASSIGN_OR_RETURN(const std::string bytes,
                              EncodeFlatSynopsis(synopsis));
    row.serialized_bytes = static_cast<int64_t>(bytes.size());
  }
  row.serialize_seconds = watch.Seconds();
  return OkStatus();
}

}  // namespace

Result<std::vector<ExperimentRow>> RunStorageSweep(
    const std::vector<int64_t>& data, const SweepOptions& options) {
  if (options.methods.empty() || options.budgets_words.empty()) {
    return InvalidArgumentError("RunStorageSweep: empty grid");
  }
  RANGESYN_OBS_SPAN("eval.sweep");
  // Cells are independent, so the (method x budget) grid fans out over the
  // pool, one cell per chunk. Every row slot is pre-addressed by its grid
  // index: output order, and which cell's error wins when several fail, are
  // fixed by the grid alone, never by thread timing.
  const int64_t num_budgets =
      static_cast<int64_t>(options.budgets_words.size());
  const int64_t num_cells =
      static_cast<int64_t>(options.methods.size()) * num_budgets;
  std::vector<ExperimentRow> rows(static_cast<size_t>(num_cells));
  // ParallelForStatus surfaces the first error in grid (chunk) order,
  // matching the serial early return; the grain of 1 makes cell == chunk.
  RANGESYN_RETURN_IF_ERROR(
      ParallelForStatus(0, num_cells, /*grain=*/1, [&](int64_t cell,
                                                       int64_t) -> Status {
        ExperimentRow& row = rows[static_cast<size_t>(cell)];
        row.method =
            options.methods[static_cast<size_t>(cell / num_budgets)];
        row.budget_words =
            options.budgets_words[static_cast<size_t>(cell % num_budgets)];
        return RunSweepCell(data, options, row);
      }));
  return rows;
}

void PrintSweep(const std::vector<ExperimentRow>& rows, std::ostream& os) {
  TextTable table({"method", "budget(w)", "used(w)", "SSE", "RMSE",
                   "max|err|", "build(s)", "query(s)", "ser(s)"});
  for (const ExperimentRow& row : rows) {
    if (row.failed) {
      table.AddRow({row.method, FormatG(static_cast<double>(row.budget_words)),
                    "-", "FAILED", "-", "-", FormatG(row.build_seconds, 3),
                    "-", "-"});
      continue;
    }
    table.AddRow({row.method,
                  FormatG(static_cast<double>(row.budget_words)),
                  FormatG(static_cast<double>(row.actual_words)),
                  FormatG(row.all_ranges.sse),
                  FormatG(row.all_ranges.rmse, 4),
                  FormatG(row.all_ranges.max_abs, 4),
                  FormatG(row.build_seconds, 3),
                  FormatG(row.query_seconds, 3),
                  FormatG(row.serialize_seconds, 3)});
  }
  table.Print(os);
}

TextTable SweepTable(const std::vector<ExperimentRow>& rows) {
  TextTable table({"method", "budget_words", "used_words", "sse", "rmse",
                   "max_abs", "build_seconds", "query_seconds",
                   "serialize_seconds", "serialized_bytes", "failed"});
  for (const ExperimentRow& row : rows) {
    table.AddRow({row.method, FormatG(static_cast<double>(row.budget_words)),
                  FormatG(static_cast<double>(row.actual_words)),
                  FormatG(row.all_ranges.sse, 12),
                  FormatG(row.all_ranges.rmse, 8),
                  FormatG(row.all_ranges.max_abs, 8),
                  FormatG(row.build_seconds, 6),
                  FormatG(row.query_seconds, 6),
                  FormatG(row.serialize_seconds, 6),
                  FormatG(static_cast<double>(row.serialized_bytes)),
                  row.failed ? "1" : "0"});
  }
  return table;
}

void PrintSweepCsv(const std::vector<ExperimentRow>& rows, std::ostream& os) {
  SweepTable(rows).PrintCsv(os);
}

const ExperimentRow* FindRow(const std::vector<ExperimentRow>& rows,
                             const std::string& method, int64_t budget) {
  for (const ExperimentRow& row : rows) {
    if (row.method == method && row.budget_words == budget && !row.failed) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace rangesyn
