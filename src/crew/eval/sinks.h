#ifndef CREW_EVAL_SINKS_H_
#define CREW_EVAL_SINKS_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "crew/eval/runner.h"
#include "crew/eval/streaming.h"
#include "crew/eval/table.h"

namespace crew {

/// One table column: a header plus a formatter over a cell.
struct TableColumn {
  std::string header;
  std::function<std::string(const ExperimentCell&)> format;
};

/// Column reading a numeric ExplainerAggregate field.
TableColumn AggColumn(std::string header, double ExplainerAggregate::*field,
                      int precision = 3);

/// Column reading a named value from ExperimentCell::metrics.
TableColumn MetricColumn(std::string header, std::string key,
                         int precision = 3);

/// Column reading a named value from ExperimentCell::notes.
TableColumn NoteColumn(std::string header, std::string key);

/// Column reading a metric's count from ExperimentCell::registry.
TableColumn RegistryCountColumn(std::string header, std::string metric);

/// Column reading a duration metric's total milliseconds from
/// ExperimentCell::registry.
TableColumn RegistryMsColumn(std::string header, std::string metric,
                             int precision = 1);

/// Renders a metrics snapshot (or delta) as a name/count/ms table —
/// the table PrintMetricsBlock prints under --metrics.
Table MetricsSnapshotTable(const MetricsSnapshot& snapshot);

/// Builds the aligned table for `cells` with a leading dataset and/or
/// variant column.
Table MakeCellTable(const std::vector<ExperimentCell>& cells,
                    const std::vector<TableColumn>& columns,
                    bool dataset_column = true, bool variant_column = true);

/// Prints `result`'s cells as an aligned table on `out`, followed by its
/// --metrics block (PrintMetricsBlock).
void PrintResultTable(const ExperimentResult& result,
                      const std::vector<TableColumn>& columns,
                      bool dataset_column = true, bool variant_column = true,
                      std::FILE* out = stdout);

/// The --metrics block: when result.include_metrics, every cell's registry
/// delta summed into one "-- metrics (summed over cells) --" table;
/// otherwise nothing. The sum merges by sorted key, so the block is the
/// same whatever order the cells arrived in (canonical, shuffled, or a
/// resumed run's restored-then-fresh order).
void PrintMetricsBlock(const ExperimentResult& result,
                       std::FILE* out = stdout);

/// Live partial-table mode for interactive (TTY) runs: after every cell it
/// re-renders the table of everything seen so far, prefixed with a
/// "-- partial: done/total --" marker, so a long grid shows its rows as
/// they land instead of going silent until the end. Pass no columns to get
/// a compact default (instances / aopc / wall ms).
class PartialTableSink : public StreamingSink {
 public:
  explicit PartialTableSink(std::vector<TableColumn> columns =
                                std::vector<TableColumn>(),
                            std::FILE* out = stderr);

  Status OnBegin(const ExperimentResult& header) override;
  Status OnCell(const ExperimentCell& cell, bool restored) override;

 private:
  std::vector<TableColumn> columns_;
  std::FILE* out_;
  int expected_cells_ = 0;
  std::vector<ExperimentCell> cells_;
};

}  // namespace crew

#endif  // CREW_EVAL_SINKS_H_
