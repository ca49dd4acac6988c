#include "crew/eval/sinks.h"

#include <cstdio>
#include <utility>

namespace crew {

TableColumn AggColumn(std::string header, double ExplainerAggregate::*field,
                      int precision) {
  return {std::move(header), [field, precision](const ExperimentCell& cell) {
            return Table::Num(cell.aggregate.*field, precision);
          }};
}

TableColumn MetricColumn(std::string header, std::string key, int precision) {
  return {std::move(header),
          [key = std::move(key), precision](const ExperimentCell& cell) {
            for (const auto& [k, v] : cell.metrics) {
              if (k == key) return Table::Num(v, precision);
            }
            return std::string("-");
          }};
}

TableColumn NoteColumn(std::string header, std::string key) {
  return {std::move(header), [key = std::move(key)](const ExperimentCell& cell) {
            for (const auto& [k, v] : cell.notes) {
              if (k == key) return v;
            }
            return std::string("-");
          }};
}

TableColumn RegistryCountColumn(std::string header, std::string metric) {
  return {std::move(header),
          [metric = std::move(metric)](const ExperimentCell& cell) {
            const MetricEntry* entry = FindMetric(cell.registry, metric);
            return entry == nullptr ? std::string("-")
                                    : std::to_string(entry->count);
          }};
}

TableColumn RegistryMsColumn(std::string header, std::string metric,
                             int precision) {
  return {std::move(header),
          [metric = std::move(metric), precision](const ExperimentCell& cell) {
            const MetricEntry* entry = FindMetric(cell.registry, metric);
            return entry == nullptr ? std::string("-")
                                    : Table::Num(entry->total_ms, precision);
          }};
}

Table MetricsSnapshotTable(const MetricsSnapshot& snapshot) {
  Table table({"metric", "count", "ms"});
  for (const MetricEntry& entry : snapshot) {
    std::vector<std::string> row;
    row.push_back(entry.name);
    row.push_back(std::to_string(entry.count));
    row.push_back(entry.kind == MetricKind::kDuration
                      ? Table::Num(entry.total_ms, 1)
                      : "-");
    table.AddRow(std::move(row));
  }
  return table;
}

Table MakeCellTable(const std::vector<ExperimentCell>& cells,
                    const std::vector<TableColumn>& columns,
                    bool dataset_column, bool variant_column) {
  std::vector<std::string> headers;
  if (dataset_column) headers.push_back("dataset");
  if (variant_column) headers.push_back("variant");
  for (const TableColumn& c : columns) headers.push_back(c.header);
  Table table(std::move(headers));
  for (const ExperimentCell& cell : cells) {
    std::vector<std::string> row;
    if (dataset_column) row.push_back(cell.dataset);
    if (variant_column) row.push_back(cell.variant);
    for (const TableColumn& c : columns) row.push_back(c.format(cell));
    table.AddRow(std::move(row));
  }
  return table;
}

void PrintResultTable(const ExperimentResult& result,
                      const std::vector<TableColumn>& columns,
                      bool dataset_column, bool variant_column,
                      std::FILE* out) {
  const Table table =
      MakeCellTable(result.cells, columns, dataset_column, variant_column);
  // crew-lint: allow(raw-stdio): the experiment's *product* (aligned
  // tables) goes to the caller-supplied stream; this is serialized output,
  // not diagnostics.
  std::fprintf(out, "%s\n", table.ToAligned().c_str());
  PrintMetricsBlock(result, out);
}

void PrintMetricsBlock(const ExperimentResult& result, std::FILE* out) {
  if (!result.include_metrics) return;
  std::vector<MetricsSnapshot> deltas;
  deltas.reserve(result.cells.size());
  for (const ExperimentCell& cell : result.cells) {
    deltas.push_back(cell.registry);
  }
  const MetricsSnapshot total = MetricsSum(deltas);
  if (total.empty()) return;
  // crew-lint: allow(raw-stdio): same caller-supplied product stream as
  // the table.
  std::fprintf(out, "-- metrics (summed over cells) --\n%s\n",
               MetricsSnapshotTable(total).ToAligned().c_str());
}

PartialTableSink::PartialTableSink(std::vector<TableColumn> columns,
                                   std::FILE* out)
    : columns_(std::move(columns)), out_(out) {
  if (columns_.empty()) {
    columns_.push_back({"inst", [](const ExperimentCell& cell) {
                          return std::to_string(cell.aggregate.instances);
                        }});
    columns_.push_back(AggColumn("aopc", &ExplainerAggregate::aopc));
    columns_.push_back({"wall_ms", [](const ExperimentCell& cell) {
                          return Table::Num(cell.wall_ms, 1);
                        }});
  }
}

Status PartialTableSink::OnBegin(const ExperimentResult& header) {
  expected_cells_ = static_cast<int>(header.cells.size());
  cells_.clear();
  return Status::Ok();
}

Status PartialTableSink::OnCell(const ExperimentCell& cell, bool restored) {
  (void)restored;
  cells_.push_back(cell);
  const Table table = MakeCellTable(cells_, columns_);
  // crew-lint: allow(raw-stdio): live progress table on the
  // caller-supplied stream (stderr by default), deliberately outside the
  // severity-tagged logging channel like the runner heartbeats.
  std::fprintf(out_, "-- partial: %d/%d cell(s) --\n%s\n",
               static_cast<int>(cells_.size()),
               expected_cells_ > 0 ? expected_cells_
                                   : static_cast<int>(cells_.size()),
               table.ToAligned().c_str());
  return Status::Ok();
}

}  // namespace crew
