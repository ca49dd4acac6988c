// Metric records, summary statistics and process measurements shared by
// the workloads, plus the two output lines of a benchmark run.

#ifndef CREW_PERFBENCH_SRC_REPORT_H_
#define CREW_PERFBENCH_SRC_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "span_trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;     ///< "lower" or "higher"
  std::int64_t samples = 0;  ///< samples behind a median/percentile; 0 = n/a
};

/// What one workload run produced: its metrics, the work it attempted and
/// the failures among it (failed explanations and failed correctness
/// checks count alike).
struct Outcome {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  /// Traced runs: the per-layer `_ms` metrics that, with unattributed_ms,
  /// partition trace.wall_ms.
  std::vector<std::string> layers;

  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& better, std::int64_t samples = 0);
  /// Counts one correctness check; records `what` when it fails.
  void Check(bool ok, const std::string& what);
  /// Counts `n` attempted operations of which `failed` failed.
  void Attempt(std::int64_t n, std::int64_t failed, const std::string& what);
};

double Median(std::vector<double> values);
/// Linear-interpolation quantile (q in [0, 1]).
double Quantile(std::vector<double> values, double q);

/// Process user + system CPU seconds (all threads).
double ProcessCpuSeconds();
/// Peak resident set size of the process, in MiB.
double PeakRssMb();
double NowSeconds();

/// Completes a traced run's outcome: adds every span's self time grouped
/// into its layer metric, the layer work counts, unattributed_ms and
/// trace.wall_ms; reports 0 for every per-layer metric of the fixed list
/// the run did not produce (so every workload reports the same names); and
/// writes the spans to `spans_path`. Call after the workload's own
/// per-layer metrics. Span names without a layer metric fail the outcome.
void FinishTracedRun(const SpanRecorder& recorder, double traced_wall_ms,
                     const std::string& spans_path, Outcome* outcome);

struct RunInfo {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = 0;
  bool tiny = false;
  int threads = 0;
  std::string git_sha;
};

/// Prints the full record (every metric with unit, direction and sample
/// count, plus provenance) as one JSON line, then the result line
/// ({"correct", "attempted", "failed", "metrics"}) as the last line.
void PrintOutcome(const RunInfo& info, const Outcome& outcome);

}  // namespace perfbench

#endif  // CREW_PERFBENCH_SRC_REPORT_H_
