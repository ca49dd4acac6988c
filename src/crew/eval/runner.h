#ifndef CREW_EVAL_RUNNER_H_
#define CREW_EVAL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/metrics.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/experiment.h"
#include "crew/eval/faithfulness.h"
#include "crew/explain/batch_scorer.h"
#include "crew/model/trainer.h"

namespace crew {

class StreamingSink;
class CheckpointStore;
class FaultInjector;

/// Stable-timing mode: when enabled, every wall-clock-derived field the
/// runner records (InstanceEvaluation::runtime_ms, ExperimentCell::wall_ms,
/// registry duration totals and the ScoringStats ms view) is forced to
/// zero. Counts, metric values, and everything seeded stay untouched. This
/// is what makes "resumed run == uninterrupted run" checkable *byte for
/// byte*: timing is the only legitimately nondeterministic output, so the
/// resume tests and the CI resume-smoke diff run with --stable-timing on
/// both sides. Process-global, default off.
void SetStableTiming(bool stable);
bool StableTiming();

/// Forces every wall-clock-derived field of `cell` to zero (wall_ms,
/// registry duration totals, the ScoringStats ms view, per-instance
/// runtime_ms) — the normalization stable-timing mode applies to fresh and
/// checkpoint-restored cells alike.
struct ExperimentCell;
void ZeroCellTimings(ExperimentCell* cell);

/// Optional streaming/restart plumbing threaded through ExperimentRunner.
/// Default-constructed hooks are inert: no sinks, no checkpoint, no fault
/// injection, canonical schedule — the pre-streaming behavior exactly.
struct RunHooks {
  /// Receive every cell as it completes (completion order, including
  /// checkpoint-restored cells, which arrive with restored=true).
  std::vector<StreamingSink*> sinks;
  /// When set, completed cells are durably appended here and cells already
  /// present are restored instead of recomputed (--resume).
  CheckpointStore* checkpoint = nullptr;
  /// When set, the runner consults it before each fresh cell and "crashes"
  /// deterministically once armed (--fail-after-cells / CREW_FAULT_SEED).
  FaultInjector* fault = nullptr;
  /// Prefix for checkpoint cell keys; disambiguates repeated grids over
  /// the same dataset x variant pairs (e.g. bench_f4's sweep points).
  std::string scope;
  /// Non-zero: execute the grid in an Rng(shuffle_seed)-shuffled order.
  /// Results land in canonical slots regardless — this exists so tests can
  /// prove cell results are independent of completion order.
  uint64_t shuffle_seed = 0;
};

/// Minimum seconds between runner progress heartbeats on stderr
/// ("[progress] dataset/variant done/total (rate/s)"). <= 0 disables them
/// entirely. Heartbeats are throttled and observation-only: they never
/// change what the runner computes. Default: 1 second.
void SetProgressInterval(double seconds);
double ProgressInterval();

/// Label prefixed to progress heartbeats while in scope (the runner sets
/// "dataset/variant" around each cell). Process-global, save/restore.
class ScopedProgressLabel {
 public:
  explicit ScopedProgressLabel(std::string label);
  ~ScopedProgressLabel();
  ScopedProgressLabel(const ScopedProgressLabel&) = delete;
  ScopedProgressLabel& operator=(const ScopedProgressLabel&) = delete;

 private:
  std::string saved_;
};

/// Knobs for the per-instance metric block. Defaults reproduce the
/// historical per-explainer evaluation numbers; the optional extras
/// (deletion curve, seed stability) are only computed when requested so
/// the common path stays cheap.
struct InstanceEvalOptions {
  int aopc_max_k = 5;
  int insertion_max_k = 3;
  int token_budget = 5;
  /// Non-empty: also record the deletion curve at these fractions.
  std::vector<double> curve_fractions;
  /// Non-empty: also re-explain with each seed and record the mean
  /// pairwise top-k Jaccard (ExplainerStability).
  std::vector<uint64_t> stability_seeds;
  int stability_top_k = 10;
};

/// Everything one explained instance contributes to any experiment table —
/// the pure per-instance record the runner shards and reduces.
struct InstanceEvaluation {
  int index = -1;         ///< pair index in the test split
  bool evaluated = false;  ///< false when the explanation had no units
  bool predicted_match = false;
  // Faithfulness.
  double aopc = 0.0;
  double comprehensiveness_at_1 = 0.0;
  double comprehensiveness_at_3 = 0.0;
  double sufficiency_at_1 = 0.0;
  double sufficiency_at_3 = 0.0;
  double comprehensiveness_budget = 0.0;
  bool decision_flip = false;
  double insertion_aopc = 0.0;
  FlipSetResult flip_set;
  /// Aligned with InstanceEvalOptions::curve_fractions; empty if not asked.
  std::vector<double> curve;
  // Comprehensibility.
  double total_units = 0.0;
  double effective_units = 0.0;
  double words_per_unit = 0.0;
  double semantic_coherence = 0.0;
  double attribute_purity = 0.0;
  // Cluster diagnostics (CREW only).
  bool has_cluster_stats = false;
  double cluster_coherence = 0.0;
  double cluster_silhouette = 0.0;
  int chosen_k = 0;
  /// Mean pairwise Jaccard across stability_seeds; 0 when not measured.
  double stability = 0.0;
  // Bookkeeping.
  double surrogate_r2 = 0.0;
  double runtime_ms = 0.0;
};

/// Explains `test.pair(index)` and computes the full per-instance metric
/// block. Pure given its inputs: the instance seed derives as
/// `seed ^ (index << 20)`, so the result is independent of which thread or
/// in which order instances run.
Result<InstanceEvaluation> EvaluateInstance(
    const Explainer& explainer, const Matcher& matcher, const Dataset& test,
    int index, const EmbeddingStore* embeddings, uint64_t seed,
    const InstanceEvalOptions& options = InstanceEvalOptions());

/// EvaluateInstance over `indices` on the shared scoring pool
/// (SetScoringThreads): one lane per worker, each claiming the next
/// instance until none is left. Results are written by index and errors
/// are reported in index order, so output is bit-identical for any thread
/// count. Perturbation scoring nested inside a lane runs inline (see
/// ParallelFor's nesting rule) — the two parallelism levels compose
/// without oversubscribing the pool.
Result<std::vector<InstanceEvaluation>> EvaluateInstances(
    const Explainer& explainer, const Matcher& matcher, const Dataset& test,
    const std::vector<int>& indices, const EmbeddingStore* embeddings,
    uint64_t seed, const InstanceEvalOptions& options = InstanceEvalOptions());

/// Deterministic reduction of per-instance records (in vector order) to
/// the per-explainer aggregate. Unevaluated records are skipped, matching
/// the historical serial loop bit-for-bit.
ExplainerAggregate ReduceInstances(
    const std::string& name, const std::vector<InstanceEvaluation>& records);

/// ReduceInstances over the subset where `filter` holds (e.g. predicted
/// matches only, for the match/non-match split tables).
ExplainerAggregate ReduceInstancesIf(
    const std::string& name, const std::vector<InstanceEvaluation>& records,
    const std::function<bool(const InstanceEvaluation&)>& filter);

/// One dataset's trained pipeline + selected explanation instances — the
/// prepare stage shared by every experiment.
struct PreparedDataset {
  std::string name;
  TrainedPipeline pipeline;
  std::vector<int> instances;
};

/// One cell of the experiment grid: (dataset, variant) with its aggregate,
/// the per-instance records behind it, and the scoring-engine counters
/// attributed to computing it. `variant` is usually an explainer name but
/// ablation experiments use design-case labels ("sem+attr", "k=4", ...).
struct ExperimentCell {
  std::string dataset;
  std::string variant;
  ExplainerAggregate aggregate;
  std::vector<InstanceEvaluation> instances;
  ScoringStats scoring;  ///< engine counter delta while this cell ran
  /// Full metrics-registry delta while this cell ran (per-stage counters,
  /// stage durations, batch-size histogram buckets). `scoring` above is the
  /// legacy view derived from the same delta, so the two always agree.
  MetricsSnapshot registry;
  double wall_ms = 0.0;
  /// Extra named values for cells that don't come from the standard
  /// per-instance engine (dataset stats, matcher P/R/F1, sweeps).
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Full structured result of one experiment: the grid plus the parameters
/// that produced it. PrintResultTable (crew/eval/sinks.h) and
/// WriteExperimentJson (crew/eval/streaming.h) turn it into aligned tables
/// and JSON.
struct ExperimentResult {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<ExperimentCell> cells;
  /// When true, the table and JSON also carry each cell's registry delta
  /// (--metrics).
  bool include_metrics = false;

  /// Variant names in first-appearance order.
  std::vector<std::string> VariantNames() const;

  /// Per-instance AOPC samples of `variant`, concatenated across datasets
  /// in cell order (only evaluated instances) — the paired vectors the
  /// significance tests consume.
  std::vector<double> PerInstanceAopc(const std::string& variant) const;

  /// Aggregate of `variant` over all its cells' instances (cross-dataset
  /// mean, weighted by instance like the historical accumulation loops).
  ExplainerAggregate ReduceAcross(const std::string& variant) const;

  /// Mean deletion curve of `variant` across all evaluated instances of
  /// all datasets; empty when no curve was recorded.
  std::vector<double> MeanCurve(const std::string& variant) const;
};

/// Named explainer line-up entry. The name is the grid's variant label —
/// ablations reuse one explainer class under several configurations, so it
/// can differ from Explainer::Name().
struct SuiteEntry {
  std::string name;
  std::unique_ptr<Explainer> explainer;
};

/// Labels a BuildExplainerSuite-style line-up with each explainer's own
/// Name().
std::vector<SuiteEntry> NameSuite(
    std::vector<std::unique_ptr<Explainer>> suite);

/// Declarative description of one experiment: the dataset x matcher x
/// explainer grid plus the evaluation knobs.
struct ExperimentSpec {
  std::string name;
  std::vector<BenchmarkEntry> datasets;
  MatcherKind matcher = MatcherKind::kMlp;
  double train_fraction = 0.7;
  int instances_per_dataset = 12;
  uint64_t seed = 7;
  InstanceEvalOptions eval;
  /// Builds the explainer line-up for one prepared pipeline. Required by
  /// Run(); experiments with custom cells (RunGrid) may leave it empty.
  /// Its variant names must not depend on the pipeline: Run() learns them
  /// from a suite built on an empty TrainedPipeline and refuses a trained
  /// suite that names others.
  std::function<std::vector<SuiteEntry>(const TrainedPipeline&)> suite;
};

/// Generates + trains one dataset of the spec and selects its explanation
/// instances (seeded exactly like the historical bench prepare step).
Result<PreparedDataset> PrepareDataset(const BenchmarkEntry& entry,
                                       const ExperimentSpec& spec);

/// One cell of a grid for RunGrid: its key and how to compute it.
struct GridTask {
  std::string dataset;
  std::string variant;
  /// Computes the fresh cell; RunGrid stamps dataset/variant on it. Never
  /// called for a cell the checkpoint already holds, so all of a cell's
  /// work (preparing its dataset included) belongs in here.
  std::function<Result<ExperimentCell>()> compute;
};

/// The one grid executor. Sizes `header.cells` to one slot per task, then
/// visits the tasks (in an Rng(hooks.shuffle_seed)-shuffled order when
/// that is non-zero): a cell the checkpoint holds is restored without
/// calling compute; any other passes the fault window, is computed, has its
/// timings zeroed under stable timing, and is emitted (checkpoint append,
/// then every sink). Slots are filled in task order whatever the visiting
/// order, so the result depends on the tasks alone.
Result<ExperimentResult> RunGrid(ExperimentResult header,
                                 const std::vector<GridTask>& tasks,
                                 const RunHooks& hooks = RunHooks());

/// The result header every ExperimentSpec grid carries: the spec's name
/// and its matcher / instances / seed / threads params.
ExperimentResult ExperimentHeader(const ExperimentSpec& spec);

/// Executes an ExperimentSpec: prepare each dataset that still has a cell
/// to compute, evaluate every suite variant on its selected instances
/// (instances sharded across the scoring pool), reduce deterministically,
/// and return the structured grid.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentSpec spec) : spec_(std::move(spec)) {}

  const ExperimentSpec& spec() const { return spec_; }

  /// The standard grid: spec.suite x spec.datasets. `hooks` (optional)
  /// adds streaming sinks, checkpoint restore/append, fault injection, and
  /// schedule shuffling; default hooks reproduce the plain batch run.
  /// Datasets are prepared serially, before the first cell, and only when
  /// the checkpoint lacks at least one of their cells. A checkpoint that
  /// CheckpointStore::CheckHeader refuses fails before any prepare.
  Result<ExperimentResult> Run(const RunHooks& hooks = RunHooks()) const;

  /// Run() over externally prepared datasets — lets budget sweeps reuse
  /// one trained pipeline across several runner invocations. An entry
  /// without a matcher (left unprepared) must have every cell in
  /// hooks.checkpoint.
  Result<ExperimentResult> RunPrepared(
      const std::vector<PreparedDataset>& prepared,
      const RunHooks& hooks = RunHooks()) const;

 private:
  ExperimentSpec spec_;
};

}  // namespace crew

#endif  // CREW_EVAL_RUNNER_H_
