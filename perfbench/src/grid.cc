// paper-grid and grid-resume: the T3 grid through ExperimentRunner::Run
// (untimed observers only), and for traced runs an outside-in replay of the
// runner's call sequence with a span around every call into a module.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/metrics.h"
#include "crew/common/rng.h"
#include "crew/common/thread_pool.h"
#include "crew/data/benchmark_suite.h"
#include "crew/embed/cooccurrence.h"
#include "crew/embed/sgns.h"
#include "crew/eval/comprehensibility.h"
#include "crew/eval/experiment.h"
#include "crew/eval/faithfulness.h"
#include "crew/eval/runner.h"
#include "crew/eval/sinks.h"
#include "crew/eval/streaming.h"
#include "crew/explain/token_view.h"
#include "crew/model/features.h"
#include "crew/model/metrics.h"
#include "crew/model/trainer.h"
#include "crew/text/tokenizer.h"
#include "traced_matcher.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;

crew::Result<crew::TrainedPipeline> TracedTrainPipeline(
    const crew::Dataset& dataset, crew::MatcherKind kind,
    double train_fraction, std::uint64_t seed) {
  crew::TrainedPipeline p;
  {
    ScopedSpan span("data.split");
    crew::Rng rng(seed);
    dataset.Split(train_fraction, rng, &p.train, &p.test);
  }
  crew::Tokenizer tokenizer;
  auto corpus = [&] {
    ScopedSpan span("embed.corpus");
    return crew::BuildCorpus(p.train, tokenizer);
  }();
  crew::SgnsConfig sgns;
  sgns.seed = seed ^ 0x5eedULL;
  auto embeddings = [&] {
    ScopedSpan span("embed.sgns");
    return crew::TrainSgnsEmbeddings(corpus, sgns);
  }();
  if (!embeddings.ok()) return embeddings.status();
  p.embeddings = std::make_shared<const crew::EmbeddingStore>(
      std::move(embeddings.value()));
  auto matcher = [&] {
    ScopedSpan span("model.train");
    return crew::TrainMatcher(kind, p.train, p.embeddings, seed);
  }();
  if (!matcher.ok()) return matcher.status();
  p.matcher = std::move(matcher.value());
  ScopedSpan span("model.matcher_eval");
  p.test_metrics = crew::EvaluateMatcher(*p.matcher, p.test);
  return p;
}

int GridThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(n, 1, 4));
}

namespace {

struct GridShape {
  crew::MatcherKind matcher = crew::MatcherKind::kMlp;
  int instances = 36;
  int samples = 96;
  int matches = 250;
  int nonmatches = 350;
  int datasets = 9;  ///< leading entries of StandardBenchmark
  int threads = 1;
};

GridShape PaperGridShape(bool tiny) {
  GridShape s;
  s.threads = GridThreads();
  if (tiny) {
    s.instances = 2;
    s.samples = 16;
    s.matches = 60;
    s.nonmatches = 90;
    s.datasets = 2;
  }
  return s;
}

GridShape GridResumeShape(bool tiny) {
  GridShape s;
  s.matcher = crew::MatcherKind::kEmbeddingBag;
  s.instances = 12;
  if (tiny) {
    s.instances = 2;
    s.samples = 16;
    s.matches = 60;
    s.nonmatches = 90;
    s.datasets = 3;
  }
  return s;
}

crew::ExperimentSpec MakeSpec(const GridShape& shape, std::uint64_t seed) {
  crew::ExperimentSpec spec;
  spec.name = "t3_faithfulness";
  spec.datasets =
      crew::StandardBenchmark(kCorpusSeed, shape.matches, shape.nonmatches);
  spec.datasets.resize(shape.datasets);
  spec.matcher = shape.matcher;
  spec.instances_per_dataset = shape.instances;
  spec.seed = seed;
  spec.suite = [samples = shape.samples](const crew::TrainedPipeline& p) {
    crew::ExplainerSuiteConfig config;
    config.num_samples = samples;
    return crew::NameSuite(
        crew::BuildExplainerSuite(p.embeddings, p.train, config));
  };
  return spec;
}

/// The result as `--stable-timing --json` prints it: wall-clock fields
/// zeroed. The thread count is a run parameter, not a result, so it is
/// masked too; results are otherwise identical at any thread count.
std::string StableJson(crew::ExperimentResult result) {
  for (crew::ExperimentCell& cell : result.cells) crew::ZeroCellTimings(&cell);
  for (auto& [key, value] : result.params) {
    if (key == "threads") value = "*";
  }
  result.include_metrics = false;
  return crew::ExperimentResultToJson(result);
}

/// Untimed observer: when each cell reached the sinks, the process CPU
/// time then, and whether it was computed or restored.
class ArrivalSink : public crew::StreamingSink {
 public:
  struct Arrival {
    double at_s = 0.0;  ///< since the run started
    double cpu_s = 0.0;
    double wall_ms = 0.0;  ///< the cell's own compute time; 0 if restored
    bool restored = false;
    std::int64_t explanations = 0;
  };

  explicit ArrivalSink(double start_s) : start_s_(start_s) {}

  crew::Status OnCell(const crew::ExperimentCell& cell,
                      bool restored) override {
    arrivals_.push_back({NowSeconds() - start_s_, ProcessCpuSeconds(),
                         restored ? 0.0 : cell.wall_ms, restored,
                         static_cast<std::int64_t>(cell.instances.size())});
    if (restored) {
      restored_.insert(crew::CellKey("", cell.dataset, cell.variant));
    }
    return crew::Status::Ok();
  }

  const std::vector<Arrival>& arrivals() const { return arrivals_; }
  bool WasRestored(const crew::ExperimentCell& cell) const {
    return restored_.count(crew::CellKey("", cell.dataset, cell.variant)) > 0;
  }

 private:
  double start_s_;
  std::vector<Arrival> arrivals_;
  std::set<std::string> restored_;
};

struct GridRep {
  crew::Status status;
  crew::ExperimentResult result;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t fresh_explanations = 0;
  double pool_busy_frac = 0.0;
  /// Per fresh cell (result order): each explanation's runtime_ms as the
  /// explainer records it (for CREW, its word-importance stage).
  std::vector<std::vector<double>> fresh_runtimes_ms;
};

/// One timed ExperimentRunner::Run. With `checkpoint`, the store is loaded
/// inside the timed region (it is part of getting to the first
/// explanation); with `shard`, every cell is streamed there, fsync'd.
GridRep RunUntraced(const crew::ExperimentSpec& spec, int threads,
                    const std::string& checkpoint, const std::string& shard) {
  GridRep rep;
  crew::SetScoringThreads(threads);
  crew::ExperimentRunner runner(spec);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  std::unique_ptr<crew::CheckpointStore> store;
  if (!checkpoint.empty()) {
    store = std::make_unique<crew::CheckpointStore>(checkpoint);
    rep.status = store->Load();
    if (!rep.status.ok()) return rep;
  }
  std::unique_ptr<crew::JsonlStreamSink> shard_sink;
  if (!shard.empty()) {
    shard_sink = std::make_unique<crew::JsonlStreamSink>(shard);
  }
  ArrivalSink arrivals(t0);
  crew::RunHooks hooks;
  if (shard_sink != nullptr) hooks.sinks.push_back(shard_sink.get());
  hooks.sinks.push_back(&arrivals);
  hooks.checkpoint = store.get();
  auto result = runner.Run(hooks);
  rep.wall_s = NowSeconds() - t0;
  rep.cpu_s = ProcessCpuSeconds() - cpu0;
  if (!result.ok()) {
    rep.status = result.status();
    return rep;
  }
  const auto& seen = arrivals.arrivals();
  if (seen.empty()) {
    rep.status = crew::Status::Internal("grid produced no cells");
    return rep;
  }
  rep.setup_s = seen.front().at_s - seen.front().wall_ms / 1e3;
  for (const auto& a : seen) {
    if (!a.restored) rep.fresh_explanations += a.explanations;
  }
  // Grid phase: from the first cell's arrival to the last one's.
  const double grid_wall = seen.back().at_s - seen.front().at_s;
  if (grid_wall > 0.0) {
    rep.pool_busy_frac =
        (seen.back().cpu_s - seen.front().cpu_s) / (threads * grid_wall);
  }
  rep.result = std::move(result.value());
  for (const crew::ExperimentCell& cell : rep.result.cells) {
    if (arrivals.WasRestored(cell)) continue;
    std::vector<double> ms;
    for (const crew::InstanceEvaluation& r : cell.instances) {
      ms.push_back(r.runtime_ms);
    }
    rep.fresh_runtimes_ms.push_back(std::move(ms));
  }
  return rep;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The grid-resume input: the benchmark's own uninterrupted run of the
/// same spec, cut after two thirds of its cells, plus half of the next
/// line as a torn tail (what a crash mid-append leaves).
struct ResumeFixture {
  crew::Status status;
  std::string path;
  std::string full_json;  ///< StableJson of the uninterrupted run
  int cut_cells = 0;
  int total_cells = 0;
};

ResumeFixture BuildResumeFixture(const crew::ExperimentSpec& spec,
                                 const std::string& out_dir) {
  ResumeFixture f;
  const std::string tag = std::to_string(getpid());
  const std::string full_path = out_dir + "/full-" + tag + ".jsonl";
  fs::remove(full_path);
  GridRep full = RunUntraced(spec, 1, full_path, "");
  if (!full.status.ok()) {
    f.status = full.status;
    return f;
  }
  f.full_json = StableJson(full.result);
  f.total_cells = static_cast<int>(full.result.cells.size());
  f.cut_cells = f.total_cells * 2 / 3;
  const std::vector<std::string> lines = ReadLines(full_path);
  fs::remove(full_path);
  if (static_cast<int>(lines.size()) != f.total_cells + 1) {
    f.status = crew::Status::Internal("uninterrupted checkpoint has " +
                                      std::to_string(lines.size()) +
                                      " lines");
    return f;
  }
  f.path = out_dir + "/fixture-" + tag + ".jsonl";
  std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
  for (int i = 0; i <= f.cut_cells; ++i) out << lines[i] << '\n';
  const std::string& torn = lines[f.cut_cells + 1];
  out << torn.substr(0, torn.size() / 2);
  out.close();
  if (!out) f.status = crew::Status::Internal("cannot write " + f.path);
  return f;
}

/// Fresh copies of the fixture for one resumed run (resume appends to
/// the checkpoint, so every run needs its own).
struct ResumeFiles {
  std::string checkpoint;
  std::string shard;
  ResumeFiles(const ResumeFixture& fixture, const std::string& out_dir,
              const std::string& label) {
    const std::string tag = std::to_string(getpid()) + "-" + label;
    checkpoint = out_dir + "/resume-" + tag + ".jsonl";
    shard = out_dir + "/shard-" + tag + ".jsonl";
    fs::copy_file(fixture.path, checkpoint,
                  fs::copy_options::overwrite_existing);
  }
  ~ResumeFiles() {
    std::error_code ec;
    fs::remove(checkpoint, ec);
    fs::remove(shard, ec);
  }
  ResumeFiles(const ResumeFiles&) = delete;
  ResumeFiles& operator=(const ResumeFiles&) = delete;
};

std::int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::int64_t>(n);
}

void CheckResumed(const ResumeFixture& fixture, const ResumeFiles& files,
                  const crew::ExperimentResult& result, const char* run,
                  Outcome* outcome) {
  outcome->Check(StableJson(result) == fixture.full_json,
                 std::string(run) +
                     ": resumed result byte-identical to the uninterrupted "
                     "run");
  outcome->Check(static_cast<int>(ReadLines(files.checkpoint).size()) ==
                     fixture.total_cells + 1,
                 std::string(run) +
                     ": checkpoint holds every cell once after resume");
}

void CheckCrewBeatsBaselines(const crew::ExperimentResult& result,
                             Outcome* outcome) {
  const double crew_aopc = result.ReduceAcross("crew").aopc;
  for (const std::string& variant : result.VariantNames()) {
    if (variant == "crew") continue;
    const double aopc = result.ReduceAcross(variant).aopc;
    outcome->Check(crew_aopc > aopc,
                   "crew mean AOPC " + std::to_string(crew_aopc) +
                       " exceeds " + variant + " " + std::to_string(aopc));
  }
}

// --- Untraced measurement -------------------------------------------------

Outcome MeasureGrid(const Options& options, const GridShape& shape,
                    bool resume) {
  Outcome outcome;
  const crew::ExperimentSpec spec = MakeSpec(shape, options.seed);
  ResumeFixture fixture;
  if (resume) {
    fixture = BuildResumeFixture(spec, options.out_dir);
    outcome.Check(fixture.status.ok(),
                  "resume fixture: " + fixture.status.ToString());
    if (!fixture.status.ok()) return outcome;
  }
  std::vector<double> setup, wall, cpu, rate;
  std::map<std::pair<size_t, size_t>, std::vector<double>> latency;
  std::string first_json;
  double crew_aopc = 0.0;
  const int min_reps = options.tiny ? 1 : 3;
  const double start = NowSeconds();
  for (int rep_index = 0; rep_index < 100; ++rep_index) {
    std::unique_ptr<ResumeFiles> files;
    if (resume) {
      files = std::make_unique<ResumeFiles>(fixture, options.out_dir,
                                            std::to_string(rep_index));
    }
    GridRep rep = RunUntraced(spec, shape.threads,
                              resume ? files->checkpoint : "",
                              resume ? files->shard : "");
    if (!rep.status.ok()) {
      outcome.Check(false, "grid run: " + rep.status.ToString());
      break;
    }
    outcome.Attempt(rep.fresh_explanations, 0, "explanations");
    setup.push_back(rep.setup_s);
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
    rate.push_back(static_cast<double>(rep.fresh_explanations) /
                   (rep.wall_s - rep.setup_s));
    for (size_t c = 0; c < rep.fresh_runtimes_ms.size(); ++c) {
      for (size_t i = 0; i < rep.fresh_runtimes_ms[c].size(); ++i) {
        latency[{c, i}].push_back(rep.fresh_runtimes_ms[c][i]);
      }
    }
    if (resume) {
      CheckResumed(fixture, *files, rep.result, "grid-resume", &outcome);
    }
    if (rep_index == 0) {
      first_json = StableJson(rep.result);
      crew_aopc = rep.result.ReduceAcross("crew").aopc;
      if (!resume) CheckCrewBeatsBaselines(rep.result, &outcome);
    } else {
      outcome.Check(StableJson(rep.result) == first_json,
                    "repeated grid runs give identical results");
    }
    const double elapsed = NowSeconds() - start;
    if (rep_index + 1 >= min_reps && elapsed + rep.wall_s > options.seconds) {
      break;
    }
  }
  if (resume) fs::remove(fixture.path);

  std::vector<double> per_explanation;
  for (const auto& [key, samples] : latency) {
    per_explanation.push_back(Median(samples));
  }
  const auto reps = static_cast<std::int64_t>(wall.size());
  const auto items = static_cast<std::int64_t>(per_explanation.size());
  outcome.Add("setup_s", Median(setup), "s", "lower", reps);
  outcome.Add("wall_s", Median(wall), "s", "lower", reps);
  outcome.Add("cpu_s", Median(cpu), "s", "lower", reps);
  outcome.Add("peak_rss_mb", PeakRssMb(), "MB", "lower");
  outcome.Add("explanations_per_s", Median(rate), "1/s", "higher", reps);
  outcome.Add("explain_ms_p50", Quantile(per_explanation, 0.5), "ms",
              "lower", items);
  outcome.Add("explain_ms_p95", Quantile(per_explanation, 0.95), "ms",
              "lower", items);
  outcome.Add("crew_aopc", crew_aopc, "aopc", "higher");
  return outcome;
}

// --- Traced replay of the runner ------------------------------------------

struct TracedGrid {
  crew::Status status;
  crew::ExperimentResult result;
  double wall_ms = 0.0;
  std::int64_t restored_cells = 0;
  std::int64_t fresh_cells = 0;
  std::vector<crew::PreparedDataset> prepared;
};

std::string ExplainSpanName(const crew::Explainer& explainer) {
  const std::string name = explainer.Name();
  return name == "crew" ? "core.crew" : "explain." + name;
}

/// EvaluateInstance's call sequence, one span per call into a module.
crew::Result<crew::InstanceEvaluation> TracedEvaluateInstance(
    const crew::Explainer& explainer, const crew::Matcher& matcher,
    const crew::Dataset& test, int index,
    const crew::EmbeddingStore* embeddings, std::uint64_t seed,
    const crew::InstanceEvalOptions& options, std::int64_t request) {
  crew::InstanceEvaluation r;
  r.index = index;
  const crew::RecordPair& pair = test.pair(index);
  const std::uint64_t instance_seed =
      seed ^ (static_cast<std::uint64_t>(index) << 20);
  auto explained = [&] {
    ScopedSpan span(ExplainSpanName(explainer), request);
    auto ex = crew::ExplainAsUnitsEx(explainer, matcher, pair, instance_seed);
    if (ex.ok()) span.set_items(static_cast<std::int64_t>(ex->units.size()));
    return ex;
  }();
  if (!explained.ok()) return explained.status();
  const crew::WordExplanation& words = explained->words;
  const std::vector<crew::ExplanationUnit>& units = explained->units;
  if (units.empty()) return r;
  r.evaluated = true;
  {
    crew::ScopedMetricStage stage("eval");
    {
      ScopedSpan span("eval.faithfulness", request);
      crew::Tokenizer tokenizer;
      crew::EvalInstance instance{
          crew::PairTokenView(crew::AnonymousSchema(pair), tokenizer, pair),
          units, words.base_score, matcher.threshold()};
      r.predicted_match = instance.PredictedMatch();
      r.aopc = crew::AopcDeletion(matcher, instance, options.aopc_max_k);
      r.comprehensiveness_at_1 =
          crew::ComprehensivenessAtK(matcher, instance, 1);
      r.comprehensiveness_at_3 =
          crew::ComprehensivenessAtK(matcher, instance, 3);
      r.sufficiency_at_1 = crew::SufficiencyAtK(matcher, instance, 1);
      r.sufficiency_at_3 = crew::SufficiencyAtK(matcher, instance, 3);
      r.comprehensiveness_budget = crew::ComprehensivenessAtTokenBudget(
          matcher, instance, options.token_budget);
      r.decision_flip = crew::DecisionFlipAtTop(matcher, instance);
      r.insertion_aopc =
          crew::AopcInsertion(matcher, instance, options.insertion_max_k);
      r.flip_set = crew::MinimalFlipSet(matcher, instance);
      if (!options.curve_fractions.empty()) {
        r.curve =
            crew::DeletionCurve(matcher, instance, options.curve_fractions);
      }
    }
    ScopedSpan span("eval.comprehensibility", request);
    const crew::ComprehensibilityResult comp =
        crew::EvaluateComprehensibility(words, units, embeddings);
    r.total_units = comp.total_units;
    r.effective_units = comp.effective_units;
    r.words_per_unit = comp.avg_words_per_unit;
    r.semantic_coherence = comp.semantic_coherence;
    r.attribute_purity = comp.attribute_purity;
  }
  r.has_cluster_stats = explained->has_cluster_stats;
  r.cluster_coherence = explained->cluster_coherence;
  r.cluster_silhouette = explained->cluster_silhouette;
  r.chosen_k = explained->chosen_k;
  r.surrogate_r2 = words.surrogate_r2;
  r.runtime_ms = words.runtime_ms;
  return r;
}

/// PrepareDataset with TrainPipeline unrolled into its calls.
crew::Result<crew::PreparedDataset> TracedPrepare(
    const crew::BenchmarkEntry& entry, const crew::ExperimentSpec& spec) {
  crew::PreparedDataset out;
  out.name = entry.name;
  auto dataset = [&] {
    ScopedSpan span("data.generate");
    return crew::GenerateDataset(entry.config);
  }();
  if (!dataset.ok()) return dataset.status();
  auto pipeline = TracedTrainPipeline(dataset.value(), spec.matcher,
                                      spec.train_fraction, spec.seed);
  if (!pipeline.ok()) return pipeline.status();
  out.pipeline = std::move(pipeline.value());
  ScopedSpan span("eval.select");
  crew::Rng rng(spec.seed ^ 0xbeac4ULL);
  out.instances = crew::SelectExplainInstances(
      *out.pipeline.matcher, out.pipeline.test, spec.instances_per_dataset,
      rng);
  return out;
}

/// ExperimentRunner::Run's sequence at one thread: load the checkpoint,
/// prepare every dataset, build the suites, then per cell restore or
/// evaluate + reduce + stream.
crew::Status TracedGridBody(const crew::ExperimentSpec& spec,
                            const std::string& checkpoint,
                            const std::string& shard, PairCapture* capture,
                            TracedGrid* out) {
  std::unique_ptr<crew::CheckpointStore> store;
  if (!checkpoint.empty()) {
    store = std::make_unique<crew::CheckpointStore>(checkpoint);
    ScopedSpan span("eval.checkpoint_load");
    CREW_RETURN_IF_ERROR(store->Load());
  }
  for (const crew::BenchmarkEntry& entry : spec.datasets) {
    auto p = TracedPrepare(entry, spec);
    if (!p.ok()) return p.status();
    out->prepared.push_back(std::move(p.value()));
  }
  std::vector<std::vector<crew::SuiteEntry>> suites;
  std::vector<std::pair<int, int>> tasks;
  {
    ScopedSpan span("explain.suite");
    for (size_t pi = 0; pi < out->prepared.size(); ++pi) {
      suites.push_back(spec.suite(out->prepared[pi].pipeline));
      for (size_t ei = 0; ei < suites.back().size(); ++ei) {
        tasks.emplace_back(static_cast<int>(pi), static_cast<int>(ei));
      }
    }
  }
  crew::ExperimentResult& result = out->result;
  result.name = spec.name;
  result.params = {{"matcher", crew::MatcherKindName(spec.matcher)},
                   {"instances", std::to_string(spec.instances_per_dataset)},
                   {"seed", std::to_string(spec.seed)},
                   {"threads", std::to_string(crew::ScoringThreads())}};
  result.cells.resize(tasks.size());

  std::unique_ptr<crew::JsonlStreamSink> shard_sink;
  if (!shard.empty()) {
    shard_sink = std::make_unique<crew::JsonlStreamSink>(shard);
  }
  crew::RunHooks hooks;
  if (shard_sink != nullptr) hooks.sinks.push_back(shard_sink.get());
  hooks.checkpoint = store.get();
  crew::CellStreamer streamer(hooks);
  {
    ScopedSpan span("eval.stream_append");
    CREW_RETURN_IF_ERROR(
        streamer.Begin(result, static_cast<int>(tasks.size())));
  }
  std::int64_t request = 0;
  for (size_t slot = 0; slot < tasks.size(); ++slot) {
    const crew::PreparedDataset& p = out->prepared[tasks[slot].first];
    const crew::SuiteEntry& entry =
        suites[tasks[slot].first][tasks[slot].second];
    crew::ExperimentCell& cell = result.cells[slot];
    auto restored = [&] {
      ScopedSpan span("eval.restore");
      return streamer.TryRestore(p.name, entry.name, &cell);
    }();
    if (!restored.ok()) return restored.status();
    if (restored.value()) {
      ++out->restored_cells;
      continue;
    }
    CREW_RETURN_IF_ERROR(streamer.BeforeFreshCell());
    if (capture != nullptr) capture->dataset = tasks[slot].first;
    TracedMatcher matcher(*p.pipeline.matcher, capture);
    const crew::MetricsSnapshot before =
        crew::MetricsRegistry::Global().Snapshot();
    const double cell_start = NowSeconds();
    std::vector<crew::InstanceEvaluation> records;
    for (int index : p.instances) {
      auto r = TracedEvaluateInstance(*entry.explainer, matcher,
                                      p.pipeline.test, index,
                                      p.pipeline.embeddings.get(), spec.seed,
                                      spec.eval, request++);
      if (!r.ok()) return r.status();
      records.push_back(std::move(r.value()));
    }
    cell.dataset = p.name;
    cell.variant = entry.name;
    cell.wall_ms = (NowSeconds() - cell_start) * 1e3;
    cell.registry = crew::DropZeroMetrics(crew::MetricsDelta(
        crew::MetricsRegistry::Global().Snapshot(), before));
    cell.scoring = crew::ScoringStatsFromMetrics(cell.registry);
    cell.instances = std::move(records);
    {
      ScopedSpan span("eval.reduce");
      cell.aggregate = crew::ReduceInstances(entry.name, cell.instances);
    }
    ScopedSpan span("eval.stream_append");
    CREW_RETURN_IF_ERROR(streamer.Emit(cell));
    ++out->fresh_cells;
  }
  ScopedSpan span("eval.stream_append");
  return streamer.Finish(result);
}

/// Replays the captured perturbation pairs through the featurizer each
/// dataset's matcher uses; returns the median over 3 passes of the
/// microseconds per pair.
double ReplayFeaturizer(const std::vector<crew::PreparedDataset>& prepared,
                        const PairCapture& capture) {
  if (capture.pairs.empty()) return 0.0;
  std::vector<std::unique_ptr<crew::PairFeaturizer>> featurizers;
  for (const crew::PreparedDataset& p : prepared) {
    featurizers.push_back(std::make_unique<crew::PairFeaturizer>(
        p.pipeline.train.schema(), p.pipeline.embeddings));
  }
  crew::PairFeaturizer::Scratch scratch;
  crew::la::Vec row;
  double checksum = 0.0;
  std::vector<double> us_per_pair;
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = NowSeconds();
    for (const auto& [dataset, pair] : capture.pairs) {
      featurizers[dataset]->ExtractInto(pair, &scratch, &row);
      checksum += row.empty() ? 0.0 : row[0];
    }
    us_per_pair.push_back((NowSeconds() - t0) * 1e6 /
                          static_cast<double>(capture.pairs.size()));
  }
  std::fprintf(stderr,
               "[perfbench] featurizer replay: %zu pairs, checksum %g\n",
               capture.pairs.size(), checksum);
  return Median(us_per_pair);
}

Outcome TraceGrid(const Options& options, const GridShape& shape,
                  bool resume) {
  Outcome outcome;
  const crew::ExperimentSpec spec = MakeSpec(shape, options.seed);
  ResumeFixture fixture;
  if (resume) {
    fixture = BuildResumeFixture(spec, options.out_dir);
    outcome.Check(fixture.status.ok(),
                  "resume fixture: " + fixture.status.ToString());
    if (!fixture.status.ok()) return outcome;
  }

  // The thread pool only shows at the workload's own thread count.
  double pool_busy_frac = 0.0;
  std::string pooled_json;
  if (shape.threads > 1) {
    GridRep pooled = RunUntraced(spec, shape.threads, "", "");
    outcome.Check(pooled.status.ok(),
                  "pooled grid run: " + pooled.status.ToString());
    pool_busy_frac = pooled.pool_busy_frac;
    pooled_json = StableJson(pooled.result);
  }

  // Untraced and traced runs of the same work at one thread.
  std::unique_ptr<ResumeFiles> plain_files;
  if (resume) {
    plain_files =
        std::make_unique<ResumeFiles>(fixture, options.out_dir, "plain");
  }
  GridRep plain = RunUntraced(spec, 1, resume ? plain_files->checkpoint : "",
                              resume ? plain_files->shard : "");
  outcome.Check(plain.status.ok(),
                "untraced grid run: " + plain.status.ToString());
  if (shape.threads <= 1) pool_busy_frac = plain.pool_busy_frac;
  const std::string plain_json = StableJson(plain.result);
  if (!pooled_json.empty()) {
    outcome.Check(pooled_json == plain_json,
                  "results identical at 1 and " +
                      std::to_string(shape.threads) + " threads");
  }
  if (resume) {
    CheckResumed(fixture, *plain_files, plain.result, "untraced", &outcome);
  }

  std::unique_ptr<ResumeFiles> traced_files;
  std::int64_t checkpoint_bytes_before = 0;
  if (resume) {
    traced_files =
        std::make_unique<ResumeFiles>(fixture, options.out_dir, "traced");
    // Load drops the torn tail; count only what the run appends after it.
    checkpoint_bytes_before = FileBytes(fixture.path) -
                              static_cast<std::int64_t>(
                                  ReadLines(fixture.path).back().size());
  }
  PairCapture capture;
  const bool featurizes = shape.matcher != crew::MatcherKind::kEmbeddingBag;
  if (featurizes) {
    capture.stride = options.tiny ? 1 : 16;
    capture.cap = options.tiny ? 2000 : 40000;
  }
  SpanRecorder recorder;
  TracedGrid traced;
  crew::SetScoringThreads(1);
  SetActiveRecorder(&recorder);
  const double t0 = NowSeconds();
  traced.status = TracedGridBody(
      spec, resume ? traced_files->checkpoint : "",
      resume ? traced_files->shard : "", featurizes ? &capture : nullptr,
      &traced);
  traced.wall_ms = (NowSeconds() - t0) * 1e3;
  SetActiveRecorder(nullptr);
  outcome.Check(traced.status.ok(),
                "traced grid run: " + traced.status.ToString());
  outcome.Attempt(traced.fresh_cells * shape.instances, 0, "explanations");
  outcome.Check(StableJson(traced.result) == plain_json,
                "traced and untraced runs give identical results");
  if (resume) {
    CheckResumed(fixture, *traced_files, traced.result, "traced", &outcome);
  }

  outcome.Add("model.featurize_us_per_pair",
              ReplayFeaturizer(traced.prepared, capture), "us", "lower",
              static_cast<std::int64_t>(capture.pairs.size()));
  outcome.Add("model.featurize_pairs",
              static_cast<double>(capture.pairs.size()), "count", "higher");
  outcome.Add("common.pool_busy_frac", pool_busy_frac, "frac", "higher");
  outcome.Add("trace.overhead_frac", traced.wall_ms / 1e3 / plain.wall_s - 1.0,
              "frac", "lower");
  if (resume) {
    outcome.Add("eval.cells_restored",
                static_cast<double>(traced.restored_cells), "count", "higher");
    // Fresh cells go to the checkpoint and the shard; restored ones only to
    // the shard.
    outcome.Add("eval.cells_appended",
                static_cast<double>(2 * traced.fresh_cells +
                                    traced.restored_cells),
                "count", "lower");
    outcome.Add("eval.stream_bytes",
                static_cast<double>(FileBytes(traced_files->checkpoint) -
                                    checkpoint_bytes_before +
                                    FileBytes(traced_files->shard)),
                "bytes", "lower");
    fs::remove(fixture.path);
  }
  FinishTracedRun(recorder, traced.wall_ms, SpansPath(options), &outcome);
  return outcome;
}

}  // namespace

Outcome RunPaperGrid(const Options& options) {
  const GridShape shape = PaperGridShape(options.tiny);
  return options.trace ? TraceGrid(options, shape, false)
                       : MeasureGrid(options, shape, false);
}

Outcome RunGridResume(const Options& options) {
  const GridShape shape = GridResumeShape(options.tiny);
  return options.trace ? TraceGrid(options, shape, true)
                       : MeasureGrid(options, shape, true);
}

}  // namespace perfbench
