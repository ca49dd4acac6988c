// F4 — Runtime scaling: explanation latency vs perturbation budget.
//
// Every perturbation explainer is linear in the sample budget (each sample
// is one matcher call); CERTA is linear in tokens x substitutions. The
// bench sweeps the budget over one prepared pipeline (training once) and
// reports mean milliseconds per explanation, plus the batch scoring
// engine's per-cell counters (predictions issued, batches dispatched, time
// spent materializing vs predicting) that the runner attributes to every
// cell. wall-ms vs cpu-ms contrasts elapsed instance time with the CPU
// time actually burned (cpu >> wall signals parallel speedup; wall >> cpu
// signals oversubscription or blocking).
//
// Extra flags: --sweep=32,64,128 overrides the budget list (CI smoke runs
// use a single small budget); --metrics / --trace / --progress as in every
// bench.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "crew/common/string_util.h"

int main(int argc, char** argv) {
  crew::bench::BenchOptions options;
  options.dataset = "products-structured";  // one dataset suffices here
  std::string sweep_list = "32,64,128,256,512,1024";
  crew::FlagParser flags;
  options.Declare(flags);
  flags.Add("sweep", &sweep_list, "comma-separated perturbation budgets");
  flags.ParseOrExit(argc, argv);
  if (crew::Status valid = options.Validate(); !valid.ok()) {
    flags.ExitWithUsage(valid);
  }
  std::vector<int> sweep;
  for (const std::string& part : crew::Split(sweep_list, ',')) {
    int budget = 0;
    if (!crew::ParseInt(part, &budget) || budget <= 0) {
      flags.ExitWithUsage(crew::Status::InvalidArgument(
          "--sweep entry '" + part + "' is not a positive integer"));
    }
    sweep.push_back(budget);
  }
  options.run.Apply();
  // An explicit empty --dataset selects all nine; f4 times the first.
  auto base_spec = crew::bench::SpecFromOptions("f4_runtime", options);
  std::printf(
      "== F4: explanation runtime vs perturbation samples ==\n"
      "matcher=%s dataset=%s instances=%d threads=%d (0 = hardware: %d)\n\n",
      options.matcher.c_str(), base_spec.datasets[0].name.c_str(),
      options.instances, options.run.threads, crew::HardwareThreads());

  auto prepared = crew::PrepareDataset(base_spec.datasets[0], base_spec);
  crew::bench::DieIfError(prepared.status(), options.run);
  std::vector<crew::PreparedDataset> prepared_all;
  prepared_all.push_back(std::move(prepared.value()));

  // One StreamSetup for the whole sweep: every point appends to the same
  // checkpoint/shard, disambiguated by a per-point "samples=N" scope. The
  // "samples" metric is stamped after the runner returns, so fresh and
  // restored cells take the same path and resumed JSON stays identical.
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  crew::ExperimentResult result;
  result.name = base_spec.name;
  for (int samples : sweep) {
    auto spec = base_spec;
    spec.suite = [samples](const crew::TrainedPipeline& pipeline) {
      crew::ExplainerSuiteConfig config;
      config.num_samples = samples;
      config.include_random = false;
      return crew::NameSuite(crew::BuildExplainerSuite(
          pipeline.embeddings, pipeline.train, config));
    };
    crew::RunHooks hooks = setup.hooks;
    hooks.scope = "samples=";  // += below: GCC 12 -Wrestrict (PR105651)
    hooks.scope += std::to_string(samples);
    if (setup.stream != nullptr) setup.stream->set_scope(hooks.scope);
    crew::ExperimentRunner runner(std::move(spec));
    auto swept = runner.RunPrepared(prepared_all, hooks);
    crew::bench::DieIfError(swept.status(), options.run);
    if (result.params.empty()) result.params = swept->params;
    for (auto& cell : swept->cells) {
      cell.metrics.push_back({"samples", static_cast<double>(samples)});
      result.cells.push_back(std::move(cell));
    }
  }

  crew::bench::EmitExperiment(
      result, options,
      {crew::MetricColumn("samples", "samples", 0),
       crew::AggColumn("ms/explanation",
                       &crew::ExplainerAggregate::runtime_ms, 2),
       {"preds",
        [](const crew::ExperimentCell& cell) {
          return std::to_string(cell.scoring.predictions);
        }},
       {"batches",
        [](const crew::ExperimentCell& cell) {
          return std::to_string(cell.scoring.batches);
        }},
       {"mat-ms",
        [](const crew::ExperimentCell& cell) {
          return crew::Table::Num(cell.scoring.materialize_ms, 1);
        }},
       {"pred-ms",
        [](const crew::ExperimentCell& cell) {
          return crew::Table::Num(cell.scoring.predict_ms, 1);
        }},
       crew::RegistryMsColumn("wall-ms", "crew/runner/instance", 1),
       crew::RegistryMsColumn("cpu-ms", "crew/runner/instance_cpu", 1)},
      /*dataset_column=*/false, /*variant_column=*/true);
  std::printf(
      "(ms/explanation is the explainer's self-reported runtime; scoring "
      "columns include the evaluation metrics' matcher calls; wall-ms/cpu-ms "
      "sum per-instance elapsed vs thread-CPU time)\n");
  return 0;
}
