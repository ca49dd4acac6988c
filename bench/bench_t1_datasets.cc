// T1 — Benchmark dataset statistics.
//
// The "Table 1: datasets" every EM paper opens its evaluation with: pair
// counts, match ratio, vocabulary size, record length, and the token
// overlap gap between matches and non-matches (the signal the matchers
// learn and the explainers must surface). No training or explaining
// happens here, so each cell is a custom grid task rather than an
// ExperimentRunner suite cell — but resume and the emit path (table +
// --json) are shared.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(
      argc, argv, crew::bench::BenchKnobs::kDataOnly);
  std::printf("== T1: dataset statistics ==\n\n");

  crew::ExperimentResult header;
  header.name = "t1_datasets";
  header.params.push_back({"seed", std::to_string(options.seed)});
  // A restored cell skips the dataset generation entirely.
  const auto entries = options.Datasets();
  std::vector<crew::GridTask> tasks;
  for (const auto& entry : entries) {
    auto compute = [entry]() -> crew::Result<crew::ExperimentCell> {
      auto dataset = crew::GenerateDataset(entry.config);
      if (!dataset.ok()) return dataset.status();
      crew::Tokenizer tokenizer;
      const auto stats = crew::ComputeStats(dataset.value(), tokenizer);
      crew::ExperimentCell cell;
      cell.metrics = {
          {"pairs", static_cast<double>(stats.pairs)},
          {"match_pct", 100.0 * stats.match_ratio},
          {"vocab", static_cast<double>(stats.vocabulary_size)},
          {"tokens_per_rec", stats.avg_tokens_per_record},
          {"jaccard_match", stats.avg_token_overlap_match},
          {"jaccard_nonmatch", stats.avg_token_overlap_nonmatch},
      };
      return cell;
    };
    tasks.push_back({entry.name, "stats", compute});
  }
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = crew::RunGrid(std::move(header), tasks, setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::MetricColumn("pairs", "pairs", 0),
       crew::MetricColumn("match%", "match_pct", 1),
       crew::MetricColumn("vocab", "vocab", 0),
       crew::MetricColumn("tokens/rec", "tokens_per_rec", 1),
       crew::MetricColumn("jaccard(match)", "jaccard_match"),
       crew::MetricColumn("jaccard(nonmatch)", "jaccard_nonmatch")},
      /*dataset_column=*/true, /*variant_column=*/false);
  return 0;
}
