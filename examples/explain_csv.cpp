// Practical CLI: explain predictions over YOUR data.
//
// Reads a DeepMatcher-style CSV (header: label,left_<a>...,right_<a>...),
// trains a matcher on a split, and prints a CREW cluster explanation for
// the requested test pair. With --export, writes JSON to stdout instead.
//
//   ./examples/explain_csv --csv pairs.csv [--pair 0] [--matcher mlp]
//                          [--samples 192] [--export] [--seed 7]
//
// Without --csv it demonstrates itself on a generated dataset written to a
// temporary file first (so the example is runnable out of the box).

#include <cstdio>

#include "crew/common/flags.h"
#include "crew/core/crew_explainer.h"
#include "crew/data/benchmark_suite.h"
#include "crew/data/csv.h"
#include "crew/explain/serialize.h"
#include "crew/model/trainer.h"

int main(int argc, char** argv) {
  std::string csv_path;
  int pair_index = 0;
  std::string matcher_name = "mlp";
  int samples = 192;
  bool export_json = false;
  uint64_t seed = 7;
  crew::FlagParser flags;
  flags.Add("csv", &csv_path, "DeepMatcher-style pairs CSV; empty = demo");
  flags.Add("pair", &pair_index, "test-split pair to explain");
  flags.Add("matcher", &matcher_name,
            "logistic, mlp, embedding_bag, random_forest or rule");
  flags.Add("samples", &samples, "perturbation samples for CREW");
  flags.Add("export", &export_json, "print the explanation as JSON");
  flags.Add("seed", &seed, "base seed of data, training and explanation");
  flags.ParseOrExit(argc, argv);

  if (csv_path.empty()) {
    // Self-demo: materialize a benchmark dataset as a CSV file.
    auto generated = crew::GenerateByName("restaurants-structured", seed);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    csv_path = "/tmp/crew_demo_pairs.csv";
    if (auto s = crew::SaveDatasetCsvFile(generated.value(), csv_path);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("(no --csv given; wrote demo dataset to %s)\n\n",
                csv_path.c_str());
  }

  auto dataset = crew::LoadDatasetCsvFile(csv_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  auto kind = crew::MatcherKindFromName(matcher_name);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }
  auto pipeline = crew::TrainPipeline(dataset.value(), *kind, 0.7, seed);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  const auto& p = pipeline.value();

  if (pair_index < 0 || pair_index >= p.test.size()) {
    std::fprintf(stderr, "--pair out of range (test split has %d pairs)\n",
                 p.test.size());
    return 1;
  }
  const crew::RecordPair& pair = p.test.pair(pair_index);

  crew::CrewConfig config;
  config.importance.perturbation.num_samples = samples;
  crew::CrewExplainer explainer(p.embeddings, config);
  auto clusters = explainer.ExplainClusters(*p.matcher, pair, seed);
  if (!clusters.ok()) {
    std::fprintf(stderr, "%s\n", clusters.status().ToString().c_str());
    return 1;
  }

  if (export_json) {
    std::printf("%s\n",
                crew::ClusterExplanationToJson(clusters.value()).c_str());
    return 0;
  }
  std::printf("file: %s | matcher %s | test F1 = %.3f\n", csv_path.c_str(),
              p.matcher->Name().c_str(), p.test_metrics.F1());
  std::printf("pair %d of the test split:\n", pair_index);
  std::printf("left : %s\n",
              pair.left.ToDisplayString(p.test.schema()).c_str());
  std::printf("right: %s\n\n",
              pair.right.ToDisplayString(p.test.schema()).c_str());
  std::printf("%s", clusters.value().ToString().c_str());
  return 0;
}
