// Crash/resume contract of the streaming execution layer: a grid killed by
// the deterministic fault injector after k cells and then resumed from its
// checkpoint must produce a byte-identical JSON document to the same grid
// run uninterrupted — for any thread count and any kill point. This holds
// because per-cell and per-instance seeds derive from the grid key and the
// pair index, never from execution order, and because stable-timing mode
// zeroes the wall-clock fields that legitimately differ between runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "crew/common/thread_pool.h"
#include "crew/data/generator.h"
#include "crew/eval/runner.h"
#include "crew/eval/sinks.h"
#include "crew/eval/streaming.h"
#include "crew/explain/lime.h"
#include "crew/explain/random_explainer.h"
#include "crew/model/trainer.h"

namespace crew {
namespace {

class ScopedScoringThreads {
 public:
  explicit ScopedScoringThreads(int n) { SetScoringThreads(n); }
  ~ScopedScoringThreads() { SetScoringThreads(0); }
};

// Every run in this file compares serialized results byte for byte, so
// wall-clock fields are zeroed exactly like the bench --stable-timing flag
// does.
class ScopedStableTiming {
 public:
  ScopedStableTiming() { SetStableTiming(true); }
  ~ScopedStableTiming() { SetStableTiming(false); }
};

BenchmarkEntry TinyEntry(const std::string& name, uint64_t seed) {
  BenchmarkEntry entry;
  entry.name = name;
  entry.config.num_matches = 30;
  entry.config.num_nonmatches = 30;
  entry.config.seed = seed;
  return entry;
}

// 2 datasets x 2 variants = a 4-cell grid, small enough to rerun many
// times but wide enough that kill points 1..3 leave a genuinely partial
// checkpoint. `trained_suites`, when set, counts the suites built for a
// trained pipeline, i.e. the datasets the run prepared.
ExperimentRunner MakeRunner(MatcherKind matcher = MatcherKind::kLogistic,
                            int* trained_suites = nullptr) {
  ExperimentSpec spec;
  spec.name = "resume_grid";
  spec.datasets = {TinyEntry("tiny-a", 3), TinyEntry("tiny-b", 4)};
  spec.matcher = matcher;
  spec.instances_per_dataset = 2;
  spec.seed = 7;
  spec.suite = [trained_suites](const TrainedPipeline& pipeline) {
    if (trained_suites != nullptr && pipeline.matcher != nullptr) {
      ++*trained_suites;
    }
    std::vector<SuiteEntry> suite;
    LimeConfig lime;
    lime.perturbation.num_samples = 16;
    suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
    suite.push_back({"random", std::make_unique<RandomExplainer>()});
    return suite;
  };
  return ExperimentRunner(std::move(spec));
}

std::string CheckpointPath(const std::string& tag) {
  return ::testing::TempDir() + "/resume_" + tag + ".jsonl";
}

TEST(ResumeTest, KilledThenResumedGridIsByteIdentical) {
  ScopedStableTiming stable;
  constexpr int kGridCells = 4;
  for (int threads : {1, 2, 4}) {
    ScopedScoringThreads scoped(threads);
    auto clean = MakeRunner().Run();
    ASSERT_TRUE(clean.ok()) << "threads=" << threads;
    const std::string clean_json = ExperimentResultToJson(*clean);

    for (int kill_after : {0, 1, 2, kGridCells - 1}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " kill_after=" + std::to_string(kill_after));
      const std::string path = CheckpointPath(
          std::to_string(threads) + "_" + std::to_string(kill_after));
      std::remove(path.c_str());

      // Phase 1: run with the fault armed; the run must fail, leaving
      // exactly `kill_after` durable cells behind.
      {
        CheckpointStore checkpoint(path);
        ASSERT_TRUE(checkpoint.Load().ok());
        FaultInjector fault;
        fault.ArmAfterCells(kill_after);
        RunHooks hooks;
        hooks.checkpoint = &checkpoint;
        hooks.fault = &fault;
        auto crashed = MakeRunner().Run(hooks);
        ASSERT_FALSE(crashed.ok());
        EXPECT_NE(crashed.status().ToString().find("fault injected"),
                  std::string::npos);
        EXPECT_EQ(checkpoint.done_cells(), kill_after);
      }

      // Phase 2: resume from the checkpoint; restored cells must slot in
      // bit-identically next to the freshly computed remainder.
      CheckpointStore checkpoint(path);
      ASSERT_TRUE(checkpoint.Load().ok());
      EXPECT_EQ(checkpoint.done_cells(), kill_after);
      RunHooks hooks;
      hooks.checkpoint = &checkpoint;
      auto resumed = MakeRunner().Run(hooks);
      ASSERT_TRUE(resumed.ok());
      EXPECT_EQ(checkpoint.done_cells(), kGridCells);
      EXPECT_EQ(ExperimentResultToJson(*resumed), clean_json);
      std::remove(path.c_str());
    }
  }
}

TEST(ResumeTest, FullyCheckpointedGridRecomputesNothing) {
  ScopedStableTiming stable;
  const std::string path = CheckpointPath("full");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    ASSERT_TRUE(MakeRunner().Run(hooks).ok());
  }
  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  EXPECT_EQ(checkpoint.done_cells(), 4);
  // Arm the fault to fire before the *first fresh* cell: if every cell is
  // restored, the injector never sees a fresh cell and the run succeeds.
  FaultInjector fault;
  fault.ArmAfterCells(0);
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  hooks.fault = &fault;
  auto result = MakeRunner().Run(hooks);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cells.size(), 4u);
}

TEST(ResumeTest, FullyCheckpointedGridPreparesNoDataset) {
  ScopedStableTiming stable;
  auto clean = MakeRunner().Run();
  ASSERT_TRUE(clean.ok());
  const std::string path = CheckpointPath("prepare_none");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    int prepared = 0;
    ASSERT_TRUE(MakeRunner(MatcherKind::kLogistic, &prepared).Run(hooks).ok());
    EXPECT_EQ(prepared, 2);
  }
  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  int prepared = 0;
  auto resumed = MakeRunner(MatcherKind::kLogistic, &prepared).Run(hooks);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(prepared, 0);
  EXPECT_EQ(ExperimentResultToJson(*resumed), ExperimentResultToJson(*clean));
  std::remove(path.c_str());
}

TEST(ResumeTest, ResumePreparesOnlyDatasetsWithMissingCells) {
  // The grid runs dataset-major, so killing it after two cells leaves all
  // of tiny-a's cells and none of tiny-b's. The resumed run must prepare
  // tiny-b alone and still equal a clean run byte for byte.
  ScopedStableTiming stable;
  auto clean = MakeRunner().Run();
  ASSERT_TRUE(clean.ok());
  const std::string path = CheckpointPath("prepare_one");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    FaultInjector fault;
    fault.ArmAfterCells(2);
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    hooks.fault = &fault;
    ASSERT_FALSE(MakeRunner().Run(hooks).ok());
  }
  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  ASSERT_TRUE(checkpoint.IsDone(CellKey("", "tiny-a", "lime")));
  ASSERT_TRUE(checkpoint.IsDone(CellKey("", "tiny-a", "random")));
  ASSERT_EQ(checkpoint.done_cells(), 2);
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  int prepared = 0;
  auto resumed = MakeRunner(MatcherKind::kLogistic, &prepared).Run(hooks);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(prepared, 1);
  EXPECT_EQ(checkpoint.done_cells(), 4);
  EXPECT_EQ(ExperimentResultToJson(*resumed), ExperimentResultToJson(*clean));
  std::remove(path.c_str());
}

TEST(ResumeTest, RefusedResumePreparesNoDataset) {
  // Both datasets still miss a cell, so an accepted resume would prepare
  // both. A changed matcher or seed must be refused before either is.
  ScopedStableTiming stable;
  const std::string path = CheckpointPath("refused_prepare");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    FaultInjector fault;
    fault.ArmAfterCells(1);
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    hooks.fault = &fault;
    ASSERT_FALSE(MakeRunner().Run(hooks).ok());
  }
  int prepared = 0;
  ExperimentSpec other_seed =
      MakeRunner(MatcherKind::kLogistic, &prepared).spec();
  other_seed.seed = 8;
  std::vector<ExperimentRunner> refused;
  refused.push_back(MakeRunner(MatcherKind::kRandomForest, &prepared));
  refused.push_back(ExperimentRunner(std::move(other_seed)));
  for (const ExperimentRunner& runner : refused) {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    auto result = runner.Run(hooks);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(prepared, 0);
    EXPECT_EQ(checkpoint.done_cells(), 1);
  }
  std::remove(path.c_str());
}

TEST(ResumeTest, SuiteWhoseNamesDependOnThePipelineIsRefused) {
  // Run learns the variant names from a suite built on an untrained
  // pipeline; a suite that names other variants once trained would key
  // the checkpoint inconsistently.
  ExperimentSpec spec = MakeRunner().spec();
  spec.suite = [](const TrainedPipeline& pipeline) {
    std::vector<SuiteEntry> suite;
    suite.push_back({"random", std::make_unique<RandomExplainer>()});
    if (pipeline.matcher != nullptr) {
      suite.push_back({"random2", std::make_unique<RandomExplainer>()});
    }
    return suite;
  };
  auto result = ExperimentRunner(std::move(spec)).Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResumeTest, StreamShardCarriesTheWholeGridAcrossRestarts) {
  // The JSONL shard written by the killed run plus the resumed run's
  // appends reconstruct the full grid: header + one line per cell, with
  // restored cells re-emitted by the resumed process in completion order.
  ScopedStableTiming stable;
  const std::string ckpt = CheckpointPath("shard_ckpt");
  const std::string shard = CheckpointPath("shard_stream");
  std::remove(ckpt.c_str());
  std::remove(shard.c_str());
  {
    CheckpointStore checkpoint(ckpt);
    ASSERT_TRUE(checkpoint.Load().ok());
    FaultInjector fault;
    fault.ArmAfterCells(2);
    JsonlStreamSink sink(shard);
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    hooks.fault = &fault;
    hooks.sinks.push_back(&sink);
    ASSERT_FALSE(MakeRunner().Run(hooks).ok());
  }
  // The resumed run opens its own shard (truncating): what matters is that
  // the final shard alone reconstructs all four cells.
  CheckpointStore checkpoint(ckpt);
  ASSERT_TRUE(checkpoint.Load().ok());
  JsonlStreamSink sink(shard);
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  hooks.sinks.push_back(&sink);
  auto result = MakeRunner().Run(hooks);
  ASSERT_TRUE(result.ok());

  std::FILE* f = std::fopen(shard.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  int headers = 0;
  int cells = 0;
  size_t start = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    auto record = ParseCellRecord(content.substr(start, end - start));
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    if (record->kind == "header") {
      ++headers;
      EXPECT_EQ(record->experiment, "resume_grid");
    } else {
      ++cells;
    }
    start = end + 1;
  }
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(cells, 4);
  std::remove(ckpt.c_str());
  std::remove(shard.c_str());
}

TEST(ResumeTest, CheckpointFromDifferentExperimentIsRefused) {
  ScopedStableTiming stable;
  const std::string path = CheckpointPath("wrong_experiment");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    ExperimentResult other;
    other.name = "some_other_experiment";
    ASSERT_TRUE(checkpoint.WriteHeaderIfNew(other).ok());
  }
  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  auto result = MakeRunner().Run(hooks);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ResumeTest, CheckpointFromDifferentParamsIsRefusedButThreadsMayDiffer) {
  // The header records matcher / instances / seed / threads. Resuming
  // under another matcher must be refused before any cell is restored or
  // appended; a different thread count cannot change a result, so it is
  // accepted and the resumed grid equals a clean run at that count.
  ScopedStableTiming stable;
  const std::string path = CheckpointPath("params");
  std::remove(path.c_str());
  {
    ScopedScoringThreads scoped(1);
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    FaultInjector fault;
    fault.ArmAfterCells(1);
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    hooks.fault = &fault;
    ASSERT_FALSE(MakeRunner().Run(hooks).ok());
  }
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    auto result = MakeRunner(MatcherKind::kRandomForest).Run(hooks);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().ToString().find("matcher=logistic"),
              std::string::npos);
    EXPECT_EQ(checkpoint.done_cells(), 1);
  }
  ScopedScoringThreads scoped(2);
  auto clean = MakeRunner().Run();
  ASSERT_TRUE(clean.ok());
  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  auto resumed = MakeRunner().Run(hooks);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(checkpoint.done_cells(), 4);
  EXPECT_EQ(ExperimentResultToJson(*resumed), ExperimentResultToJson(*clean));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crew
