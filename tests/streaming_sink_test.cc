// Tests for the streaming execution layer's serialization and sinks: the
// JSONL v1 schema is pinned by golden lines (a change that breaks old
// shards must show up here and bump kCellSchemaVersion), records round-trip
// with full fidelity, JsonlStreamSink appends in completion order, the
// partial-table sink renders after every cell, and CheckpointStore
// recovers from exactly the corruption a crash can produce — a torn
// trailing line — while refusing interior corruption and schema-version
// mismatches anywhere.

#include "crew/eval/streaming.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/logging.h"
#include "crew/eval/sinks.h"

namespace crew {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  CREW_CHECK(f != nullptr);
  std::string out;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CREW_CHECK(f != nullptr);
  CREW_CHECK(std::fwrite(content.data(), 1, content.size(), f) ==
             content.size());
  std::fclose(f);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A small but fully populated cell: dyadic doubles serialize exactly
// ("0.25"), 0.1 exercises the %.17g round-trip tail
// ("0.10000000000000001").
ExperimentCell SampleCell() {
  ExperimentCell cell;
  cell.dataset = "d";
  cell.variant = "v";
  cell.aggregate.name = "v";
  cell.aggregate.instances = 1;
  cell.aggregate.aopc = 0.25;
  cell.aggregate.stability = 0.1;
  InstanceEvaluation r;
  r.index = 3;
  r.evaluated = true;
  r.aopc = 0.5;
  r.curve = {0.5, 1.0};
  cell.instances.push_back(r);
  cell.scoring.predictions = 4;
  cell.scoring.batches = 2;
  cell.registry.push_back({"m", MetricKind::kCounter, 2, 0.0});
  cell.metrics.push_back({"f1", 0.5});
  cell.notes.push_back({"k", "val"});
  return cell;
}

ExperimentResult SampleHeader() {
  ExperimentResult header;
  header.name = "golden";
  header.params = {{"seed", "7"}, {"matcher", "mlp"}};
  return header;
}

TEST(CellJsonlTest, HeaderGoldenLine) {
  EXPECT_EQ(HeaderToJsonl(SampleHeader()),
            "{\"v\":1,\"kind\":\"header\",\"experiment\":\"golden\","
            "\"params\":[[\"seed\",\"7\"],[\"matcher\",\"mlp\"]]}");
}

TEST(CellJsonlTest, CellGoldenLine) {
  const std::string golden =
      "{\"v\":1,\"kind\":\"cell\",\"scope\":\"s\",\"dataset\":\"d\","
      "\"variant\":\"v\",\"aggregate\":{\"name\":\"v\",\"instances\":1,"
      "\"aopc\":0.25,\"comprehensiveness_at_1\":0,"
      "\"comprehensiveness_at_3\":0,\"sufficiency_at_1\":0,"
      "\"sufficiency_at_3\":0,\"comprehensiveness_budget5\":0,"
      "\"decision_flip_rate\":0,\"insertion_aopc\":0,\"flip_set_rate\":0,"
      "\"flip_set_units\":0,\"flip_set_tokens\":0,\"total_units\":0,"
      "\"effective_units\":0,\"words_per_unit\":0,\"semantic_coherence\":0,"
      "\"attribute_purity\":0,\"cluster_coherence\":0,"
      "\"cluster_silhouette\":0,\"mean_chosen_k\":0,"
      "\"stability\":0.10000000000000001,\"surrogate_r2\":0,"
      "\"runtime_ms\":0},\"instances\":[{\"index\":3,\"evaluated\":true,"
      "\"predicted_match\":false,\"aopc\":0.5,\"comprehensiveness_at_1\":0,"
      "\"comprehensiveness_at_3\":0,\"sufficiency_at_1\":0,"
      "\"sufficiency_at_3\":0,\"comprehensiveness_budget\":0,"
      "\"decision_flip\":false,\"insertion_aopc\":0,"
      "\"flip_set\":{\"flipped\":false,\"units_removed\":0,"
      "\"tokens_removed\":0},\"curve\":[0.5,1],\"total_units\":0,"
      "\"effective_units\":0,\"words_per_unit\":0,\"semantic_coherence\":0,"
      "\"attribute_purity\":0,\"has_cluster_stats\":false,"
      "\"cluster_coherence\":0,\"cluster_silhouette\":0,\"chosen_k\":0,"
      "\"stability\":0,\"surrogate_r2\":0,\"runtime_ms\":0}],"
      "\"scoring\":{\"predictions\":4,\"batches\":2,\"materialize_ms\":0,"
      "\"predict_ms\":0},\"registry\":[{\"name\":\"m\",\"kind\":\"counter\","
      "\"count\":2,\"ms\":0}],\"metrics\":[[\"f1\",0.5]],"
      "\"notes\":[[\"k\",\"val\"]],\"wall_ms\":0}";
  EXPECT_EQ(CellToJsonl("s", SampleCell()), golden);
}

TEST(CellJsonlTest, CellRoundTripsThroughParse) {
  const ExperimentCell cell = SampleCell();
  auto record = ParseCellRecord(CellToJsonl("scope", cell));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->kind, "cell");
  EXPECT_EQ(record->scope, "scope");
  const ExperimentCell& back = record->cell;
  EXPECT_EQ(back.dataset, "d");
  EXPECT_EQ(back.variant, "v");
  EXPECT_EQ(back.aggregate.name, "v");
  EXPECT_EQ(back.aggregate.instances, 1);
  EXPECT_EQ(back.aggregate.aopc, 0.25);
  EXPECT_EQ(back.aggregate.stability, 0.1);  // exact %.17g round-trip
  ASSERT_EQ(back.instances.size(), 1u);
  EXPECT_EQ(back.instances[0].index, 3);
  EXPECT_TRUE(back.instances[0].evaluated);
  EXPECT_EQ(back.instances[0].aopc, 0.5);
  EXPECT_EQ(back.instances[0].curve, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(back.scoring.predictions, 4);
  EXPECT_EQ(back.scoring.batches, 2);
  ASSERT_EQ(back.registry.size(), 1u);
  EXPECT_EQ(back.registry[0].name, "m");
  EXPECT_EQ(back.registry[0].kind, MetricKind::kCounter);
  EXPECT_EQ(back.registry[0].count, 2);
  ASSERT_EQ(back.metrics.size(), 1u);
  EXPECT_EQ(back.metrics[0].first, "f1");
  EXPECT_EQ(back.metrics[0].second, 0.5);
  ASSERT_EQ(back.notes.size(), 1u);
  EXPECT_EQ(back.notes[0].second, "val");
}

TEST(CellJsonlTest, HeaderRoundTripsThroughParse) {
  auto record = ParseCellRecord(HeaderToJsonl(SampleHeader()));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->kind, "header");
  EXPECT_EQ(record->experiment, "golden");
  ASSERT_EQ(record->params.size(), 2u);
  EXPECT_EQ(record->params[0].first, "seed");
  EXPECT_EQ(record->params[1].second, "mlp");
}

TEST(CellJsonlTest, VersionMismatchIsFailedPrecondition) {
  auto record = ParseCellRecord("{\"v\":999,\"kind\":\"cell\"}");
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CellJsonlTest, GarbageIsDataLoss) {
  auto record = ParseCellRecord("{\"v\":1,\"kind\":\"cell\",\"data");
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), StatusCode::kDataLoss);
}

// The golden line with one field's value replaced.
std::string WithField(const std::string& line, const std::string& from,
                      const std::string& to) {
  const size_t at = line.find(from);
  CREW_CHECK(at != std::string::npos);
  std::string out = line;
  out.replace(at, from.size(), to);
  return out;
}

TEST(CellJsonlTest, IntegerFieldsRejectNonIntegers) {
  const std::string good = CellToJsonl("s", SampleCell());
  ASSERT_TRUE(ParseCellRecord(good).ok());
  // null (NaN), huge, fractional and out-of-range values would all be
  // undefined behaviour to cast to an int; each is refused as DataLoss.
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"chosen_k\":0", "\"chosen_k\":null"},
           {"\"index\":3", "\"index\":1e300"},
           {"\"index\":3", "\"index\":3.5"},
           {"\"index\":3", "\"index\":-2147483649"},
           {"\"instances\":1", "\"instances\":2147483648"},
           {"\"units_removed\":0", "\"units_removed\":null"},
           {"\"predictions\":4", "\"predictions\":9.3e18"},
           {"\"count\":2", "\"count\":1e19"},
           {"\"v\":1", "\"v\":1e300"},
       }) {
    SCOPED_TRACE(to);
    auto record = ParseCellRecord(WithField(good, from, to));
    ASSERT_FALSE(record.ok());
    EXPECT_EQ(record.status().code(), StatusCode::kDataLoss);
  }
  // The largest values each integer type holds still parse.
  auto edge = ParseCellRecord(
      WithField(WithField(good, "\"index\":3", "\"index\":2147483647"),
                "\"count\":2", "\"count\":-9223372036854775808"));
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge->cell.instances[0].index, 2147483647);
  EXPECT_EQ(edge->cell.registry[0].count, INT64_MIN);
}

TEST(CellJsonlTest, EveryByteFlipAndTruncationParsesOrFails) {
  // Property: a damaged line never crashes the reader or reaches undefined
  // behaviour (the sanitizer build runs this); it either parses to a cell
  // that re-serializes stably, or returns an error. Every strict prefix is
  // an error.
  const std::string good = CellToJsonl("s", SampleCell());
  auto check = [](const std::string& line) {
    auto record = ParseCellRecord(line);
    if (!record.ok()) return;
    const std::string again = CellToJsonl(record->scope, record->cell);
    auto reparsed = ParseCellRecord(again);
    ASSERT_TRUE(reparsed.ok()) << line;
    EXPECT_EQ(CellToJsonl(reparsed->scope, reparsed->cell), again) << line;
  };
  for (size_t i = 0; i < good.size(); ++i) {
    for (const unsigned mask : {0x01u, 0x02u, 0x04u, 0x08u, 0x10u, 0x20u,
                                0x40u, 0x80u, 0xffu}) {
      std::string flipped = good;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(good[i]) ^
                                     mask);
      check(flipped);
    }
    EXPECT_FALSE(ParseCellRecord(good.substr(0, i)).ok()) << i;
  }
}

TEST(JsonlStreamSinkTest, AppendsHeaderThenCellsInOrder) {
  const std::string path = TempPath("stream_order.jsonl");
  std::remove(path.c_str());
  const ExperimentResult header = SampleHeader();
  ExperimentCell a = SampleCell();
  ExperimentCell b = SampleCell();
  b.variant = "w";
  {
    JsonlStreamSink sink(path, "s");
    ASSERT_TRUE(sink.OnBegin(header).ok());
    ASSERT_TRUE(sink.OnCell(a, /*restored=*/false).ok());
    // A second OnBegin (parameter sweeps re-enter the runner) must not
    // truncate what streamed already.
    ASSERT_TRUE(sink.OnBegin(header).ok());
    ASSERT_TRUE(sink.OnCell(b, /*restored=*/false).ok());
  }
  const std::string expected = HeaderToJsonl(header) + "\n" +
                               CellToJsonl("s", a) + "\n" +
                               CellToJsonl("s", b) + "\n";
  EXPECT_EQ(ReadFileOrDie(path), expected);
  std::remove(path.c_str());
}

TEST(PartialTableSinkTest, RendersAfterEveryCell) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  PartialTableSink sink({}, out);
  ExperimentResult header = SampleHeader();
  header.cells.resize(2);  // runner pre-sizes the grid before OnBegin
  ASSERT_TRUE(sink.OnBegin(header).ok());
  ASSERT_TRUE(sink.OnCell(SampleCell(), /*restored=*/false).ok());
  ExperimentCell second = SampleCell();
  second.variant = "w";
  ASSERT_TRUE(sink.OnCell(second, /*restored=*/true).ok());

  std::rewind(out);
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, out)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(out);
  EXPECT_NE(text.find("-- partial: 1/2 cell(s) --"), std::string::npos);
  EXPECT_NE(text.find("-- partial: 2/2 cell(s) --"), std::string::npos);
  EXPECT_NE(text.find("aopc"), std::string::npos);
}

TEST(CheckpointStoreTest, AppendThenLoadRestoresTheCell) {
  const std::string path = TempPath("ckpt_roundtrip.jsonl");
  std::remove(path.c_str());
  const ExperimentResult header = SampleHeader();
  const ExperimentCell cell = SampleCell();
  {
    CheckpointStore store(path);
    ASSERT_TRUE(store.Load().ok());
    ASSERT_TRUE(store.WriteHeaderIfNew(header).ok());
    ASSERT_TRUE(store.Append("s", cell).ok());
    // Idempotent by key: the duplicate append is silently skipped.
    ASSERT_TRUE(store.Append("s", cell).ok());
    EXPECT_EQ(store.done_cells(), 1);
  }
  CheckpointStore reloaded(path);
  ASSERT_TRUE(reloaded.Load().ok());
  EXPECT_EQ(reloaded.done_cells(), 1);
  EXPECT_TRUE(reloaded.IsDone(CellKey("s", "d", "v")));
  EXPECT_FALSE(reloaded.IsDone(CellKey("", "d", "v")));
  const ExperimentCell* restored = reloaded.Restored(CellKey("s", "d", "v"));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->aggregate.aopc, 0.25);
  EXPECT_EQ(restored->instances.size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, TornTrailingLineIsDroppedAndTruncated) {
  const std::string path = TempPath("ckpt_torn.jsonl");
  const std::string good = HeaderToJsonl(SampleHeader()) + "\n" +
                           CellToJsonl("", SampleCell()) + "\n";
  // A crash mid-append leaves an unterminated prefix of the next line.
  WriteFileOrDie(path, good + "{\"v\":1,\"kind\":\"ce");
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(store.done_cells(), 1);
  // The file was rewritten-truncated back to the last good record, so a
  // later append never lands after garbage.
  EXPECT_EQ(ReadFileOrDie(path), good);
  ExperimentCell next = SampleCell();
  next.variant = "w";
  ASSERT_TRUE(store.Append("", next).ok());
  EXPECT_EQ(ReadFileOrDie(path), good + CellToJsonl("", next) + "\n");
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, TerminatedGarbageTailIsAlsoDropped) {
  const std::string path = TempPath("ckpt_garbage_tail.jsonl");
  const std::string good = HeaderToJsonl(SampleHeader()) + "\n" +
                           CellToJsonl("", SampleCell()) + "\n";
  WriteFileOrDie(path, good + "{\"v\":1,\"kind\":\"cell\",\"broken\n");
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(store.done_cells(), 1);
  EXPECT_EQ(ReadFileOrDie(path), good);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, InteriorCorruptionIsAnError) {
  const std::string path = TempPath("ckpt_interior.jsonl");
  WriteFileOrDie(path, HeaderToJsonl(SampleHeader()) + "\n" +
                           "not json at all\n" +
                           CellToJsonl("", SampleCell()) + "\n");
  CheckpointStore store(path);
  const Status status = store.Load();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, CorruptedInteriorCellLineIsDataLoss) {
  // A complete, terminated line whose integer field was damaged: not a
  // torn tail, so the whole load is refused rather than the cell dropped.
  const std::string path = TempPath("ckpt_interior_field.jsonl");
  const std::string cell = CellToJsonl("", SampleCell());
  ExperimentCell other = SampleCell();
  other.variant = "w";
  WriteFileOrDie(path, HeaderToJsonl(SampleHeader()) + "\n" +
                           WithField(cell, "\"chosen_k\":0",
                                     "\"chosen_k\":null") +
                           "\n" + CellToJsonl("", other) + "\n");
  CheckpointStore store(path);
  const Status status = store.Load();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, VersionMismatchIsFatalEvenOnTheLastLine) {
  const std::string path = TempPath("ckpt_version.jsonl");
  WriteFileOrDie(path, HeaderToJsonl(SampleHeader()) + "\n" +
                           "{\"v\":999,\"kind\":\"cell\"}\n");
  CheckpointStore store(path);
  const Status status = store.Load();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, HeaderExperimentMismatchIsRefused) {
  const std::string path = TempPath("ckpt_name.jsonl");
  std::remove(path.c_str());
  {
    CheckpointStore store(path);
    ASSERT_TRUE(store.Load().ok());
    ASSERT_TRUE(store.WriteHeaderIfNew(SampleHeader()).ok());
  }
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  ExperimentResult other;
  other.name = "different_experiment";
  EXPECT_FALSE(store.WriteHeaderIfNew(other).ok());
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, FiresAfterTheConfiguredCellCount) {
  FaultInjector fault;
  fault.ArmAfterCells(2);
  EXPECT_TRUE(fault.armed());
  fault.FinalizeSchedule(10);
  EXPECT_FALSE(fault.FireNow());
  fault.CellCompleted();
  EXPECT_FALSE(fault.FireNow());
  fault.CellCompleted();
  EXPECT_TRUE(fault.FireNow());
  const Status status = fault.FaultStatus();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("fault injected"), std::string::npos);
}

TEST(FaultInjectorTest, SeedArmingIsDeterministicAndInRange) {
  for (uint64_t seed : {1u, 2u, 3u, 99u}) {
    FaultInjector a;
    a.ArmFromSeed(seed);
    a.FinalizeSchedule(7);
    FaultInjector b;
    b.ArmFromSeed(seed);
    b.FinalizeSchedule(7);
    EXPECT_EQ(a.fail_after(), b.fail_after()) << "seed=" << seed;
    EXPECT_GE(a.fail_after(), 0);
    EXPECT_LT(a.fail_after(), 7);
  }
}

TEST(FaultInjectorTest, EnvSeedMustBeAnUnsignedInteger) {
  // strtoull would read "-1" as 2^64 - 1 and arm a fault nobody asked for.
  for (const char* bad : {"-1", "+3", "12x", ""}) {
    ASSERT_EQ(setenv("CREW_FAULT_SEED", bad, 1), 0);
    EXPECT_EQ(FaultInjector::FromFlagsAndEnv(-1), nullptr) << "'" << bad << "'";
  }
  ASSERT_EQ(setenv("CREW_FAULT_SEED", "12", 1), 0);
  const auto armed = FaultInjector::FromFlagsAndEnv(-1);
  ASSERT_NE(armed, nullptr);
  EXPECT_TRUE(armed->armed());
  ASSERT_EQ(unsetenv("CREW_FAULT_SEED"), 0);
}

TEST(PrintResultTableTest, PrintsTheTableThenTheMetricsBlock) {
  ExperimentResult result;
  result.name = "print";
  result.cells.push_back(SampleCell());
  ExperimentCell second = SampleCell();
  second.variant = "w";
  result.cells.push_back(second);

  auto render = [&] {
    std::FILE* out = std::tmpfile();
    CREW_CHECK(out != nullptr);
    PrintResultTable(result, {AggColumn("aopc", &ExplainerAggregate::aopc)},
                     /*dataset_column=*/true, /*variant_column=*/true, out);
    std::rewind(out);
    std::string text;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, out)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(out);
    return text;
  };
  const std::string plain = render();
  EXPECT_NE(plain.find("0.25"), std::string::npos);
  EXPECT_EQ(plain.find("-- metrics"), std::string::npos);

  // Under --metrics the block follows the table, summing both cells'
  // registry deltas ("m" counted 2 + 2).
  result.include_metrics = true;
  const std::string with_metrics = render();
  EXPECT_EQ(with_metrics.rfind(plain, 0), 0u);
  const size_t block = with_metrics.find("-- metrics (summed over cells) --");
  ASSERT_NE(block, std::string::npos);
  EXPECT_NE(with_metrics.find(" 4 ", block), std::string::npos);
}

}  // namespace
}  // namespace crew
