#include "crew/eval/run_control.h"

// crew-lint: allow-file(raw-stdio): this file writes the binary's own
// reports: the "[resume]" notice on stderr, the "wrote" lines on stdout.

#include <cstdio>
#include <utility>

#include "crew/common/thread_pool.h"
#include "crew/common/trace.h"

namespace crew {

void RunControl::Declare(FlagParser& flags) {
  flags.Add("threads", &threads, "scoring threads; 0 = hardware, 1 = serial");
  flags.Add("json", &json, "also write the experiment result as JSON here");
  flags.Add("trace", &trace, "record spans and write a Chrome trace here");
  flags.Add("metrics", &metrics, "report the per-cell metrics registry");
  flags.Add("progress", &progress, "seconds between heartbeats; <= 0 = off");
  flags.Add("resume", &resume, "checkpoint file; restores finished cells");
  flags.Add("stream", &stream, "append each finished cell to this JSONL shard");
  flags.Add("fail-after-cells", &fail_after_cells,
            "inject a fault after N fresh cells; < 0 = off");
  flags.Add("stable-timing", &stable_timing,
            "zero wall-clock outputs so runs compare byte for byte");
  flags.Add("live-table", &live_table, "re-render the table after each cell");
}

void RunControl::Apply() const {
  SetScoringThreads(threads);
  SetProgressInterval(progress);
  SetTracingEnabled(!trace.empty());
  SetStableTiming(stable_timing);
}

Result<StreamSetup> MakeStreamSetup(const RunControl& run, std::string scope) {
  StreamSetup s;
  s.hooks.scope = scope;
  if (!run.resume.empty()) {
    s.checkpoint = std::make_unique<CheckpointStore>(run.resume);
    CREW_RETURN_IF_ERROR(s.checkpoint->Load());
    s.hooks.checkpoint = s.checkpoint.get();
    if (s.checkpoint->done_cells() > 0) {
      std::fprintf(stderr, "[resume] %s: %d cell(s) restored\n",
                   run.resume.c_str(), s.checkpoint->done_cells());
    }
  }
  if (!run.stream.empty()) {
    s.stream = std::make_unique<JsonlStreamSink>(run.stream, std::move(scope));
    s.hooks.sinks.push_back(s.stream.get());
  }
  if (run.live_table) {
    s.live = std::make_unique<PartialTableSink>();
    s.hooks.sinks.push_back(s.live.get());
  }
  s.fault = FaultInjector::FromFlagsAndEnv(run.fail_after_cells);
  s.hooks.fault = s.fault.get();
  return s;
}

Status WriteJsonAndTrace(const ExperimentResult& result,
                         const RunControl& run) {
  if (!run.json.empty()) {
    CREW_RETURN_IF_ERROR(WriteExperimentJson(result, run.json));
    std::printf("wrote %s\n", run.json.c_str());
  }
  return WriteTrace(run);
}

Status WriteTrace(const RunControl& run) {
  if (run.trace.empty()) return Status::Ok();
  const size_t events = CollectTraceEvents().size();
  CREW_RETURN_IF_ERROR(WriteChromeTrace(run.trace));
  std::printf("wrote %s (%zu trace events, %lld overwritten)\n",
              run.trace.c_str(), events,
              static_cast<long long>(TraceDroppedEvents()));
  return Status::Ok();
}

}  // namespace crew
