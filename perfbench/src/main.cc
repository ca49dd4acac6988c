// crew_perfbench: runs one benchmark workload and prints its record and
// result (see perfbench/run.py, which builds this binary and is the entry
// point).
//
//   crew_perfbench --workload <paper-grid|crew-interactive|grid-resume>
//                  --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//                  [--git-sha <sha>] [--tiny]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that reports the per-layer metrics. Exit status is 0 only when every
// correctness check passed; 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "crew/common/logging.h"
#include "crew/eval/runner.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "crew_perfbench: %s\nusage: crew_perfbench --workload "
               "<paper-grid|crew-interactive|grid-resume> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--git-sha <sha>] "
               "[--tiny]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || end == nullptr || *end != '\0') {
    Usage("bad value for " + flag + ": " + v);
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  perfbench::RunInfo info;
  info.git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = ParseUnsigned(flag, value);
      if (s < 1 || s > 3600) Usage("--seconds must be in [1, 3600]");
      options.seconds = static_cast<int>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      info.git_sha = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.out_dir.empty()) {
    Usage("--seed, --seconds, --trace and --out-dir are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (ec) Usage("cannot create " + options.out_dir + ": " + ec.message());

  // Heartbeats and info logs would only add noise to a timed run.
  crew::SetProgressInterval(0.0);
  crew::SetMinLogSeverity(crew::LogSeverity::kError);

  perfbench::Outcome outcome;
  if (options.workload == "paper-grid") {
    info.threads = perfbench::GridThreads();
    outcome = perfbench::RunPaperGrid(options);
  } else if (options.workload == "crew-interactive") {
    info.threads = 1;
    outcome = perfbench::RunCrewInteractive(options);
  } else if (options.workload == "grid-resume") {
    info.threads = 1;
    outcome = perfbench::RunGridResume(options);
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }
  info.workload = options.workload;
  info.seed = options.seed;
  info.seconds = options.seconds;
  info.trace = options.trace ? 1 : 0;
  info.tiny = options.tiny;
  perfbench::PrintOutcome(info, outcome);
  return outcome.failed == 0 && outcome.attempted > 0 ? 0 : 1;
}
