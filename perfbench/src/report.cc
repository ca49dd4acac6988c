#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
};

// Every per-layer metric a traced run reports, on every workload. Layers a
// workload bypasses read 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"data.datasets", "count", "lower"},
    {"data.generate_ms", "ms", "lower"},
    {"data.split_ms", "ms", "lower"},
    {"embed.corpus_ms", "ms", "lower"},
    {"embed.sgns_ms", "ms", "lower"},
    {"model.train_ms", "ms", "lower"},
    {"model.matcher_eval_ms", "ms", "lower"},
    {"model.predict_ms", "ms", "lower"},
    {"model.predict_pairs", "count", "lower"},
    {"model.predict_batches", "count", "lower"},
    {"model.predict_us_per_pair", "us", "lower"},
    {"model.featurize_us_per_pair", "us", "lower"},
    {"model.featurize_pairs", "count", "higher"},
    {"eval.select_ms", "ms", "lower"},
    {"explain.suite_ms", "ms", "lower"},
    {"explain.lime.self_ms", "ms", "lower"},
    {"explain.lime.pairs", "count", "higher"},
    {"explain.mojito_drop.self_ms", "ms", "lower"},
    {"explain.mojito_drop.pairs", "count", "higher"},
    {"explain.mojito_copy.self_ms", "ms", "lower"},
    {"explain.mojito_copy.pairs", "count", "higher"},
    {"explain.landmark.self_ms", "ms", "lower"},
    {"explain.landmark.pairs", "count", "higher"},
    {"explain.lemon.self_ms", "ms", "lower"},
    {"explain.lemon.pairs", "count", "higher"},
    {"explain.kernel_shap.self_ms", "ms", "lower"},
    {"explain.kernel_shap.pairs", "count", "higher"},
    {"explain.certa.self_ms", "ms", "lower"},
    {"explain.certa.pairs", "count", "higher"},
    {"explain.random.self_ms", "ms", "lower"},
    {"explain.random.pairs", "count", "higher"},
    {"explain.wym.self_ms", "ms", "lower"},
    {"explain.wym.pairs", "count", "higher"},
    {"core.setup_ms", "ms", "lower"},
    {"core.crew.self_ms", "ms", "lower"},
    {"core.crew.pairs", "count", "higher"},
    {"core.crew.clusters", "count", "lower"},
    {"eval.faithfulness_ms", "ms", "lower"},
    {"eval.faithfulness_pairs", "count", "lower"},
    {"eval.comprehensibility_ms", "ms", "lower"},
    {"eval.reduce_ms", "ms", "lower"},
    {"eval.checkpoint_load_ms", "ms", "lower"},
    {"eval.cells_restored", "count", "higher"},
    {"eval.restore_ms", "ms", "lower"},
    {"eval.stream_append_ms", "ms", "lower"},
    {"eval.cells_appended", "count", "lower"},
    {"eval.stream_bytes", "bytes", "lower"},
    {"common.pool_busy_frac", "frac", "higher"},
    {"unattributed_ms", "ms", "lower"},
    {"trace.wall_ms", "ms", "lower"},
    {"trace.spans", "count", "lower"},
    {"trace.overhead_frac", "frac", "lower"},
};

const LayerMetric* FindLayerMetric(const std::string& name) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

// Layer metric holding the self time of spans named `span`.
std::string SelfTimeMetric(const std::string& span) {
  if (span.rfind("explain.", 0) == 0 && span != "explain.suite") {
    return span + ".self_ms";
  }
  if (span == "core.crew") return "core.crew.self_ms";
  return span + "_ms";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit, const std::string& better,
                  std::int64_t samples) {
  metrics.push_back({name, value, unit, better, samples});
}

void Outcome::Check(bool ok, const std::string& what) {
  Attempt(1, ok ? 0 : 1, what);
}

void Outcome::Attempt(std::int64_t n, std::int64_t n_failed,
                      const std::string& what) {
  attempted += n;
  failed += n_failed;
  if (n_failed > 0) {
    failures.push_back(what + " (" + std::to_string(n_failed) + " of " +
                       std::to_string(n) + ")");
  }
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void FinishTracedRun(const SpanRecorder& recorder, double traced_wall_ms,
                     const std::string& spans_path, Outcome* outcome) {
  outcome->Check(!recorder.broken(),
                 "traced run kept one properly nested span stack");
  const std::map<std::string, SpanTotals> totals = recorder.TotalsByName();
  auto total = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals() : it->second;
  };
  std::int64_t self_ns = 0;
  for (const auto& [span, t] : totals) {
    const std::string metric = SelfTimeMetric(span);
    const LayerMetric* m = FindLayerMetric(metric);
    outcome->Check(m != nullptr, "span " + span + " maps to a layer metric");
    if (m == nullptr) continue;
    outcome->Add(metric, static_cast<double>(t.self_ns) / 1e6, "ms", "lower",
                 t.count);
    outcome->layers.push_back(metric);
    self_ns += t.self_ns;
    if (span.rfind("explain.", 0) == 0 && span != "explain.suite") {
      outcome->Add(span + ".pairs", static_cast<double>(t.count), "count",
                   "higher");
    }
  }
  const SpanTotals predict = total("model.predict");
  outcome->Add("data.datasets",
               static_cast<double>(total("data.generate").count), "count",
               "lower");
  outcome->Add("model.predict_pairs", static_cast<double>(predict.items),
               "count", "lower");
  outcome->Add("model.predict_batches", static_cast<double>(predict.count),
               "count", "lower");
  outcome->Add("model.predict_us_per_pair",
               predict.items > 0 ? static_cast<double>(predict.self_ns) /
                                       1e3 / static_cast<double>(predict.items)
                                 : 0.0,
               "us", "lower", predict.items);
  outcome->Add("core.crew.pairs",
               static_cast<double>(total("core.crew").count), "count",
               "higher");
  outcome->Add("core.crew.clusters",
               static_cast<double>(total("core.crew").items), "count",
               "lower");
  outcome->Add("eval.faithfulness_pairs",
               static_cast<double>(
                   recorder.ItemsUnder("model.predict", "eval.faithfulness")),
               "count", "lower");
  outcome->Add("trace.spans", static_cast<double>(recorder.size()), "count",
               "lower");
  const double self_ms = static_cast<double>(self_ns) / 1e6;
  outcome->Add("unattributed_ms", traced_wall_ms - self_ms, "ms", "lower");
  outcome->Add("trace.wall_ms", traced_wall_ms, "ms", "lower");

  std::set<std::string> present;
  for (const Metric& m : outcome->metrics) present.insert(m.name);
  for (const LayerMetric& m : kLayerMetrics) {
    if (present.count(m.name) == 0) outcome->Add(m.name, 0.0, m.unit, m.better);
  }
  outcome->Check(recorder.WriteJsonl(spans_path),
                 "spans written to " + spans_path);
}

void PrintOutcome(const RunInfo& info, const Outcome& outcome) {
  const double error_rate =
      outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted)
                            : 1.0;
  std::string record = "{\"record\":{\"workload\":" + JsonString(info.workload);
  record += ",\"seed\":" + std::to_string(info.seed);
  record += ",\"seconds\":" + std::to_string(info.seconds);
  record += ",\"trace\":" + std::to_string(info.trace);
  record += std::string(",\"tiny\":") + (info.tiny ? "true" : "false");
  record += ",\"threads\":" + std::to_string(info.threads);
  record += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  record += ",\"git_sha\":" + JsonString(info.git_sha);
  record += ",\"compiler\":" + JsonString(PERFBENCH_COMPILER);
  record += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  record += ",\"attempted\":" + std::to_string(outcome.attempted);
  record += ",\"failed\":" + std::to_string(outcome.failed);
  record += ",\"error_rate\":" + JsonNumber(error_rate);
  record += ",\"failures\":[";
  for (size_t i = 0; i < outcome.failures.size(); ++i) {
    if (i > 0) record += ",";
    record += JsonString(outcome.failures[i]);
  }
  record += "],\"layers\":[";
  for (size_t i = 0; i < outcome.layers.size(); ++i) {
    if (i > 0) record += ",";
    record += JsonString(outcome.layers[i]);
  }
  record += "],\"metrics\":[";
  std::string result = "{\"correct\":";
  result += outcome.failed == 0 ? "true" : "false";
  result += ",\"attempted\":" + std::to_string(outcome.attempted);
  result += ",\"failed\":" + std::to_string(outcome.failed);
  result += ",\"metrics\":{";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    const std::string sep = i > 0 ? "," : "";
    record += sep + "{\"name\":" + JsonString(m.name) +
              ",\"value\":" + JsonNumber(m.value) +
              ",\"unit\":" + JsonString(m.unit) +
              ",\"better\":" + JsonString(m.better) +
              ",\"samples\":" + std::to_string(m.samples) + "}";
    result += sep + JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
              ",\"unit\":" + JsonString(m.unit) + "}";
  }
  record += "]}}";
  result += "}}";
  for (const Metric& m : outcome.metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %-6s (%s is better%s)\n",
                 m.name.c_str(), m.value, m.unit.c_str(), m.better.c_str(),
                 m.samples > 0
                     ? (", n=" + std::to_string(m.samples)).c_str()
                     : "");
  }
  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n%s\n", record.c_str(), result.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
