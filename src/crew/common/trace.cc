#include "crew/common/trace.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "crew/common/string_util.h"

namespace crew {
namespace {

// Per-thread ring capacity. 8192 events x 32 bytes = 256 KiB per traced
// thread; long runs keep the most recent window, which is what a latency
// investigation wants anyway.
constexpr std::int64_t kRingCapacity = 8192;

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_dropped{0};
std::atomic<int> g_next_tid{0};

struct Ring {
  std::mutex mu;
  std::vector<TraceEvent> events;  // grows to kRingCapacity, then wraps
  std::int64_t head = 0;           // total events ever pushed
  int tid = 0;
};

struct RingList {
  std::mutex mu;
  std::vector<Ring*> all;  // rings outlive their threads (leaked on purpose)
};

RingList& Rings() {
  static RingList* rings = new RingList();
  return *rings;
}

thread_local Ring* t_ring = nullptr;

Ring* LocalRing() {
  if (t_ring == nullptr) {
    auto* ring = new Ring();
    ring->tid = CurrentThreadId();
    RingList& rings = Rings();
    std::lock_guard<std::mutex> lock(rings.mu);
    rings.all.push_back(ring);
    t_ring = ring;
  }
  return t_ring;
}

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

void SetTracingEnabled(bool enabled) {
  // Pin the epoch before the first event so timestamps are never negative.
  TraceEpoch();
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

int CurrentThreadId() {
  thread_local const int tid =
      g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

namespace trace_internal {

std::int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

void PushTraceEvent(const char* name, std::int64_t start_ns,
                    std::int64_t dur_ns) {
  Ring* ring = LocalRing();
  TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.tid = ring->tid;
  std::lock_guard<std::mutex> lock(ring->mu);
  if (static_cast<std::int64_t>(ring->events.size()) < kRingCapacity) {
    ring->events.push_back(event);
  } else {
    ring->events[ring->head % kRingCapacity] = event;
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  ++ring->head;
}

}  // namespace trace_internal

std::vector<TraceEvent> CollectTraceEvents() {
  std::vector<TraceEvent> out;
  RingList& rings = Rings();
  std::lock_guard<std::mutex> list_lock(rings.mu);
  for (Ring* ring : rings.all) {
    std::lock_guard<std::mutex> lock(ring->mu);
    out.insert(out.end(), ring->events.begin(), ring->events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a,
                                       const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // parent (longer) before child at same start
  });
  return out;
}

std::int64_t TraceDroppedEvents() {
  return g_dropped.load(std::memory_order_relaxed);
}

void ClearTraceEvents() {
  RingList& rings = Rings();
  std::lock_guard<std::mutex> list_lock(rings.mu);
  for (Ring* ring : rings.all) {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->events.clear();
    ring->head = 0;
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events) {
  const int pid = static_cast<int>(::getpid());
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += JsonEscape(event.name);
    // ts/dur are microseconds (doubles); %.3f keeps nanosecond resolution.
    out += StrPrintf(
        "\",\"cat\":\"crew\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f}",
        pid, event.tid, static_cast<double>(event.start_ns) / 1e3,
        static_cast<double>(event.dur_ns) / 1e3);
  }
  out += "]}";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  const std::string json = TraceEventsToChromeJson(CollectTraceEvents());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != json.size() || !flushed) {
    return Status::DataLoss("short write: " + path);
  }
  return Status::Ok();
}

}  // namespace crew
