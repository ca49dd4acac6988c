#include "crew/common/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <mutex>

#include "crew/common/logging.h"
#include "crew/common/string_util.h"

namespace crew {
namespace {

// Hard cap on distinct slots (a counter takes 1, a duration 2, a histogram
// kNumBuckets). 32 KiB of atomics per thread shard; raising it is a
// one-line change.
constexpr int kMaxSlots = 4096;

struct Shard {
  std::array<std::atomic<std::int64_t>, kMaxSlots> slots{};
};

struct MetricInfo {
  MetricKind kind;
  int first_slot;
};

// All registry state lives behind one mutex; the only lock-free path is
// the per-thread shard write in AddToSlot. Leaked intentionally so worker
// threads draining after main() can still write their shards.
struct RegistryState {
  mutable std::mutex mu;
  std::map<std::string, MetricInfo> metrics;  // sorted by name
  std::deque<Counter> counters;
  std::deque<DurationStat> durations;
  std::deque<Histogram> histograms;
  std::map<std::string, Counter*> counter_handles;
  std::map<std::string, DurationStat*> duration_handles;
  std::map<std::string, Histogram*> histogram_handles;
  int next_slot = 0;
  std::vector<Shard*> shards;  // never removed: dead threads keep counting
  std::array<std::int64_t, kMaxSlots> baseline{};
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();
  return *state;
}

thread_local Shard* t_shard = nullptr;

Shard* LocalShard() {
  if (t_shard == nullptr) {
    auto* shard = new Shard();  // owned by the registry's shard list
    RegistryState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    state.shards.push_back(shard);
    t_shard = shard;
  }
  return t_shard;
}

void AddToSlot(int slot, std::int64_t delta) {
  LocalShard()->slots[slot].fetch_add(delta, std::memory_order_relaxed);
}

// Raw (baseline-ignoring) totals of every allocated slot, each shard slot
// read exactly once. Caller holds state.mu.
std::vector<std::int64_t> RawTotalsLocked(const RegistryState& state) {
  std::vector<std::int64_t> totals(state.next_slot, 0);
  for (const Shard* shard : state.shards) {
    for (int slot = 0; slot < state.next_slot; ++slot) {
      totals[slot] += shard->slots[slot].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

int AllocateSlots(RegistryState& state, int n) {
  CREW_CHECK(state.next_slot + n <= kMaxSlots)
      << "metrics registry slot capacity exhausted";
  const int first = state.next_slot;
  state.next_slot += n;
  return first;
}

// Upper bound of histogram bucket b (b == kNumBounds is the overflow
// bucket). Bounds are 1, 2, 4, ..., 1024.
std::int64_t BucketBound(int b) { return std::int64_t{1} << b; }

std::string BucketName(const std::string& base, int b) {
  if (b >= Histogram::kNumBounds) return base + "/le_inf";
  return base + StrPrintf("/le_%04lld",
                          static_cast<long long>(BucketBound(b)));
}

// Builds the snapshot of `raw` (from RawTotalsLocked) under the lock.
// Histogram entries expand into their fixed bucket set; iteration over the
// name-sorted metric map plus sorted bucket suffixes keeps overall ordering
// deterministic.
MetricsSnapshot SnapshotLocked(const RegistryState& state,
                               const std::vector<std::int64_t>& raw) {
  auto delta = [&](int slot) { return raw[slot] - state.baseline[slot]; };
  MetricsSnapshot out;
  out.reserve(state.metrics.size());
  for (const auto& [name, info] : state.metrics) {
    switch (info.kind) {
      case MetricKind::kCounter: {
        MetricEntry e;
        e.name = name;
        e.kind = MetricKind::kCounter;
        e.count = delta(info.first_slot);
        out.push_back(std::move(e));
        break;
      }
      case MetricKind::kDuration: {
        MetricEntry e;
        e.name = name;
        e.kind = MetricKind::kDuration;
        e.count = delta(info.first_slot);
        e.total_ms = static_cast<double>(delta(info.first_slot + 1)) / 1e6;
        out.push_back(std::move(e));
        break;
      }
      case MetricKind::kHistogram: {
        for (int b = 0; b < Histogram::kNumBuckets; ++b) {
          MetricEntry e;
          e.name = BucketName(name, b);
          e.kind = MetricKind::kHistogram;
          e.count = delta(info.first_slot + b);
          out.push_back(std::move(e));
        }
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricEntry& a, const MetricEntry& b) {
              return a.name < b.name;
            });
  return out;
}

thread_local const char* t_stage = nullptr;

}  // namespace

void Counter::Add(std::int64_t delta) { AddToSlot(slot_, delta); }

void DurationStat::Add(double seconds) {
  AddToSlot(slot_, 1);
  AddToSlot(slot_ + 1, static_cast<std::int64_t>(seconds * 1e9));
}

void Histogram::Observe(std::int64_t value) {
  int b = 0;
  while (b < kNumBounds && value > BucketBound(b)) ++b;
  AddToSlot(slot_ + b, 1);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.counter_handles.find(name);
  if (it != state.counter_handles.end()) return it->second;
  CREW_CHECK(state.metrics.find(name) == state.metrics.end())
      << "metric registered twice with different kinds: " << name;
  const int slot = AllocateSlots(state, 1);
  state.metrics.emplace(name, MetricInfo{MetricKind::kCounter, slot});
  state.counters.push_back(Counter(slot));
  Counter* handle = &state.counters.back();
  state.counter_handles.emplace(name, handle);
  return handle;
}

DurationStat* MetricsRegistry::GetDuration(const std::string& name) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.duration_handles.find(name);
  if (it != state.duration_handles.end()) return it->second;
  CREW_CHECK(state.metrics.find(name) == state.metrics.end())
      << "metric registered twice with different kinds: " << name;
  const int slot = AllocateSlots(state, 2);
  state.metrics.emplace(name, MetricInfo{MetricKind::kDuration, slot});
  state.durations.push_back(DurationStat(slot));
  DurationStat* handle = &state.durations.back();
  state.duration_handles.emplace(name, handle);
  return handle;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.histogram_handles.find(name);
  if (it != state.histogram_handles.end()) return it->second;
  CREW_CHECK(state.metrics.find(name) == state.metrics.end())
      << "metric registered twice with different kinds: " << name;
  const int slot = AllocateSlots(state, Histogram::kNumBuckets);
  state.metrics.emplace(name, MetricInfo{MetricKind::kHistogram, slot});
  state.histograms.push_back(Histogram(slot));
  Histogram* handle = &state.histograms.back();
  state.histogram_handles.emplace(name, handle);
  return handle;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return SnapshotLocked(state, RawTotalsLocked(state));
}

MetricsSnapshot MetricsRegistry::Reset() {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  // The snapshot and the new baseline come from one read of the shards:
  // writers never take the lock, so a second read would also see
  // increments made after the first, and those would land in neither
  // epoch. With one read, the returned snapshot and the new epoch
  // partition all increments exactly (the "atomic epoch").
  const std::vector<std::int64_t> raw = RawTotalsLocked(state);
  MetricsSnapshot snapshot = SnapshotLocked(state, raw);
  std::copy(raw.begin(), raw.end(), state.baseline.begin());
  return snapshot;
}

const MetricEntry* FindMetric(const MetricsSnapshot& snapshot,
                              std::string_view name) {
  for (const MetricEntry& entry : snapshot) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

MetricsSnapshot MetricsDelta(const MetricsSnapshot& after,
                             const MetricsSnapshot& before) {
  MetricsSnapshot out = after;
  for (MetricEntry& entry : out) {
    if (const MetricEntry* prev = FindMetric(before, entry.name)) {
      entry.count -= prev->count;
      entry.total_ms -= prev->total_ms;
    }
  }
  return out;
}

MetricsSnapshot MetricsSum(const std::vector<MetricsSnapshot>& snapshots) {
  std::map<std::string, MetricEntry> by_name;
  for (const MetricsSnapshot& snapshot : snapshots) {
    for (const MetricEntry& entry : snapshot) {
      auto [it, inserted] = by_name.emplace(entry.name, entry);
      if (!inserted) {
        it->second.count += entry.count;
        it->second.total_ms += entry.total_ms;
      }
    }
  }
  MetricsSnapshot out;
  out.reserve(by_name.size());
  for (auto& [name, entry] : by_name) out.push_back(std::move(entry));
  return out;
}

MetricsSnapshot DropZeroMetrics(const MetricsSnapshot& snapshot) {
  MetricsSnapshot out;
  out.reserve(snapshot.size());
  for (const MetricEntry& entry : snapshot) {
    if (entry.count != 0 || entry.total_ms != 0.0) out.push_back(entry);
  }
  return out;
}

const char* CurrentMetricStage() {
  return t_stage == nullptr ? "other" : t_stage;
}

ScopedMetricStage::ScopedMetricStage(const char* stage) : saved_(t_stage) {
  t_stage = stage;
}

ScopedMetricStage::~ScopedMetricStage() { t_stage = saved_; }

}  // namespace crew
