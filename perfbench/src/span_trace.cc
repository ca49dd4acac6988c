#include "span_trace.h"

#include <cstdio>

namespace perfbench {

namespace {
SpanRecorder* g_active = nullptr;
}  // namespace

SpanRecorder* ActiveRecorder() { return g_active; }
void SetActiveRecorder(SpanRecorder* recorder) { g_active = recorder; }

SpanRecorder::SpanRecorder()
    : origin_(Clock::now()), owner_(std::this_thread::get_id()) {}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, std::int64_t request) {
  if (std::this_thread::get_id() != owner_) {
    broken_ = true;
    return -1;
  }
  auto [it, inserted] =
      name_index_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  Span span;
  span.name = it->second;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request >= 0 || span.parent < 0
                     ? request
                     : spans_[span.parent].request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index, std::int64_t items) {
  if (open_.empty() || open_.back() != index) {
    broken_ = true;
    return;
  }
  open_.pop_back();
  Span& span = spans_[index];
  span.end_ns = NowNs();
  span.items = items;
  if (span.parent >= 0) {
    spans_[span.parent].child_ns += span.end_ns - span.start_ns;
  }
}

std::map<std::string, SpanTotals> SpanRecorder::TotalsByName() const {
  std::map<std::string, SpanTotals> out;
  for (const Span& span : spans_) {
    SpanTotals& t = out[names_[span.name]];
    t.self_ns += span.end_ns - span.start_ns - span.child_ns;
    ++t.count;
    t.items += span.items;
  }
  return out;
}

std::int64_t SpanRecorder::ItemsUnder(const std::string& name,
                                      const std::string& parent) const {
  std::int64_t items = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0 || names_[span.name] != name) continue;
    if (names_[spans_[span.parent].name] == parent) items += span.items;
  }
  return items;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%lld,\"items\":%lld,"
                 "\"self_ns\":%lld}\n",
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.items),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
