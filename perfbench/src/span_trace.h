// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark around its calls into CREW's public
// functions (the program itself is not instrumented here). A traced run is
// single-threaded, so one stack of open spans gives every span its parent,
// and a span's self time is its duration minus the time its direct
// children cover. The spans stay in memory and are written out at the end.

#ifndef CREW_PERFBENCH_SRC_SPAN_TRACE_H_
#define CREW_PERFBENCH_SRC_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

struct Span {
  int name = 0;              ///< index into SpanRecorder::names()
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t end_ns = -1;   ///< -1 while open
  int parent = -1;            ///< index of the enclosing span, -1 at top level
  std::int64_t request = -1;  ///< request id shared by one request's spans
  std::int64_t items = 0;     ///< work count (pairs scored, clusters made)
  std::int64_t child_ns = 0;  ///< time covered by direct children
};

/// Per span name: summed self time, number of spans, summed items.
struct SpanTotals {
  std::int64_t self_ns = 0;
  std::int64_t count = 0;
  std::int64_t items = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span under the innermost open one. A negative `request`
  /// inherits the parent's request id. Returns -1 (nothing recorded) when
  /// called from a thread other than the one that created the recorder.
  int Begin(const std::string& name, std::int64_t request);
  void End(int index, std::int64_t items);

  std::int64_t NowNs() const;

  /// Totals per span name, in name order.
  std::map<std::string, SpanTotals> TotalsByName() const;
  /// Items of spans named `name` whose parent span is named `parent`.
  std::int64_t ItemsUnder(const std::string& name,
                          const std::string& parent) const;

  /// True when a span was attempted from a foreign thread, or a span was
  /// left open or closed out of order: the accounting is then invalid.
  bool broken() const { return broken_ || !open_.empty(); }
  size_t size() const { return spans_.size(); }

  /// Writes one JSON object per span (name, start/end ns, parent, request,
  /// items, self ns).
  bool WriteJsonl(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> name_index_;
  bool broken_ = false;
};

/// The recorder spans go to; nullptr (the default) turns ScopedSpan into a
/// no-op, which is how untraced runs execute the same benchmark code.
SpanRecorder* ActiveRecorder();
void SetActiveRecorder(SpanRecorder* recorder);

/// RAII span on the active recorder.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, std::int64_t request = -1)
      : recorder_(ActiveRecorder()) {
    if (recorder_ != nullptr) index_ = recorder_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr && index_ >= 0) recorder_->End(index_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::int64_t items) { items_ = items; }

 private:
  SpanRecorder* recorder_;
  int index_ = -1;
  std::int64_t items_ = 0;
};

}  // namespace perfbench

#endif  // CREW_PERFBENCH_SRC_SPAN_TRACE_H_
