// Forwarding Matcher for traced runs: every PredictProba/PredictProbaBatch
// call becomes a "model.predict" span whose item count is the number of
// pairs scored, and a strided sample of the scored pairs can be kept for
// replaying through the featurizer afterwards.

#ifndef CREW_PERFBENCH_SRC_TRACED_MATCHER_H_
#define CREW_PERFBENCH_SRC_TRACED_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "crew/model/matcher.h"
#include "span_trace.h"

namespace perfbench {

/// Every `stride`-th scored pair, up to `cap`, tagged with the dataset
/// that was being explained when it was scored.
struct PairCapture {
  std::int64_t stride = 1;
  size_t cap = 0;
  int dataset = 0;
  std::int64_t seen = 0;
  std::vector<std::pair<int, crew::RecordPair>> pairs;

  void Offer(const crew::RecordPair* batch, size_t count) {
    for (size_t i = 0; i < count && pairs.size() < cap; ++i, ++seen) {
      if (seen % stride == 0) pairs.emplace_back(dataset, batch[i]);
    }
  }
};

class TracedMatcher final : public crew::Matcher {
 public:
  explicit TracedMatcher(const crew::Matcher& inner,
                         PairCapture* capture = nullptr)
      : inner_(inner), capture_(capture) {}

  double PredictProba(const crew::RecordPair& pair) const override {
    ScopedSpan span("model.predict");
    span.set_items(1);
    if (capture_ != nullptr) capture_->Offer(&pair, 1);
    return inner_.PredictProba(pair);
  }

  using crew::Matcher::PredictProbaBatch;
  void PredictProbaBatch(const crew::RecordPair* pairs, size_t count,
                         double* out) const override {
    ScopedSpan span("model.predict");
    span.set_items(static_cast<std::int64_t>(count));
    if (capture_ != nullptr) capture_->Offer(pairs, count);
    inner_.PredictProbaBatch(pairs, count, out);
  }

  double threshold() const override { return inner_.threshold(); }
  std::string Name() const override { return inner_.Name(); }

 private:
  const crew::Matcher& inner_;
  PairCapture* capture_;
};

}  // namespace perfbench

#endif  // CREW_PERFBENCH_SRC_TRACED_MATCHER_H_
