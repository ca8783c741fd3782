// Benchmark-side spans: one span per call the benchmark makes into a
// layer (name, start, end, parent span, job id), kept in memory and
// written out as JSON when the traced run ends. perfbench/metrics.py
// turns them into per-layer self times.

#ifndef MANIMAL_PERFBENCH_TRACE_H_
#define MANIMAL_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace manimal::perfbench {

class Tracer {
 public:
  // Opens a span under the innermost open span; returns its id.
  int Begin(std::string name, int job) {
    Span span;
    span.name = std::move(name);
    span.job = job;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  // Closes the innermost open span, which must be `id`.
  void End(int id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  // The spans as one JSON array of
  // {"name", "start_ns", "end_ns", "parent", "job"} objects.
  std::string ToJson() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":" + obs::JsonQuote(s.name) +
             ",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"end_ns\":" + std::to_string(s.end_ns) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"job\":" + std::to_string(s.job) + "}";
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int job = -1;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Records one span for its scope; a null tracer records nothing, so
// the untraced loop runs the same code with tracing off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int job)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(std::move(name), job)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const int id_;
};

}  // namespace manimal::perfbench

#endif  // MANIMAL_PERFBENCH_TRACE_H_
