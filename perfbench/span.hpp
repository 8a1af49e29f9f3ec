// Benchmark-side tracing: a scope timer that adds its wall time to a sink.
// A null sink reads no clock, so untraced runs pay nothing for the spans.
#pragma once

#include <optional>

#include "util/timer.hpp"

namespace perfbench {

class Span {
 public:
  explicit Span(double* sink) : sink_(sink) {
    if (sink_ != nullptr) timer_.emplace();
  }
  ~Span() {
    if (sink_ != nullptr) *sink_ += timer_->seconds();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* sink_;
  std::optional<cl::util::Timer> timer_;
};

}  // namespace perfbench
