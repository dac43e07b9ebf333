#pragma once
/// \file trace.hpp
/// \brief Spans recorded by the benchmark around its calls into each layer.
///
/// A traced run records one span per layer call (name, start, duration,
/// the request or operation it belongs to, and its parent span), keeps them
/// in memory, and writes them out at the end as a Chrome trace through the
/// library's obs exporter. An untraced run records nothing: every record()
/// is one branch on a flag.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct BenchSpan {
  std::string name;      ///< "<layer>.<call>", e.g. "plan.step"
  double start_us = 0.0; ///< from the log's origin
  double dur_us = 0.0;
  std::uint64_t op = 0;  ///< request/operation id shared by its spans
  int parent = -1;       ///< index of the enclosing span, -1 for roots
  std::string args;      ///< "key=value,..." for the exported event
};

class SpanLog {
 public:
  /// Spans kept before further ones are only counted (bounds memory).
  static constexpr std::size_t kMaxSpans = 400000;

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its index (-1 when disabled or full).
  /// Thread-safe.
  int record(std::string name, Clock::time_point start, Clock::time_point end,
             std::uint64_t op = 0, int parent = -1, std::string args = {});

  /// Spans named \p name, in record order (copies; call after the run).
  std::vector<BenchSpan> named(const std::string& name) const;
  /// Durations (ms) of spans named \p name, in record order.
  std::vector<double> durations_ms(const std::string& name) const;

  std::size_t size() const;
  std::size_t dropped() const;

  /// Writes every span as a Chrome trace (obs::write_chrome_trace).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;  // guarded by mu_
  std::size_t dropped_ = 0;       // guarded by mu_
};

}  // namespace perfbench
