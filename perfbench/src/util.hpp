#pragma once
/// \file util.hpp
/// \brief Shared pieces of the benchmark: clocks, percentile summaries,
/// the metric tables every run reports, and the final result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Median (the mean of the two middle values for an even count).
double median(std::vector<double> values);

/// A timing summary: the median, plus the highest percentile of
/// {99.9, 99, 95, 90, 75} that has at least ten samples beyond it
/// (tail_q == 0 when even the 75th has fewer), plus the sample count.
struct Percentiles {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
  std::string tail_label() const;  ///< "p99", "p95", ... or "-"
};
Percentiles percentiles(std::vector<double> values);

/// The percentile \p q of \p values when at least ten samples lie beyond
/// it; otherwise the highest percentile that qualifies (the summary's
/// tail), so a named ".p99" never reads a value fewer samples support.
double percentile_or_tail(std::vector<double> values, double q);

/// Peak resident set size of this process (VmHWM), MiB.
double rss_peak_mb();

/// Name and unit of every metric the benchmark can report, in print order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// True when \p name is a legal metric name: [A-Za-z0-9_.-]+, starting
/// with a letter or digit, at most 64 characters.
bool valid_metric_name(const std::string& name);

/// What one workload run produced.
struct RunResult {
  std::map<std::string, double> end_to_end;  ///< names from end_to_end_metrics
  std::map<std::string, double> per_layer;   ///< names from per_layer_metrics
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;   ///< empty when outputs are right
  /// Human-readable lines (the workload's own named metrics, percentile
  /// labels and sample counts), printed before the result line.
  std::vector<std::string> report;

  void fail(const std::string& what) { check_failures.push_back(what); }
  void note(const std::string& line) { report.push_back(line); }
};

/// Formats the final JSON result line. With \p traced false every
/// end-to-end metric is emitted, with true every per-layer metric (layers
/// the workload bypasses read 0). Throws when an end-to-end metric is
/// missing or a name is not in the tables.
std::string result_json(const RunResult& result, bool traced);

}  // namespace perfbench
