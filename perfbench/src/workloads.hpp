#pragma once
/// \file workloads.hpp
/// \brief The four benchmark workloads. Each sets itself up several times
/// (setup_s is the median), measures for the requested seconds, checks
/// every output it can against a reference, and fills a RunResult.
///
/// In a traced run the measured phase runs twice, untraced then traced,
/// so trace.overhead_pct compares the two; the traced half records spans
/// around every layer call and adds the per-layer probes.

#include <cstdint>
#include <functional>
#include <string>

#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Scratch directory (sockets, stores, traces): the working directory.
  std::string work_dir;
};

RunResult run_wire_interactive(const Options& options, SpanLog& spans);
RunResult run_watershed_batch(const Options& options, SpanLog& spans);
RunResult run_nas_sweep(const Options& options, SpanLog& spans);
RunResult run_nas_train(const Options& options, SpanLog& spans);

/// Runs \p setup \p reps times and returns the median wall time (s). The
/// last repetition's state is what the workload then measures.
double timed_setups(int reps, const std::function<void()>& setup);

/// A seed for one purpose within a run (schedules, tiles, offsets).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose);

/// "label: value unit" line with the value at full precision.
std::string line(const std::string& label, double value,
                 const std::string& unit);

}  // namespace perfbench
