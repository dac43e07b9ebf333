/// dcnas_perfbench — the benchmark command run.py builds and runs.
///
///   dcnas_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
///
/// Works in the current directory (sockets, stores, traces). Each
/// workload's parameters are constants in its own file and are printed in
/// its report. Prints the workload's own named metrics with units, then
/// one JSON line:
/// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any output
/// check fails and 2 on a usage or run error.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>

#include "dcnas/common/cli.hpp"
#include "dcnas/common/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

double timed_setups(int reps, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    setup();
    seconds.push_back(s_since(t0));
  }
  return median(seconds);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  return dcnas::mix_seed(seed, purpose);
}

std::string line(const std::string& label, double value,
                 const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-34s %14.6g %s", label.c_str(), value,
                unit.c_str());
  return buf;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const dcnas::CliArgs args(argc, argv);
  Options options;
  options.workload = args.get("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.seconds = args.get_double("seconds", 10.0);
  options.traced = args.get_int("trace", 0) != 0;
  options.work_dir = std::filesystem::current_path().string();

  const std::map<std::string, RunResult (*)(const Options&, SpanLog&)>
      workloads = {
          {"wire_interactive", run_wire_interactive},
          {"watershed_batch", run_watershed_batch},
          {"nas_sweep", run_nas_sweep},
          {"nas_train", run_nas_train},
      };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end() || options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: dcnas_perfbench --workload <wire_interactive|"
                 "watershed_batch|nas_sweep|nas_train> --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  try {
    SpanLog spans(options.traced);
    RunResult result = it->second(options, spans);
    result.end_to_end["rss_peak_mb"] = rss_peak_mb();
    if (options.traced) {
      result.per_layer["trace.spans"] = static_cast<double>(spans.size());
      const std::string trace_path = options.work_dir + "/trace-" +
                                     options.workload + "-" +
                                     std::to_string(options.seed) + ".json";
      spans.write_chrome_trace(trace_path);
      result.note("  trace: " + std::to_string(spans.size()) + " spans (" +
                  std::to_string(spans.dropped()) + " dropped) -> " +
                  trace_path);
    }
    std::printf("%s seed %llu, %.1f s measured%s\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.traced ? ", traced" : "");
    for (const std::string& l : result.report) std::printf("%s\n", l.c_str());
    for (const MetricSpec& m : end_to_end_metrics()) {
      const auto v = result.end_to_end.find(m.name);
      if (v != result.end_to_end.end()) {
        std::printf("%s\n", line(m.name, v->second, m.unit).c_str());
      }
    }
    if (options.traced) {
      for (const MetricSpec& m : per_layer_metrics()) {
        const auto v = result.per_layer.find(m.name);
        if (v != result.per_layer.end()) {
          std::printf("%s\n", line(m.name, v->second, m.unit).c_str());
        }
      }
    }
    for (const std::string& f : result.check_failures) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("%s\n", result_json(result, options.traced).c_str());
    std::fflush(stdout);
    return result.check_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "dcnas_perfbench: %s\n", e.what());
    return 2;
  }
}
