#include "util.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Nearest-rank quantile of an ascending-sorted sample (q in [0, 1]).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // Nearest rank: the smallest value with at least q·n samples at or below
  // it. The epsilon keeps 0.99·1000 from rounding up to rank 991.
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

constexpr double kTailLadder[] = {0.999, 0.99, 0.95, 0.90, 0.75};

/// Samples strictly beyond the nearest-rank q-th percentile.
std::size_t beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(rank, n);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Percentiles::tail_label() const {
  if (tail_q <= 0.0) return "-";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", tail_q * 100.0);
  return buf;
}

Percentiles percentiles(std::vector<double> values) {
  Percentiles p;
  p.count = values.size();
  p.p50 = median(values);
  std::sort(values.begin(), values.end());
  for (const double q : kTailLadder) {
    if (beyond(values.size(), q) >= 10) {
      p.tail_q = q;
      p.tail = quantile_sorted(values, q);
      break;
    }
  }
  return p;
}

double percentile_or_tail(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  if (beyond(values.size(), q) >= 10) return quantile_sorted(values, q);
  const Percentiles p = percentiles(std::move(values));
  return p.tail_q > 0.0 ? p.tail : p.p50;
}

double rss_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  // Shared by every workload; workloads.json states what each means there,
  // e.g. throughput_per_s is answered img/s at the overload rate on
  // wire_interactive and trials/s on nas_sweep.
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"rss_peak_mb", "MiB"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"plan.run_ms_per_img.b1", "ms"},
        {"plan.run_ms_per_img.bmax", "ms"},
    };
    static const char* const kStageMetrics[] = {
        "plan.stage.stem.us_per_img.b1", "plan.stage.stem.us_per_img.bmax",
        "plan.stage.s1.us_per_img.b1",   "plan.stage.s1.us_per_img.bmax",
        "plan.stage.s2.us_per_img.b1",   "plan.stage.s2.us_per_img.bmax",
        "plan.stage.s3.us_per_img.b1",   "plan.stage.s3.us_per_img.bmax",
        "plan.stage.s4.us_per_img.b1",   "plan.stage.s4.us_per_img.bmax",
        "plan.stage.head.us_per_img.b1", "plan.stage.head.us_per_img.bmax",
    };
    for (const char* name : kStageMetrics) s.push_back({name, "us"});
    const std::vector<MetricSpec> rest = {
        {"plan.conv_gflops.b1", "GFLOP/s"},
        {"plan.conv_gflops.bmax", "GFLOP/s"},
        {"plan.step_sum_ratio", "ratio"},
        {"plan.exec.allocs", "count"},
        {"tensor.gemm_gflops.s4.n1", "GFLOP/s"},
        {"tensor.gemm_gflops.s4.n16", "GFLOP/s"},
        {"serve.batch.mean_size", "img"},
        {"serve.batch.fill", "ratio"},
        {"serve.submit_ms.p50", "ms"},
        {"serve.submit_ms.p99", "ms"},
        {"serve.wait_ms.p50", "ms"},
        {"serve.refused.shutdown", "count"},
        {"serve.refused.queue_full", "count"},
        {"serve.refused.shed_overload", "count"},
        {"serve.refused.deadline_expired", "count"},
        {"serve.registry.load_s", "s"},
        {"wire.overhead_ms.p50", "ms"},
        {"wire.overhead_ms.p99", "ms"},
        {"wire.gen_late_ms.p99", "ms"},
        {"nas.run_trial_us.p50", "us"},
        {"latency.predict_us.p50", "us"},
        {"nas.store.append_us.p50", "us"},
        {"nas.store.append_us.p99", "us"},
        {"nas.store.assemble_s", "s"},
        {"pareto.front_s", "s"},
        {"pareto.front_size", "count"},
        {"latency.train_predictor_s", "s"},
        {"nn.fit.samples_per_s.b8", "1/s"},
        {"nn.fit.samples_per_s.b16", "1/s"},
        {"nn.fit.samples_per_s.b32", "1/s"},
        {"nas.train.fold_s", "s"},
        {"geodata.build_dataset_s", "s"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {

std::string number(double v) {
  // A percentile that lands on a missed request is +inf; JSON has no
  // infinity, so it reads as 1e9 — a regression no bound can absorb.
  if (!std::isfinite(v)) v = 1e9;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values,
                         bool all_required) {
  for (const auto& [name, value] : values) {
    const bool known =
        std::any_of(specs.begin(), specs.end(),
                    [&](const MetricSpec& s) { return name == s.name; });
    if (!known) throw std::logic_error("unlisted metric: " + name);
  }
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    if (it == values.end() && all_required) {
      throw std::logic_error(std::string("metric not measured: ") +
                             specs[i].name);
    }
    const double v = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
           number(v) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

std::string result_json(const RunResult& result, bool traced) {
  const std::string metrics =
      traced ? metrics_json(per_layer_metrics(), result.per_layer, false)
             : metrics_json(end_to_end_metrics(), result.end_to_end, true);
  return "{\"correct\": " +
         std::string(result.check_failures.empty() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + metrics + "}";
}

}  // namespace perfbench
