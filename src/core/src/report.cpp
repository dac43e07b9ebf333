#include "dcnas/core/report.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "dcnas/common/stats.hpp"
#include "dcnas/common/strings.hpp"
#include "dcnas/geodata/region.hpp"
#include "dcnas/graph/serialize.hpp"
#include "dcnas/nn/resnet.hpp"

namespace dcnas::core {

namespace {

std::string rule(std::size_t width) { return std::string(width, '-') + "\n"; }

std::string cell(const std::string& s, std::size_t w) {
  return pad(s, w, /*right=*/true) + "  ";
}

}  // namespace

std::string table1_text() {
  std::ostringstream os;
  os << "Table 1: Data Sources and Study Regions (synthetic reproduction)\n";
  os << rule(100);
  os << cell("Location", 14) << cell("DEM source", 40) << cell("DEM res", 8)
     << cell("True", 6) << cell("False", 6) << cell("Total", 6) << "\n";
  os << rule(100);
  for (const auto& r : geodata::region_catalog()) {
    os << cell(r.name, 14) << cell(r.dem_source, 40)
       << cell(format_fixed(r.dem_resolution_m, 2) + "m", 8)
       << cell(std::to_string(r.true_samples), 6)
       << cell(std::to_string(r.false_samples), 6)
       << cell(std::to_string(r.total_samples()), 6) << "\n";
  }
  os << rule(100);
  os << "Total samples: " << geodata::catalog_total_samples()
     << "  |  Aerial orthophoto source: "
     << geodata::region_catalog().front().ortho_source << "\n";
  return os.str();
}

std::string table2_text(const latency::NnMeter& meter, int samples_per_kind,
                        std::uint64_t seed) {
  std::ostringstream os;
  os << "Table 2: Hardware Performance Comparison of nn-Meter Predictors\n";
  os << rule(86);
  os << cell("Hardware name", 14) << cell("Device", 20) << cell("Framework", 16)
     << cell("Processor", 16) << cell("+/-10% Acc", 10) << "\n";
  os << rule(86);
  for (const auto& p : meter.predictors()) {
    const auto acc = p.evaluate_kernel_level(samples_per_kind, seed);
    os << cell(p.device().name, 14) << cell(p.device().device_label, 20)
       << cell(p.device().framework, 16) << cell(p.device().processor, 16)
       << cell(format_fixed(100.0 * acc.hit_rate_10pct, 2) + "%", 10) << "\n";
  }
  os << rule(86);
  os << "(paper: 99.00% / 99.10% / 99.00% / 83.40%)\n";
  return os.str();
}

std::string table3_text(const SweepResult& sweep) {
  std::vector<double> acc, lat, mem;
  for (const auto& o : sweep.objectives) {
    acc.push_back(o.accuracy);
    lat.push_back(o.latency_ms);
    mem.push_back(o.memory_mb);
  }
  const auto sa = summarize(acc);
  const auto sl = summarize(lat);
  const auto sm = summarize(mem);
  std::ostringstream os;
  os << "Table 3: The objective value ranges (" << sweep.trials.size()
     << " trials)\n";
  os << rule(72);
  os << cell("", 5) << cell("Inference Accuracy", 20)
     << cell("Inference Latency", 20) << cell("Memory Usage", 14) << "\n";
  os << rule(72);
  os << cell("Min", 5) << cell(format_fixed(sa.min, 2) + " %", 20)
     << cell(format_fixed(sl.min, 2) + " ms", 20)
     << cell(format_fixed(sm.min, 2) + " MB", 14) << "\n";
  os << cell("Max", 5) << cell(format_fixed(sa.max, 2) + " %", 20)
     << cell(format_fixed(sl.max, 2) + " ms", 20)
     << cell(format_fixed(sm.max, 2) + " MB", 14) << "\n";
  os << rule(72);
  os << "(paper: accuracy 76.19-96.13 %, latency 8.13-249.56 ms, memory "
        "11.18-44.69 MB)\n";
  return os.str();
}

namespace {

std::string trial_row(const nas::TrialRecord& r) {
  std::ostringstream os;
  os << cell(std::to_string(r.config.channels), 8)
     << cell(std::to_string(r.config.batch), 5)
     << cell(format_fixed(r.accuracy, 2), 8)
     << cell(format_fixed(r.latency_ms, 2), 8)
     << cell(format_fixed(r.lat_std, 2), 7)
     << cell(format_fixed(r.memory_mb, 2), 7)
     << cell(std::to_string(r.config.kernel_size), 11)
     << cell(std::to_string(r.config.stride), 6)
     << cell(std::to_string(r.config.padding), 7)
     << cell(std::to_string(r.config.pool_choice), 11)
     << cell(std::to_string(r.config.kernel_size_pool), 16)
     << cell(std::to_string(r.config.stride_pool), 11)
     << cell(std::to_string(r.config.initial_output_feature), 22);
  return os.str();
}

std::string trial_header() {
  std::ostringstream os;
  os << cell("channels", 8) << cell("batch", 5) << cell("accuracy", 8)
     << cell("latency", 8) << cell("lat_std", 7) << cell("memory", 7)
     << cell("kernel_size", 11) << cell("stride", 6) << cell("padding", 7)
     << cell("pool_choice", 11) << cell("kernel_size_pool", 16)
     << cell("stride_pool", 11) << cell("initial_output_feature", 22);
  return os.str();
}

}  // namespace

std::string table4_text(const SweepResult& sweep) {
  std::ostringstream os;
  os << "Table 4: Pareto optimal solutions (accuracy, latency, memory) — "
     << sweep.front_indices.size() << " non-dominated of "
     << sweep.trials.size() << " trials\n";
  os << rule(150);
  os << trial_header() << "\n" << rule(150);
  // Present by descending accuracy like the paper.
  std::vector<std::size_t> order = sweep.front_indices;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sweep.trials.record(a).accuracy > sweep.trials.record(b).accuracy;
  });
  for (std::size_t i : order) {
    os << trial_row(sweep.trials.record(i)) << "\n";
  }
  os << rule(150);
  return os.str();
}

std::string table5_text(const nas::TrialDatabase& baselines) {
  std::ostringstream os;
  os << "Table 5: Evaluation on six ResNet-18 benchmark variants\n";
  os << rule(60);
  os << cell("channels", 8) << cell("batch", 5) << cell("accuracy", 8)
     << cell("latency(ms)", 11) << cell("lat_std", 8) << cell("memory(MB)", 10)
     << "\n";
  os << rule(60);
  for (const auto& r : baselines.records()) {
    os << cell(std::to_string(r.config.channels), 8)
       << cell(std::to_string(r.config.batch), 5)
       << cell(format_fixed(r.accuracy, 2), 8)
       << cell(format_fixed(r.latency_ms, 2), 11)
       << cell(format_fixed(r.lat_std, 2), 8)
       << cell(format_fixed(r.memory_mb, 2), 10) << "\n";
  }
  os << rule(60);
  return os.str();
}

std::string fig1_text() {
  std::ostringstream os;
  os << "Figure 1: ResNet-18 model architecture (5- and 7-channel inputs)\n\n";
  for (int channels : {5, 7}) {
    Rng rng(1);
    nn::ConfigurableResNet model(nn::ResNetConfig::baseline(channels), rng);
    os << model.summary(graph::kDeploymentInputSize);
    os << "  parameters: " << model.num_params() << "\n\n";
  }
  return os.str();
}

std::string fig2_text() {
  std::ostringstream os;
  os << "Figure 2: NAS search space for ResNet-18 adaptations\n";
  auto list = [&os](const std::string& name, const std::vector<int>& v) {
    os << "  " << pad(name, 26) << "{";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os << ", ";
      os << v[i];
    }
    os << "}\n";
  };
  const nas::SearchSpaceSpec paper = nas::SearchSpaceSpec::paper();
  list("input channels", paper.channels);
  list("batch size", paper.batches);
  list("conv1 kernel_size", paper.kernels);
  list("conv1 stride", paper.strides);
  list("conv1 padding", paper.paddings);
  list("pool_choice (0=pool)", paper.pool_choices);
  list("kernel_size_pool", paper.pool_kernels);
  list("stride_pool", paper.pool_strides);
  list("initial_output_feature", paper.widths);
  // One input combination's architectures; the no-pool don't-cares
  // collapse onto shared canonical keys.
  nas::SearchSpaceSpec combo = paper;
  combo.channels.resize(1);
  combo.batches.resize(1);
  std::set<std::string> unique;
  for (const auto& c : combo.enumerate()) unique.insert(c.canonical_arch_key());
  os << "  architectures per input combination: " << combo.size()
     << " lattice points (" << unique.size()
     << " unique after no-pool collapse)\n";
  os << "  full lattice: " << paper.size()
     << " trials over 6 input combinations (paper reports 1,717 valid "
        "outcomes)\n";
  return os.str();
}

std::string fig3_text(const SweepResult& sweep) {
  std::ostringstream os;
  os << "Figure 3: Pareto front analysis result (" << sweep.trials.size()
     << " trials, " << sweep.front_indices.size() << " non-dominated)\n\n";
  for (const char* proj :
       {"latency-accuracy", "memory-accuracy", "latency-memory"}) {
    os << pareto::ascii_scatter(sweep.objectives, sweep.front_indices, proj)
       << "\n";
  }
  return os.str();
}

std::vector<pareto::RadarRow> fig4_rows(const SweepResult& sweep) {
  DCNAS_CHECK(!sweep.front_indices.empty(), "empty Pareto front");
  const auto norm = pareto::normalize(sweep.objectives);
  // Axes are scaled against the paper's option ranges; wide-lattice fronts
  // (SearchSpaceSpec::wide) carry values outside them, so clamp — the radar
  // pegs at the rim rather than rejecting the sweep.
  auto norm_option = [](int value, const std::vector<int>& options) {
    const auto lo = static_cast<double>(options.front());
    const auto hi = static_cast<double>(options.back());
    const double t =
        hi > lo ? (static_cast<double>(value) - lo) / (hi - lo) : 0.5;
    return std::min(1.0, std::max(0.0, t));
  };
  const nas::SearchSpaceSpec paper = nas::SearchSpaceSpec::paper();
  std::vector<pareto::RadarRow> rows;
  for (std::size_t i : sweep.front_indices) {
    const auto& r = sweep.trials.record(i);
    pareto::RadarRow row;
    row.label = "ch=" + std::to_string(r.config.channels) +
                " batch=" + std::to_string(r.config.batch) +
                (r.config.with_pool() ? " [pool]" : " [no pool]") +
                " acc=" + format_fixed(r.accuracy, 2);
    row.axes = {
        {"accuracy", norm[i].accuracy},
        {"latency (1-norm)", 1.0 - norm[i].latency},
        {"memory (1-norm)", 1.0 - norm[i].memory},
        {"kernel_size", norm_option(r.config.kernel_size, paper.kernels)},
        {"stride", norm_option(r.config.stride, paper.strides)},
        {"padding", norm_option(r.config.padding, paper.paddings)},
        {"kernel_size_pool",
         norm_option(r.config.kernel_size_pool, paper.pool_kernels)},
        {"stride_pool", norm_option(r.config.stride_pool, paper.pool_strides)},
        {"initial_output_feature",
         norm_option(r.config.initial_output_feature, paper.widths)},
    };
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string fig4_text(const SweepResult& sweep) {
  std::ostringstream os;
  os << "Figure 4: Radar plots of the non-dominated solutions\n"
     << "(red/no-pool vs green/pool in the paper; labels carry [pool])\n\n";
  os << pareto::radar_text(fig4_rows(sweep));
  return os.str();
}

}  // namespace dcnas::core
