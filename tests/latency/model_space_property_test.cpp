/// Property sweep of the latency/memory objectives over the entire
/// 288-point architecture space (one input combination): the structural
/// invariants Pareto analysis relies on must hold at every lattice point.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "dcnas/graph/serialize.hpp"
#include "dcnas/latency/predictor.hpp"
#include "dcnas/latency/simulator.hpp"
#include "dcnas/nas/search_space.hpp"

namespace dcnas::latency {
namespace {

struct SpaceData {
  std::vector<nas::TrialConfig> configs;
  std::vector<double> predicted;  ///< mean over 4 predictors
  std::vector<double> simulated;  ///< mean over 4 device simulators
  std::vector<double> memory_mb;
};

const SpaceData& space_data() {
  static const SpaceData data = [] {
    SpaceData d;
    nas::SearchSpaceSpec combo = nas::SearchSpaceSpec::paper();
    combo.channels = {7};
    combo.batches = {16};
    d.configs = combo.enumerate();
    const NnMeter& meter = NnMeter::shared();
    for (const auto& cfg : d.configs) {
      const auto g = graph::build_resnet_graph(cfg.to_resnet_config());
      const auto kernels = graph::fuse_graph(g);
      d.predicted.push_back(meter.predict_kernels(kernels).mean_ms);
      double sim = 0.0;
      for (const auto& dev : edge_device_zoo()) {
        sim += simulate_model_ms(dev, kernels);
      }
      d.simulated.push_back(sim / 4.0);
      d.memory_mb.push_back(graph::model_memory_mb(g));
    }
    return d;
  }();
  return data;
}

TEST(ModelSpaceProperty, AllPredictionsFiniteAndPositive) {
  const auto& d = space_data();
  ASSERT_EQ(d.configs.size(), 288u);
  for (std::size_t i = 0; i < d.configs.size(); ++i) {
    ASSERT_TRUE(std::isfinite(d.predicted[i])) << d.configs[i].to_string();
    ASSERT_GT(d.predicted[i], 1.0) << d.configs[i].to_string();
    ASSERT_LT(d.predicted[i], 2000.0) << d.configs[i].to_string();
  }
}

TEST(ModelSpaceProperty, PredictionTracksSimulationAcrossTheSpace) {
  // Model-level prediction within ±35% of simulated truth for every
  // architecture — predictions are extrapolating for the largest configs.
  const auto& d = space_data();
  double worst = 0.0;
  for (std::size_t i = 0; i < d.configs.size(); ++i) {
    const double rel = std::abs(d.predicted[i] - d.simulated[i]) / d.simulated[i];
    worst = std::max(worst, rel);
    ASSERT_LT(rel, 0.35) << d.configs[i].to_string();
  }
  // And the typical error is much tighter.
  double total = 0.0;
  for (std::size_t i = 0; i < d.configs.size(); ++i) {
    total += std::abs(d.predicted[i] - d.simulated[i]) / d.simulated[i];
  }
  EXPECT_LT(total / static_cast<double>(d.configs.size()), 0.12);
}

TEST(ModelSpaceProperty, WidthMonotoneInBothObjectives) {
  // Fixing everything but width: w32 < w48 < w64 in simulated latency and
  // memory (more filters can never be free).
  const auto& d = space_data();
  std::map<std::string, std::map<int, std::size_t>> groups;
  for (std::size_t i = 0; i < d.configs.size(); ++i) {
    const auto& c = d.configs[i];
    std::string key = std::to_string(c.kernel_size) + "/" +
                      std::to_string(c.stride) + "/" +
                      std::to_string(c.padding) + "/" +
                      std::to_string(c.pool_choice) + "/" +
                      std::to_string(c.kernel_size_pool) + "/" +
                      std::to_string(c.stride_pool);
    groups[key][c.initial_output_feature] = i;
  }
  for (const auto& [key, by_width] : groups) {
    ASSERT_EQ(by_width.size(), 3u) << key;
    EXPECT_LT(d.simulated[by_width.at(32)], d.simulated[by_width.at(48)]) << key;
    EXPECT_LT(d.simulated[by_width.at(48)], d.simulated[by_width.at(64)]) << key;
    EXPECT_LT(d.memory_mb[by_width.at(32)], d.memory_mb[by_width.at(48)]) << key;
    EXPECT_LT(d.memory_mb[by_width.at(48)], d.memory_mb[by_width.at(64)]) << key;
  }
}

TEST(ModelSpaceProperty, StridedPoolingNeverSlower) {
  // pool stride 2 strictly reduces downstream work vs stride 1, all else
  // equal (both pooled).
  const auto& d = space_data();
  std::map<std::string, std::map<int, std::size_t>> groups;
  for (std::size_t i = 0; i < d.configs.size(); ++i) {
    const auto& c = d.configs[i];
    if (!c.with_pool()) continue;
    std::string key = std::to_string(c.kernel_size) + "/" +
                      std::to_string(c.stride) + "/" +
                      std::to_string(c.padding) + "/" +
                      std::to_string(c.kernel_size_pool) + "/" +
                      std::to_string(c.initial_output_feature);
    groups[key][c.stride_pool] = i;
  }
  for (const auto& [key, by_stride] : groups) {
    ASSERT_EQ(by_stride.size(), 2u) << key;
    EXPECT_LT(d.simulated[by_stride.at(2)], d.simulated[by_stride.at(1)])
        << key;
  }
}

TEST(ModelSpaceProperty, NoPoolDuplicatesShareObjectives) {
  // Lattice points that canonicalize to the same architecture must have
  // identical latency and memory (only accuracy noise distinguishes them).
  const auto& d = space_data();
  std::map<std::string, std::size_t> first_seen;
  int duplicates = 0;
  for (std::size_t i = 0; i < d.configs.size(); ++i) {
    const std::string key = d.configs[i].canonical_arch_key();
    const auto [it, inserted] = first_seen.emplace(key, i);
    if (!inserted) {
      ++duplicates;
      EXPECT_DOUBLE_EQ(d.predicted[i], d.predicted[it->second]) << key;
      EXPECT_DOUBLE_EQ(d.memory_mb[i], d.memory_mb[it->second]) << key;
    }
  }
  EXPECT_EQ(duplicates, 288 - 180);  // the Fig. 2 dedup arithmetic
}

TEST(ModelSpaceProperty, MemoryDependsOnlyOnArchitectureNotPool) {
  // Pooling layers are parameter-free: memory within a (width, kernel)
  // class is constant.
  const auto& d = space_data();
  std::map<std::string, double> by_class;
  for (std::size_t i = 0; i < d.configs.size(); ++i) {
    const auto& c = d.configs[i];
    const std::string key = std::to_string(c.initial_output_feature) + "/" +
                            std::to_string(c.kernel_size);
    const auto [it, inserted] = by_class.emplace(key, d.memory_mb[i]);
    if (!inserted) {
      // Structure bytes differ by at most the pool node record (~60 B).
      EXPECT_NEAR(d.memory_mb[i], it->second, 1e-4) << key;
    }
  }
  EXPECT_EQ(by_class.size(), 6u);  // 3 widths x 2 kernels
}

}  // namespace
}  // namespace dcnas::latency
