#include <gtest/gtest.h>

#include <set>

#include "dcnas/common/stats.hpp"
#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/nsga2.hpp"
#include "dcnas/nas/oracle.hpp"
#include "dcnas/nas/search_space.hpp"

namespace dcnas::nas {
namespace {

TrialConfig int8_twin(TrialConfig c) {
  c.precision = 1;
  return c;
}

TEST(PrecisionAxisTest, ConfigValidatesAndKeysDistinguishPrecision) {
  TrialConfig fp32 = TrialConfig::baseline(7, 16);
  const TrialConfig int8 = int8_twin(fp32);
  int8.validate();
  EXPECT_TRUE(int8.int8());
  // The architecture is shared; only the lattice key (the trial-cache key)
  // gains the "_q8" suffix.
  EXPECT_EQ(fp32.canonical_arch_key(), int8.canonical_arch_key());
  EXPECT_EQ(int8.lattice_key(), fp32.lattice_key() + "_q8");
  // encode() is precision-free by design: the oracle's noise draws are
  // shared between the twins.
  EXPECT_EQ(fp32.encode(), int8.encode());
  TrialConfig bad = fp32;
  bad.precision = 3;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(PrecisionAxisTest, OracleDropIsDeterministicAndWithinOnePercent) {
  const AccuracyOracle oracle{OracleOptions{}};
  SearchSpaceSpec space = SearchSpaceSpec::paper();
  space.channels = {7};
  space.batches = {16};
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const TrialConfig fp32 = space.sample(rng);
    const TrialConfig int8 = int8_twin(fp32);
    EXPECT_EQ(oracle.quantization_drop(fp32), 0.0);
    const double drop = oracle.quantization_drop(int8);
    EXPECT_GE(drop, 0.15);
    EXPECT_LE(drop, 0.70);  // well inside QUANTIZATION.md's <= 1% bound
    EXPECT_EQ(oracle.quantization_drop(int8), drop);  // deterministic
    EXPECT_DOUBLE_EQ(oracle.expected_accuracy(int8),
                     oracle.expected_accuracy(fp32) - drop);
  }
}

TEST(PrecisionAxisTest, TwinsShareNoiseSoFoldGapEqualsTheDrop) {
  const AccuracyOracle oracle{OracleOptions{}};
  const TrialConfig fp32 = TrialConfig::baseline(5, 16);
  const TrialConfig int8 = int8_twin(fp32);
  const double drop = oracle.quantization_drop(int8);
  for (int fold = 0; fold < 5; ++fold) {
    const double a = oracle.fold_accuracy(fp32, fold);
    const double b = oracle.fold_accuracy(int8, fold);
    if (a >= 99.5 || a <= 50.0) continue;  // clamped folds break the identity
    EXPECT_NEAR(a - b, drop, 1e-9) << "fold " << fold;
  }
}

TEST(PrecisionAxisTest, CsvRoundTripPreservesPrecision) {
  TrialDatabase db;
  TrialRecord r;
  r.config = int8_twin(TrialConfig::baseline(7, 16));
  r.accuracy = 94.5;
  r.latency_ms = 20.0;
  r.lat_std = 5.0;
  r.memory_mb = 11.2;
  r.fold_accuracies = {94.0, 95.0};
  db.add(r);
  const TrialDatabase restored = TrialDatabase::from_csv(db.to_csv());
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.record(0).config.precision, 1);
}

TEST(PrecisionAxisTest, LegacyCsvWithoutPrecisionColumnLoadsAsFp32) {
  // Journals written before the precision axis have 14 columns.
  CsvTable legacy({"channels", "batch", "accuracy", "latency_ms", "lat_std",
                   "memory_mb", "kernel_size", "stride", "padding",
                   "pool_choice", "kernel_size_pool", "stride_pool",
                   "initial_output_feature", "fold_accuracies"});
  legacy.add_row({"7", "16", "94.5", "20.0", "5.0", "11.2", "3", "2", "1",
                  "0", "3", "2", "32", "94.0;95.0"});
  const TrialDatabase db = TrialDatabase::from_csv(legacy);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.record(0).config.precision, 0);
}

TEST(PrecisionAxisTest, Int8TrialWinsLatencyAndMemoryCostsAccuracy) {
  OracleEvaluator eval;
  const Experiment exp(eval, latency::NnMeter::shared());
  TrialConfig fp32 = TrialConfig::baseline(7, 16);
  fp32.initial_output_feature = 32;
  fp32.kernel_size = 3;
  fp32.padding = 1;
  const TrialRecord a = exp.run_trial(fp32);
  const TrialRecord b = exp.run_trial(int8_twin(fp32));
  // Hardware objectives: ~4x smaller conv weights, int8 conv roofs.
  EXPECT_LT(b.memory_mb, a.memory_mb * 0.4);
  EXPECT_LT(b.latency_ms, a.latency_ms);
  // Accuracy: the twin pays the quantization drop and nothing else.
  const double gap = a.accuracy - b.accuracy;
  EXPECT_GT(gap, 0.0);
  EXPECT_LE(gap, 1.0);
}

/// Synthetic evaluator with the same cost structure the Experiment
/// produces, but cheap enough for a whole NSGA-II run: int8 trials shed
/// latency and memory and pay the oracle's accuracy drop.
TrialRecord cheap_precision_eval(const TrialConfig& c) {
  static const AccuracyOracle oracle{OracleOptions{}};
  TrialRecord r;
  r.config = c;
  r.fold_accuracies = oracle.fold_accuracies(c);
  r.accuracy = mean(r.fold_accuracies);
  const double width = static_cast<double>(c.initial_output_feature);
  const double d = static_cast<double>(c.stem_downsample());
  r.latency_ms = width * width / 128.0 * (16.0 / (d * d)) + 2.0;
  r.memory_mb = width * width / 92.0;
  if (c.int8()) {
    r.latency_ms = r.latency_ms * 0.55 + 0.9;  // int8 roofs, no Winograd
    r.memory_mb /= 3.6;                        // 1-byte weights + scales
  }
  r.lat_std = r.latency_ms * 0.6;
  return r;
}

TEST(PrecisionAxisTest, SearchFindsInt8ParetoPointWithinOnePercentOfTwin) {
  Nsga2Options opt;
  opt.population_size = 16;
  opt.generations = 8;
  opt.seed = 5;
  opt.search_precision = true;
  Nsga2 search(cheap_precision_eval, opt);
  const Nsga2Result result = search.run();
  ASSERT_FALSE(result.front.empty());
  const AccuracyOracle oracle{OracleOptions{}};
  int int8_on_front = 0;
  for (const std::size_t i : result.front) {
    const TrialRecord& r = result.evaluated.record(i);
    if (!r.config.int8()) continue;
    ++int8_on_front;
    // The drop vs the fp32 twin stays within the paper-grade 1% budget.
    TrialConfig twin = r.config;
    twin.precision = 0;
    const double twin_acc = mean(oracle.fold_accuracies(twin));
    EXPECT_LE(twin_acc - r.accuracy, 1.0) << r.config.to_string();
  }
  // The int8 side dominates on latency/memory, so the front must keep at
  // least one quantized point.
  EXPECT_GE(int8_on_front, 1);
}

TEST(PrecisionAxisTest, DefaultSearchIsBitIdenticalToPrePrecisionRuns) {
  // search_precision defaults off: the RNG stream, the evaluated set, and
  // the front must be exactly what the fp32-only search always produced.
  Nsga2Options opt;
  opt.population_size = 16;
  opt.generations = 4;
  opt.seed = 9;
  Nsga2 a(cheap_precision_eval, opt);
  Nsga2 b(cheap_precision_eval, opt);
  const Nsga2Result ra = a.run();
  const Nsga2Result rb = b.run();
  ASSERT_EQ(ra.unique_evaluations, rb.unique_evaluations);
  for (std::size_t i = 0; i < ra.evaluated.size(); ++i) {
    EXPECT_EQ(ra.evaluated.record(i).config.lattice_key(),
              rb.evaluated.record(i).config.lattice_key());
    EXPECT_EQ(ra.evaluated.record(i).config.precision, 0);
  }
}

}  // namespace
}  // namespace dcnas::nas
