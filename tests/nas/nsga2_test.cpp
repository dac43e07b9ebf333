#include "dcnas/nas/nsga2.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dcnas/common/stats.hpp"
#include "dcnas/common/strings.hpp"

namespace dcnas::nas {
namespace {

/// Cheap synthetic evaluator: oracle accuracy (noise-free-ish) plus
/// analytic latency/memory stand-ins so the test needs no NnMeter.
TrialRecord cheap_eval(const TrialConfig& c) {
  static const AccuracyOracle oracle{OracleOptions{}};
  TrialRecord r;
  r.config = c;
  r.fold_accuracies = oracle.fold_accuracies(c);
  r.accuracy = mean(r.fold_accuracies);
  // Latency proxy: proportional to width^2 and stem resolution.
  const double width = static_cast<double>(c.initial_output_feature);
  const double d = static_cast<double>(c.stem_downsample());
  r.latency_ms = width * width / 128.0 * (16.0 / (d * d)) + 2.0;
  r.lat_std = r.latency_ms * 0.6;
  r.memory_mb = width * width / 92.0;
  return r;
}

Nsga2Options quick_options() {
  Nsga2Options opt;
  opt.population_size = 16;
  opt.generations = 8;
  opt.seed = 5;
  return opt;
}

TEST(Nsga2Test, RunProducesValidFront) {
  Nsga2 search(cheap_eval, quick_options());
  const Nsga2Result result = search.run();
  EXPECT_GT(result.unique_evaluations, 16u);
  EXPECT_LE(result.unique_evaluations,
            16u + 16u * 8u);  // at most pop + offspring evals
  ASSERT_FALSE(result.front.empty());
  // Front members really are non-dominated within the evaluated set.
  std::vector<pareto::Objectives> pts;
  for (const auto& r : result.evaluated.records()) {
    pts.push_back({r.accuracy, r.latency_ms, r.memory_mb});
  }
  for (std::size_t i : result.front) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      EXPECT_FALSE(
          pareto::dominates(pts[j], pts[i], pareto::DominanceMode::kWeak));
    }
  }
}

TEST(Nsga2Test, CachingPreventsDuplicateEvaluations) {
  int calls = 0;
  auto counting_eval = [&calls](const TrialConfig& c) {
    ++calls;
    return cheap_eval(c);
  };
  Nsga2 search(counting_eval, quick_options());
  const Nsga2Result result = search.run();
  EXPECT_EQ(static_cast<std::size_t>(calls), result.unique_evaluations);
  // Sanity: the cache actually deduplicated something (evolution revisits).
  EXPECT_LT(result.unique_evaluations, 16u + 16u * 8u);
  // All evaluated lattice keys unique.
  std::set<std::string> keys;
  for (const auto& r : result.evaluated.records()) {
    EXPECT_TRUE(keys.insert(r.config.lattice_key()).second);
  }
}

TEST(Nsga2Test, HypervolumeTrendsUpward) {
  Nsga2Options opt = quick_options();
  opt.generations = 10;
  Nsga2 search(cheap_eval, opt);
  const Nsga2Result result = search.run();
  ASSERT_EQ(result.hypervolume_history.size(), 10u);
  // Non-strict monotonicity is not guaranteed per-generation (the metric
  // tracks the *population* front), but the final value must beat the
  // first and be positive.
  EXPECT_GT(result.hypervolume_history.back(), 0.0);
  EXPECT_GE(result.hypervolume_history.back(),
            result.hypervolume_history.front());
}

TEST(Nsga2Test, FindsTheAccurateCheapCorner) {
  // With the proxy objectives, w32/high-downsample configs dominate: the
  // final front should be mostly width 32.
  Nsga2Options opt = quick_options();
  opt.generations = 12;
  Nsga2 search(cheap_eval, opt);
  const Nsga2Result result = search.run();
  int w32 = 0;
  for (std::size_t i : result.front) {
    w32 += result.evaluated.record(i).config.initial_output_feature == 32;
  }
  EXPECT_GT(2 * w32, static_cast<int>(result.front.size()));
}

TEST(Nsga2Test, DeterministicPerSeed) {
  Nsga2 a(cheap_eval, quick_options());
  Nsga2 b(cheap_eval, quick_options());
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.unique_evaluations, rb.unique_evaluations);
  EXPECT_EQ(ra.front, rb.front);
  EXPECT_EQ(ra.hypervolume_history, rb.hypervolume_history);
}

/// FNV-1a of the evaluated lattice-key sequence. Two runs of one build
/// agreeing (DeterministicPerSeed) cannot show a changed RNG draw order;
/// these literal values can.
std::uint64_t evaluated_key_hash(const Nsga2Options& opt) {
  Nsga2 search(cheap_eval, opt);
  const Nsga2Result result = search.run();
  std::string keys;
  for (const auto& r : result.evaluated.records()) {
    keys += r.config.lattice_key() + '\n';
  }
  return fnv1a64(keys);
}

TEST(Nsga2Test, EvaluatedKeySequenceIsPinnedPerSetting) {
  Nsga2Options opt = quick_options();
  EXPECT_EQ(evaluated_key_hash(opt), 0x49bcf3f1f5bd810fULL);
  opt.search_input_combos = false;
  EXPECT_EQ(evaluated_key_hash(opt), 0xccd7510e12aa7326ULL);
  opt = quick_options();
  opt.search_precision = true;
  EXPECT_EQ(evaluated_key_hash(opt), 0xf8dd09b277ee3a63ULL);
}

TEST(Nsga2Test, CrossoverStaysInLattice) {
  Nsga2 search(cheap_eval, quick_options());
  Rng rng(3);
  const TrialConfig a = TrialConfig::baseline(5, 8);
  TrialConfig b = TrialConfig::baseline(7, 32);
  b.kernel_size = 3;
  b.padding = 1;
  b.initial_output_feature = 32;
  for (int i = 0; i < 100; ++i) {
    const TrialConfig child = search.crossover(a, b, rng);
    EXPECT_NO_THROW(child.validate());
    // Every dimension comes from one of the parents.
    EXPECT_TRUE(child.kernel_size == a.kernel_size ||
                child.kernel_size == b.kernel_size);
    EXPECT_TRUE(child.channels == a.channels || child.channels == b.channels);
  }
}

TEST(Nsga2Test, MutationChangesOneDimension) {
  Nsga2Options opt = quick_options();
  opt.search_input_combos = false;
  Nsga2 search(cheap_eval, opt);
  Rng rng(4);
  const TrialConfig parent = TrialConfig::baseline(5, 8);
  for (int i = 0; i < 50; ++i) {
    const TrialConfig child = search.mutate(parent, rng);
    EXPECT_EQ(child.channels, parent.channels);  // input combo frozen
    EXPECT_EQ(child.batch, parent.batch);
    EXPECT_NE(child.lattice_key(), parent.lattice_key());
  }
}

TEST(Nsga2Test, RejectsBadOptions) {
  Nsga2Options opt;
  opt.population_size = 2;
  EXPECT_THROW(Nsga2(cheap_eval, opt), InvalidArgument);
  opt = Nsga2Options{};
  opt.generations = 0;
  EXPECT_THROW(Nsga2(cheap_eval, opt), InvalidArgument);
  opt = Nsga2Options{};
  opt.crossover_rate = 1.5;
  EXPECT_THROW(Nsga2(cheap_eval, opt), InvalidArgument);
}

TEST(Nsga2SchedulerTest, BatchEvaluationMatchesSerialExactly) {
  OracleEvaluator eval;
  const Experiment experiment(eval, latency::NnMeter::shared());
  Nsga2Options opt;
  opt.population_size = 12;
  opt.generations = 4;
  opt.seed = 9;

  Nsga2 serial(experiment, opt);
  const Nsga2Result serial_result = serial.run();

  SchedulerOptions sopt;
  sopt.threads = 4;
  TrialScheduler scheduler(experiment, sopt);
  Nsga2 batched(experiment, scheduler, opt);
  const Nsga2Result batch_result = batched.run();

  // Same unique trials, same database order, same front, same trajectory.
  EXPECT_EQ(batch_result.unique_evaluations, serial_result.unique_evaluations);
  EXPECT_EQ(batch_result.evaluated.to_csv().to_string(),
            serial_result.evaluated.to_csv().to_string());
  EXPECT_EQ(batch_result.front, serial_result.front);
  EXPECT_EQ(batch_result.hypervolume_history,
            serial_result.hypervolume_history);
}

TEST(Nsga2SchedulerTest, RefusesPruningScheduler) {
  OracleEvaluator eval;
  const Experiment experiment(eval, latency::NnMeter::shared());
  SchedulerOptions sopt;
  sopt.pruner.enabled = true;
  TrialScheduler scheduler(experiment, sopt);
  EXPECT_THROW(Nsga2(experiment, scheduler, quick_options()), InvalidArgument);
}

}  // namespace
}  // namespace dcnas::nas
