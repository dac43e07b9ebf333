#include "dcnas/nas/oracle.hpp"

#include <gtest/gtest.h>

#include "dcnas/common/stats.hpp"

namespace dcnas::nas {
namespace {

AccuracyOracle noise_free() {
  OracleOptions opt;
  opt.trial_noise_sigma = 0.0;
  opt.fold_noise_sigma = 0.0;
  return AccuracyOracle(opt);
}

TEST(OracleTest, Table5AnchorsReproducedExactly) {
  const AccuracyOracle oracle = noise_free();
  const double expected[2][3] = {{92.90, 93.60, 89.67},
                                 {94.76, 95.37, 94.51}};
  const int channels[] = {5, 7};
  const int batches[] = {8, 16, 32};
  for (int c = 0; c < 2; ++c) {
    for (int b = 0; b < 3; ++b) {
      const TrialConfig cfg = TrialConfig::baseline(channels[c], batches[b]);
      EXPECT_NEAR(oracle.expected_accuracy(cfg), expected[c][b], 1e-9);
    }
  }
}

TEST(OracleTest, Table4WinnerAnchor) {
  // The paper's best model: 7ch, batch 16, w32, k3, p1, pooled -> 96.13%.
  const AccuracyOracle oracle = noise_free();
  TrialConfig c = TrialConfig::baseline(7, 16);
  c.initial_output_feature = 32;
  c.kernel_size = 3;
  c.padding = 1;
  EXPECT_NEAR(oracle.expected_accuracy(c), 96.13, 0.01);
}

TEST(OracleTest, WorstCornerNearPaperMinimum) {
  // Table 3 minimum 76.19%: stride-1 no-pool k7 p3 w64 at (5ch, batch 32).
  const AccuracyOracle oracle = noise_free();
  TrialConfig c = TrialConfig::baseline(5, 32);
  c.stride = 1;
  c.pool_choice = 1;
  EXPECT_NEAR(oracle.expected_accuracy(c), 76.19, 2.0);
}

TEST(OracleTest, MonotoneTrends) {
  const AccuracyOracle oracle = noise_free();
  TrialConfig base = TrialConfig::baseline(5, 16);
  // 7 channels beat 5.
  TrialConfig seven = base;
  seven.channels = 7;
  EXPECT_GT(oracle.expected_accuracy(seven), oracle.expected_accuracy(base));
  // Width 32 beats 64 under the 5-epoch budget.
  TrialConfig narrow = base;
  narrow.initial_output_feature = 32;
  EXPECT_GT(oracle.expected_accuracy(narrow), oracle.expected_accuracy(base));
  // Kernel 3 beats 7; padding 1 beats 3.
  TrialConfig k3 = base;
  k3.kernel_size = 3;
  EXPECT_GT(oracle.expected_accuracy(k3), oracle.expected_accuracy(base));
  TrialConfig p1 = base;
  p1.padding = 1;
  EXPECT_GT(oracle.expected_accuracy(p1), oracle.expected_accuracy(base));
  // Downsampling collapse: d=1 far below d=4.
  TrialConfig d1 = base;
  d1.stride = 1;
  d1.pool_choice = 1;
  EXPECT_LT(oracle.expected_accuracy(d1),
            oracle.expected_accuracy(base) - 5.0);
}

TEST(OracleTest, FoldAccuraciesAreDeterministic) {
  const AccuracyOracle a{OracleOptions{}};
  const AccuracyOracle b{OracleOptions{}};
  const TrialConfig cfg = TrialConfig::baseline(7, 8);
  EXPECT_EQ(a.fold_accuracies(cfg), b.fold_accuracies(cfg));
}

TEST(OracleTest, SeedChangesNoise) {
  OracleOptions o1, o2;
  o2.seed = o1.seed + 1;
  const AccuracyOracle a(o1), b(o2);
  const TrialConfig cfg = TrialConfig::baseline(7, 8);
  EXPECT_NE(a.fold_accuracy(cfg, 0), b.fold_accuracy(cfg, 0));
}

TEST(OracleTest, NoiseMagnitudesMatchOptions) {
  OracleOptions opt;
  opt.trial_noise_sigma = 0.5;
  opt.fold_noise_sigma = 1.0;
  const AccuracyOracle oracle(opt);
  // Fold spread within one trial ~ fold sigma.
  std::vector<double> all_fold_stds;
  SearchSpaceSpec space = SearchSpaceSpec::paper();
  space.channels = {5};
  space.batches = {16};
  Rng rng(3);
  for (int t = 0; t < 200; ++t) {
    const TrialConfig cfg = space.sample(rng);
    all_fold_stds.push_back(sample_stddev(oracle.fold_accuracies(cfg)));
  }
  const double typical = mean(all_fold_stds);
  EXPECT_GT(typical, 0.6);
  EXPECT_LT(typical, 1.4);
}

TEST(OracleTest, DuplicateNoPoolLatticePointsGetDistinctDraws) {
  // The paper's Table 4 rows 3 and 5 are the "same" architecture trained
  // as separate NNI trials; our oracle mirrors that.
  const AccuracyOracle oracle{OracleOptions{}};
  TrialConfig a = TrialConfig::baseline(5, 8);
  a.pool_choice = 1;
  TrialConfig b = a;
  b.stride_pool = 1;  // don't-care dimension
  EXPECT_EQ(a.canonical_arch_key(), b.canonical_arch_key());
  EXPECT_NE(oracle.fold_accuracy(a, 0), oracle.fold_accuracy(b, 0));
}

TEST(OracleTest, AccuraciesStayInValidRange) {
  const AccuracyOracle oracle{OracleOptions{}};
  for (const auto& cfg : SearchSpaceSpec::paper().enumerate()) {
    for (int f = 0; f < 5; ++f) {
      const double acc = oracle.fold_accuracy(cfg, f);
      ASSERT_GE(acc, 50.0);
      ASSERT_LE(acc, 99.5);
    }
  }
}

TEST(OracleTest, RejectsBadFoldIndex) {
  const AccuracyOracle oracle{OracleOptions{}};
  const TrialConfig cfg = TrialConfig::baseline(5, 8);
  EXPECT_THROW(oracle.fold_accuracy(cfg, -1), InvalidArgument);
  EXPECT_THROW(oracle.fold_accuracy(cfg, 5), InvalidArgument);
}

}  // namespace
}  // namespace dcnas::nas
