#include "dcnas/graph/executor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "dcnas/graph/builder.hpp"

namespace dcnas::graph {
namespace {

/// Builds a trained-ish model (a few BN-updating forward passes so running
/// stats are non-trivial) plus its graph at a small input size.
struct Bundle {
  nn::ResNetConfig config;
  std::unique_ptr<nn::ConfigurableResNet> model;
  ModelGraph graph;
};

Bundle make_bundle(std::int64_t width, std::int64_t hw,
                   bool with_pool = true) {
  Bundle b;
  b.config = nn::ResNetConfig::baseline(5);
  b.config.init_width = width;
  b.config.conv1_kernel = 3;
  b.config.conv1_padding = 1;
  b.config.with_pool = with_pool;
  Rng rng(17);
  b.model = std::make_unique<nn::ConfigurableResNet>(b.config, rng);
  // Push a couple of batches through in training mode so running
  // statistics leave their init values.
  for (int i = 0; i < 3; ++i) {
    const Tensor x = Tensor::rand_uniform({4, 5, hw, hw}, rng, -1.0f, 2.0f);
    b.model->forward(x);
  }
  b.model->set_training(false);
  b.graph = build_resnet_graph(b.config, hw);
  return b;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

TEST(GraphExecutorTest, MatchesLiveModelEvalMode) {
  Bundle b = make_bundle(32, 32);
  GraphExecutor exec(b.graph, *b.model);
  Rng rng(3);
  const Tensor x = Tensor::rand_uniform({2, 5, 32, 32}, rng, -1.0f, 1.0f);
  const Tensor from_model = b.model->forward(x);
  const Tensor from_graph = exec.run(x);
  EXPECT_LT(max_abs_diff(from_model, from_graph), 1e-4);
}

TEST(GraphExecutorTest, MatchesLiveModelWithoutPool) {
  Bundle b = make_bundle(32, 24, /*with_pool=*/false);
  GraphExecutor exec(b.graph, *b.model);
  Rng rng(4);
  const Tensor x = Tensor::rand_uniform({1, 5, 24, 24}, rng, -1.0f, 1.0f);
  EXPECT_LT(max_abs_diff(b.model->forward(x), exec.run(x)), 1e-4);
}

TEST(GraphExecutorTest, BatchNormFoldingPreservesOutputs) {
  // The core claim behind Conv+BN kernel fusion: folding is exact.
  Bundle b = make_bundle(32, 32);
  GraphExecutor exec(b.graph, *b.model);
  Rng rng(5);
  const Tensor x = Tensor::rand_uniform({2, 5, 32, 32}, rng, -1.0f, 1.0f);
  const Tensor before = exec.run(x);
  EXPECT_FALSE(exec.folded());
  exec.fold_batchnorm();
  EXPECT_TRUE(exec.folded());
  const Tensor after = exec.run(x);
  EXPECT_LT(max_abs_diff(before, after), 2e-3);
}

TEST(GraphExecutorTest, BatchNormAffineAbsorbsConvBias) {
  constexpr float kEps = 1e-5f;
  NodeState bn;
  bn.bn_gamma = Tensor::from_values({3}, {0.5f, 1.0f, 2.0f});
  bn.bn_beta = Tensor::from_values({3}, {0.1f, -0.2f, 0.3f});
  bn.bn_mean = Tensor::from_values({3}, {1.0f, -0.5f, 0.25f});
  bn.bn_var = Tensor::from_values({3}, {0.25f, 1.0f, 4.0f});
  const Tensor bias = Tensor::from_values({3}, {0.75f, -1.5f, 2.0f});

  const BatchNormAffine plain = batchnorm_affine(bn, kEps);
  const BatchNormAffine biased = batchnorm_affine(bn, kEps, bias);
  for (std::int64_t c = 0; c < 3; ++c) {
    const float scale = bn.bn_gamma[c] / std::sqrt(bn.bn_var[c] + kEps);
    EXPECT_FLOAT_EQ(plain.scale[c], scale) << c;
    EXPECT_EQ(biased.scale[c], plain.scale[c]) << c;
    EXPECT_FLOAT_EQ(plain.shift[c], bn.bn_beta[c] - bn.bn_mean[c] * scale);
    // BN(x + b) == x·scale + shift_b: the bias survives the fold.
    for (const float x : {-1.0f, 0.0f, 3.0f}) {
      EXPECT_NEAR(x * biased.scale[c] + biased.shift[c],
                  (x + bias[c]) * plain.scale[c] + plain.shift[c], 1e-5)
          << c;
    }
  }

  // Folding into a conv scales each output-channel row and replaces the
  // bias with the biased shift.
  Tensor weight = Tensor::full({3, 2}, 2.0f);
  std::optional<Tensor> conv_bias = bias;
  fold_batchnorm_into_conv(weight, conv_bias, bn, kEps);
  ASSERT_TRUE(conv_bias.has_value());
  for (std::int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(weight[c * 2], 2.0f * biased.scale[c]) << c;
    EXPECT_EQ(weight[c * 2 + 1], 2.0f * biased.scale[c]) << c;
    EXPECT_EQ((*conv_bias)[c], biased.shift[c]) << c;
  }
}

TEST(GraphExecutorTest, FoldsEveryConvBnPair) {
  Bundle b = make_bundle(32, 32);
  GraphExecutor exec(b.graph, *b.model);
  exec.fold_batchnorm();
  // Every BatchNorm in a ResNet directly follows a conv -> all fold.
  int bn_nodes = 0;
  for (const auto& n : b.graph.nodes()) {
    bn_nodes += n.kind == OpKind::kBatchNorm;
  }
  EXPECT_EQ(exec.folded_batchnorms(), bn_nodes);
  // Idempotent.
  exec.fold_batchnorm();
  EXPECT_EQ(exec.folded_batchnorms(), bn_nodes);
}

TEST(GraphExecutorTest, RejectsMismatchedModel) {
  Bundle b = make_bundle(32, 32);
  nn::ResNetConfig other = b.config;
  other.init_width = 48;
  Rng rng(9);
  nn::ConfigurableResNet wrong(other, rng);
  EXPECT_THROW(GraphExecutor(b.graph, wrong), InvalidArgument);
}

TEST(GraphExecutorTest, RejectsBadInput) {
  Bundle b = make_bundle(32, 32);
  GraphExecutor exec(b.graph, *b.model);
  EXPECT_THROW(exec.run(Tensor({1, 4, 32, 32})), InvalidArgument);
}

TEST(GraphExecutorTest, BatchInvariance) {
  // Running two samples together equals running them separately (eval
  // mode has no cross-sample coupling).
  Bundle b = make_bundle(32, 24);
  GraphExecutor exec(b.graph, *b.model);
  Rng rng(6);
  const Tensor batch = Tensor::rand_uniform({2, 5, 24, 24}, rng, -1.0f, 1.0f);
  const Tensor both = exec.run(batch);
  // Slice each sample.
  const std::int64_t chw = 5 * 24 * 24;
  for (int s = 0; s < 2; ++s) {
    Tensor one({1, 5, 24, 24});
    std::copy(batch.data() + s * chw, batch.data() + (s + 1) * chw,
              one.data());
    const Tensor y = exec.run(one);
    for (std::int64_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(y.at(0, c), both.at(s, c), 1e-4) << "sample " << s;
    }
  }
}

}  // namespace
}  // namespace dcnas::graph
