#include "dcnas/plan/compiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dcnas/graph/builder.hpp"
#include "dcnas/plan/executor.hpp"

namespace dcnas::plan {
namespace {

using graph::KernelKind;
using graph::ModelGraph;
using graph::OpKind;

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
  for (int i = 0; i < 3; ++i) {
    const Tensor x = Tensor::rand_uniform({4, 5, hw, hw}, rng, -1.0f, 2.0f);
    b.model->forward(x);
  }
  b.model->set_training(false);
  b.graph = graph::build_resnet_graph(b.config, hw);
  return b;
}

int count_kind(const CompiledPlan& plan, KernelKind kind) {
  return static_cast<int>(
      std::count_if(plan.steps.begin(), plan.steps.end(),
                    [&](const PlanStep& s) { return s.kind == kind; }));
}

TEST(PlanCompilerTest, FusesResNetIntoExpectedStepKinds) {
  Bundle b = make_bundle(32, 24);
  graph::GraphExecutor exec(b.graph, *b.model);
  const CompiledPlan plan = compile_plan(exec);

  // conv1+bn1+relu1 and every block's conv1+bn1+relu1 fuse fully.
  EXPECT_GT(count_kind(plan, KernelKind::kConvBnRelu), 0);
  // Block tails (conv2+bn2, proj+proj_bn) fuse without activation.
  EXPECT_GT(count_kind(plan, KernelKind::kConvBn), 0);
  // Residual adds absorb their trailing ReLU.
  EXPECT_EQ(count_kind(plan, KernelKind::kAddRelu), 8);
  EXPECT_EQ(count_kind(plan, KernelKind::kMaxPool), 1);
  EXPECT_EQ(count_kind(plan, KernelKind::kGlobalAvgPool), 1);
  EXPECT_EQ(count_kind(plan, KernelKind::kLinear), 1);
  // Nothing is left unfused in a standard ResNet graph.
  EXPECT_EQ(count_kind(plan, KernelKind::kBatchNorm), 0);
  EXPECT_EQ(count_kind(plan, KernelKind::kRelu), 0);
  EXPECT_EQ(count_kind(plan, KernelKind::kAdd), 0);
  EXPECT_EQ(count_kind(plan, KernelKind::kConv), 0);

  // Every BatchNorm in the graph folded into its conv.
  int bn_nodes = 0;
  for (const auto& n : b.graph.nodes()) {
    if (n.kind == OpKind::kBatchNorm) ++bn_nodes;
  }
  EXPECT_EQ(plan.folded_batchnorms, bn_nodes);
  EXPECT_EQ(plan.graph_nodes, static_cast<int>(b.graph.size()));
}

TEST(PlanCompilerTest, EveryConvStepCarriesFoldedBias) {
  Bundle b = make_bundle(32, 24);
  graph::GraphExecutor exec(b.graph, *b.model);
  const CompiledPlan plan = compile_plan(exec);
  for (const PlanStep& s : plan.steps) {
    if (s.kind == KernelKind::kConvBn || s.kind == KernelKind::kConvBnRelu) {
      ASSERT_TRUE(s.bias.has_value()) << s.name;
      EXPECT_EQ(s.bias->numel(), s.out_shape.c);
      EXPECT_EQ(s.weight.numel(),
                s.out_shape.c * s.in_shape.c * s.attrs.kernel *
                    s.attrs.kernel);
    }
  }
}

TEST(PlanCompilerTest, UnfusedOptionEmitsOneStepPerOp) {
  Bundle b = make_bundle(32, 24);
  graph::GraphExecutor exec(b.graph, *b.model);
  CompileOptions opts;
  opts.fuse = false;
  const CompiledPlan plan = compile_plan(exec, opts);
  // One step for every non-structural node (input/output excluded).
  EXPECT_EQ(plan.steps.size(), b.graph.size() - 2);
  EXPECT_EQ(plan.folded_batchnorms, 0);
  EXPECT_GT(count_kind(plan, KernelKind::kBatchNorm), 0);
  EXPECT_GT(count_kind(plan, KernelKind::kRelu), 0);
}

TEST(PlanCompilerTest, PreFoldedExecutorCompilesToSamePlanOutputs) {
  Bundle b = make_bundle(32, 24);
  graph::GraphExecutor exec(b.graph, *b.model);
  const CompiledPlan from_unfolded = compile_plan(exec);
  exec.fold_batchnorm();
  const CompiledPlan from_folded = compile_plan(exec);
  EXPECT_EQ(from_unfolded.folded_batchnorms, from_folded.folded_batchnorms);
  ASSERT_EQ(from_unfolded.steps.size(), from_folded.steps.size());
  // Folding before or during compilation must yield identical weights.
  for (std::size_t i = 0; i < from_unfolded.steps.size(); ++i) {
    const PlanStep& a = from_unfolded.steps[i];
    const PlanStep& f = from_folded.steps[i];
    ASSERT_EQ(a.weight.numel(), f.weight.numel()) << a.name;
    for (std::int64_t j = 0; j < a.weight.numel(); ++j) {
      EXPECT_FLOAT_EQ(a.weight[j], f.weight[j]) << a.name;
    }
  }
}

/// Hand-built graph: input -> conv -> relu -> bn -> output. The BN's
/// producer is a ReLU, which the fusion-legality pass flags — the compiler
/// must keep it as a standalone scale/shift step, never fold it.
TEST(PlanCompilerTest, RefusesToFoldBnWhoseProducerIsNotConv) {
  ModelGraph g;
  const int in = g.add_input({3, 8, 8});
  const int conv = g.add_conv(in, 4, 3, 1, 1, "conv");
  const int relu = g.add_relu(conv, "relu");
  const int bn = g.add_batchnorm(relu, "late_bn");
  g.add_output(bn);

  Rng rng(5);
  std::vector<graph::NodeState> state(g.size());
  state[static_cast<std::size_t>(conv)].conv_weight =
      Tensor::randn({4, 3 * 3 * 3}, rng, 0.0f, 0.5f);
  auto& bn_st = state[static_cast<std::size_t>(bn)];
  bn_st.bn_gamma = Tensor::rand_uniform({4}, rng, 0.5f, 1.5f);
  bn_st.bn_beta = Tensor::randn({4}, rng);
  bn_st.bn_mean = Tensor::randn({4}, rng);
  bn_st.bn_var = Tensor::rand_uniform({4}, rng, 0.1f, 2.0f);
  auto exec = graph::GraphExecutor::from_state(
      g, std::move(state), std::vector<bool>(g.size(), false));

  const CompiledPlan plan = compile_plan(exec);
  EXPECT_EQ(plan.folded_batchnorms, 0);
  EXPECT_EQ(count_kind(plan, KernelKind::kBatchNorm), 1);
  EXPECT_EQ(count_kind(plan, KernelKind::kConvRelu), 1);

  // And the standalone BN must compute the right scale/shift.
  PlanExecutor plan_exec(plan);
  const Tensor x = Tensor::rand_uniform({2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor want = exec.run(x);
  const Tensor got = plan_exec.run(x);
  ASSERT_TRUE(want.same_shape(got));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(want[i], got[i], 1e-5) << i;
  }
}

/// Hand-built graph where the conv output has two consumers (its BN and a
/// residual Add): folding the BN into the conv would change the Add's
/// operand, so fusion must be refused and the BN must run standalone.
TEST(PlanCompilerTest, RefusesToFoldBnOfMultiConsumerConv) {
  ModelGraph g;
  const int in = g.add_input({3, 8, 8});
  const int conv = g.add_conv(in, 3, 3, 1, 1, "conv");
  const int bn = g.add_batchnorm(conv, "bn");
  const int relu = g.add_relu(bn, "relu");
  const int add = g.add_add(relu, conv, "residual");
  g.add_output(add);

  Rng rng(7);
  std::vector<graph::NodeState> state(g.size());
  state[static_cast<std::size_t>(conv)].conv_weight =
      Tensor::randn({3, 3 * 3 * 3}, rng, 0.0f, 0.5f);
  auto& bn_st = state[static_cast<std::size_t>(bn)];
  bn_st.bn_gamma = Tensor::rand_uniform({3}, rng, 0.5f, 1.5f);
  bn_st.bn_beta = Tensor::randn({3}, rng);
  bn_st.bn_mean = Tensor::randn({3}, rng);
  bn_st.bn_var = Tensor::rand_uniform({3}, rng, 0.1f, 2.0f);
  auto exec = graph::GraphExecutor::from_state(
      g, std::move(state), std::vector<bool>(g.size(), false));

  const CompiledPlan plan = compile_plan(exec);
  EXPECT_EQ(plan.folded_batchnorms, 0);
  EXPECT_EQ(count_kind(plan, KernelKind::kBatchNorm), 1);
  EXPECT_EQ(count_kind(plan, KernelKind::kConv), 1);
  EXPECT_EQ(count_kind(plan, KernelKind::kConvBn), 0);
  EXPECT_EQ(count_kind(plan, KernelKind::kConvBnRelu), 0);

  PlanExecutor plan_exec(plan);
  const Tensor x = Tensor::rand_uniform({2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor want = exec.run(x);
  const Tensor got = plan_exec.run(x);
  ASSERT_TRUE(want.same_shape(got));
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(want[i], got[i], 1e-5) << i;
  }
}

/// A conv that carries its own bias (a DCNX file may set kHasBias and keep
/// an unfolded BN) must keep that bias through BN folding: b' = β + (b − μ)·s.
/// Folding to β − μ·s instead shifts every output channel by b·s, in
/// GraphExecutor::fold_batchnorm and the plan compiler alike.
TEST(PlanCompilerTest, BnFoldingKeepsExistingConvBias) {
  ModelGraph g;
  const int in = g.add_input({3, 8, 8});
  const int conv = g.add_conv(in, 4, 3, 1, 1, "conv");
  const int bn = g.add_batchnorm(conv, "bn");
  g.add_output(bn);

  Rng rng(11);
  std::vector<graph::NodeState> state(g.size());
  auto& conv_st = state[static_cast<std::size_t>(conv)];
  conv_st.conv_weight = Tensor::randn({4, 3 * 3 * 3}, rng, 0.0f, 0.5f);
  conv_st.bias = Tensor::rand_uniform({4}, rng, 0.5f, 2.0f);
  auto& bn_st = state[static_cast<std::size_t>(bn)];
  bn_st.bn_gamma = Tensor::rand_uniform({4}, rng, 0.5f, 1.5f);
  bn_st.bn_beta = Tensor::randn({4}, rng);
  bn_st.bn_mean = Tensor::randn({4}, rng);
  bn_st.bn_var = Tensor::rand_uniform({4}, rng, 0.1f, 2.0f);
  auto exec = graph::GraphExecutor::from_state(
      g, std::move(state), std::vector<bool>(g.size(), false));

  const Tensor x = Tensor::rand_uniform({2, 3, 8, 8}, rng, -1.0f, 1.0f);
  const Tensor before = exec.run(x);
  const CompiledPlan plan = compile_plan(exec);
  EXPECT_EQ(plan.folded_batchnorms, 1);
  const Tensor via_plan = PlanExecutor(plan).run(x);
  exec.fold_batchnorm();
  ASSERT_EQ(exec.folded_batchnorms(), 1);
  const Tensor after = exec.run(x);
  ASSERT_TRUE(before.same_shape(after));
  ASSERT_TRUE(before.same_shape(via_plan));
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-5) << i;
    EXPECT_NEAR(before[i], via_plan[i], 1e-5) << i;
  }
}

TEST(PlanCompilerTest, StepWiringIsTopological) {
  Bundle b = make_bundle(48, 24, false);
  graph::GraphExecutor exec(b.graph, *b.model);
  const CompiledPlan plan = compile_plan(exec);
  for (std::size_t t = 0; t < plan.steps.size(); ++t) {
    for (int arg : plan.steps[t].args) {
      if (arg == kInputSlot) continue;
      // Every read slot was defined by an earlier step.
      EXPECT_LT(plan.slots[static_cast<std::size_t>(arg)].def,
                static_cast<int>(t));
    }
  }
}

}  // namespace
}  // namespace dcnas::plan
