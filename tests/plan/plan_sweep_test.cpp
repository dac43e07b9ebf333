/// Lattice-wide plan verification: every one of the 1,728 search-space
/// configurations compiles to a plan the PlanVerifier passes clean. The
/// graph-level twin lives in tests/analysis/sweep_test.cpp; this sweep
/// covers the *compiled artifact*. Configurations that cannot differ in
/// their plan are deduplicated (batch never affects a plan; pool_choice=0
/// collapses the pool-geometry axes; channels is the only input field the
/// model sees), and graphs are built at a reduced input size — the CI
/// plan-verify job sweeps the full deployment resolution via dcnas_lint.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "dcnas/analysis/plan_verifier.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/plan/compiler.hpp"

namespace dcnas::plan {
namespace {

constexpr std::int64_t kSweepInputHw = 24;

TEST(PlanSweepTest, AllLatticeConfigsCompileAndVerifyClean) {
  const auto all = nas::SearchSpaceSpec::paper().enumerate();
  ASSERT_EQ(static_cast<std::int64_t>(all.size()),
            nas::SearchSpaceSpec::paper().size());

  const analysis::PlanVerifier verifier = analysis::PlanVerifier::standard();
  std::set<std::string> seen;
  std::size_t verified = 0;
  for (const auto& cfg : all) {
    const std::string key =
        "ch" + std::to_string(cfg.channels) + "_" + cfg.canonical_arch_key();
    if (!seen.insert(key).second) continue;

    const nn::ResNetConfig rc = cfg.to_resnet_config();
    Rng rng(1234);
    nn::ConfigurableResNet model(rc, rng);
    model.set_training(false);
    graph::GraphExecutor exec(graph::build_resnet_graph(rc, kSweepInputHw),
                              model);
    const CompiledPlan plan = compile_plan(exec);
    const analysis::VerifyResult result = verifier.verify(plan, exec);
    ASSERT_TRUE(result.ok())
        << cfg.lattice_key() << ":\n" << result.to_string();
    ASSERT_TRUE(result.diagnostics.empty())
        << cfg.lattice_key() << ":\n" << result.to_string();
    ++verified;
  }
  // 288 arch points × 2 channel options, minus pool-geometry collapse for
  // the no-pool configurations.
  EXPECT_EQ(verified, 360u);
}

}  // namespace
}  // namespace dcnas::plan
