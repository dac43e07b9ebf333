#include <gtest/gtest.h>

#include "dcnas/analysis/verifier.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/nas/search_space.hpp"

namespace dcnas::analysis {
namespace {

/// Every lattice point the NAS can sample must verify with zero diagnostics
/// (warnings included). This sweep is also the consistency proof for the
/// verifier's deliberately independent shape/params/FLOPs arithmetic: if
/// inference.cpp and ir.cpp ever disagree on a valid graph, exactly one
/// architecture here starts failing.
TEST(SearchSpaceSweepTest, AllLatticePointsVerifyClean) {
  const GraphVerifier verifier = GraphVerifier::standard();
  const auto all = nas::SearchSpaceSpec::paper().enumerate();
  ASSERT_EQ(static_cast<std::int64_t>(all.size()),
            nas::SearchSpaceSpec::paper().size());
  for (const nas::TrialConfig& config : all) {
    const graph::ModelGraph g =
        graph::build_resnet_graph(config.to_resnet_config());
    const VerifyResult r = verifier.verify(g);
    ASSERT_EQ(r.diagnostics.size(), 0u)
        << config.lattice_key() << ":\n" << r.to_string();
  }
}

/// The Table 5 baselines (stock ResNet-18 per input combination) are part of
/// the paper's reported results and must verify clean too.
TEST(SearchSpaceSweepTest, BaselinesVerifyClean) {
  const GraphVerifier verifier = GraphVerifier::standard();
  for (int channels : {5, 7}) {
    for (int batch : {8, 16, 32}) {
      const nas::TrialConfig config = nas::TrialConfig::baseline(channels,
                                                                 batch);
      const graph::ModelGraph g =
          graph::build_resnet_graph(config.to_resnet_config());
      const VerifyResult r = verifier.verify(g);
      EXPECT_EQ(r.diagnostics.size(), 0u)
          << config.lattice_key() << ":\n" << r.to_string();
    }
  }
}

}  // namespace
}  // namespace dcnas::analysis
