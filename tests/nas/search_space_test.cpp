#include "dcnas/nas/search_space.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dcnas::nas {
namespace {

/// The paper lattice at one input combination.
SearchSpaceSpec combo(int channels, int batch) {
  SearchSpaceSpec space = SearchSpaceSpec::paper();
  space.channels = {channels};
  space.batches = {batch};
  return space;
}

TEST(SearchSpaceTest, LatticeSizesMatchPaper) {
  // Figure 2: 288 configurations per input combination; 6 combinations.
  EXPECT_EQ(combo(5, 8).size(), 288);
  EXPECT_EQ(SearchSpaceSpec::paper().size(), 1728);
  EXPECT_EQ(SearchSpaceSpec::paper().enumerate().size(), 1728u);
  EXPECT_EQ(combo(5, 8).enumerate().size(), 288u);
}

TEST(SearchSpaceTest, NoPoolCollapseYields180UniqueArchitectures) {
  // 144 pooled + 36 unpooled per combination (§3.2's "certain
  // configurations may coincide due to the 'no pool' option").
  std::set<std::string> keys;
  for (const auto& c : combo(5, 8).enumerate()) {
    keys.insert(c.canonical_arch_key());
  }
  EXPECT_EQ(keys.size(), 180u);
}

TEST(SearchSpaceTest, EnumerationHasNoDuplicateLatticePoints) {
  std::set<std::string> keys;
  for (const auto& c : SearchSpaceSpec::paper().enumerate()) {
    EXPECT_TRUE(keys.insert(c.lattice_key()).second) << c.to_string();
  }
}

TEST(SearchSpaceTest, OptionSetsMatchFigure2) {
  const SearchSpaceSpec paper = SearchSpaceSpec::paper();
  EXPECT_EQ(paper.channels, (std::vector<int>{5, 7}));
  EXPECT_EQ(paper.batches, (std::vector<int>{8, 16, 32}));
  EXPECT_EQ(paper.kernels, (std::vector<int>{3, 7}));
  EXPECT_EQ(paper.strides, (std::vector<int>{1, 2}));
  EXPECT_EQ(paper.paddings, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(paper.pool_choices, (std::vector<int>{0, 1}));
  EXPECT_EQ(paper.pool_kernels, (std::vector<int>{2, 3}));
  EXPECT_EQ(paper.pool_strides, (std::vector<int>{1, 2}));
  EXPECT_EQ(paper.widths, (std::vector<int>{32, 48, 64}));
  EXPECT_EQ(paper.precisions, (std::vector<int>{0}));
  EXPECT_EQ(paper.depths, (std::vector<int>{2}));
}

TEST(TrialConfigTest, BaselineIsStockResNet18) {
  const TrialConfig c = TrialConfig::baseline(7, 16);
  EXPECT_EQ(c.kernel_size, 7);
  EXPECT_EQ(c.stride, 2);
  EXPECT_EQ(c.padding, 3);
  EXPECT_EQ(c.pool_choice, 0);
  EXPECT_TRUE(c.with_pool());
  EXPECT_EQ(c.initial_output_feature, 64);
  EXPECT_EQ(c.stem_downsample(), 4);
}

TEST(TrialConfigTest, StemDownsampleCases) {
  TrialConfig c = TrialConfig::baseline(5, 8);
  EXPECT_EQ(c.stem_downsample(), 4);  // s2 x pool s2
  c.pool_choice = 1;
  EXPECT_EQ(c.stem_downsample(), 2);  // s2, no pool
  c.stride = 1;
  EXPECT_EQ(c.stem_downsample(), 1);  // s1, no pool
  c.pool_choice = 0;
  c.stride_pool = 1;
  EXPECT_EQ(c.stem_downsample(), 1);  // s1 x pool s1
}

TEST(TrialConfigTest, ToResNetConfigRoundTrip) {
  TrialConfig c = TrialConfig::baseline(5, 16);
  c.kernel_size = 3;
  c.padding = 1;
  c.initial_output_feature = 48;
  c.pool_choice = 1;
  const nn::ResNetConfig r = c.to_resnet_config();
  EXPECT_EQ(r.in_channels, 5);
  EXPECT_EQ(r.conv1_kernel, 3);
  EXPECT_EQ(r.conv1_padding, 1);
  EXPECT_FALSE(r.with_pool);
  EXPECT_EQ(r.init_width, 48);
  EXPECT_EQ(r.num_classes, 2);
}

TEST(TrialConfigTest, CanonicalKeyCollapsesNoPoolDontCares) {
  TrialConfig a = TrialConfig::baseline(5, 8);
  a.pool_choice = 1;
  TrialConfig b = a;
  b.kernel_size_pool = 2;
  b.stride_pool = 1;
  EXPECT_EQ(a.canonical_arch_key(), b.canonical_arch_key());
  EXPECT_NE(a.lattice_key(), b.lattice_key());
  // Pooled configs keep their pool dims in the key.
  a.pool_choice = 0;
  b.pool_choice = 0;
  EXPECT_NE(a.canonical_arch_key(), b.canonical_arch_key());
}

TEST(TrialConfigTest, CanonicalKeyIgnoresBatch) {
  TrialConfig a = TrialConfig::baseline(5, 8);
  TrialConfig b = TrialConfig::baseline(5, 32);
  EXPECT_EQ(a.canonical_arch_key(), b.canonical_arch_key());
  EXPECT_NE(a.encode(), b.encode());
}

TEST(TrialConfigTest, ValidateRejectsOutOfSpace) {
  TrialConfig c = TrialConfig::baseline(5, 8);
  c.kernel_size = 5;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = TrialConfig::baseline(5, 8);
  c.batch = 64;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = TrialConfig::baseline(5, 8);
  c.pool_choice = 2;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

TEST(TrialConfigTest, EncodeIsInjectiveOverLattice) {
  std::set<std::uint64_t> codes;
  for (const auto& c : SearchSpaceSpec::paper().enumerate()) {
    EXPECT_TRUE(codes.insert(c.encode()).second);
  }
}

TEST(SearchSpaceTest, SampleStaysInSpace) {
  const SearchSpaceSpec space = combo(7, 16);
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const TrialConfig c = space.sample(rng);
    EXPECT_TRUE(space.contains(c)) << c.to_string();
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(c.channels, 7);
    EXPECT_EQ(c.batch, 16);
  }
}

}  // namespace
}  // namespace dcnas::nas
