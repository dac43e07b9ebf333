#include "dcnas/nas/strategies.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dcnas/common/strings.hpp"
#include "dcnas/nas/oracle.hpp"

namespace dcnas::nas {
namespace {

TEST(GridStrategyTest, EnumeratesExactly288Then_exhausts) {
  GridStrategy grid(5, 8);
  std::set<std::string> keys;
  int count = 0;
  while (!grid.exhausted()) {
    keys.insert(grid.ask().lattice_key());
    ++count;
  }
  EXPECT_EQ(count, 288);
  EXPECT_EQ(keys.size(), 288u);
  EXPECT_THROW(grid.ask(), InvalidArgument);
}

TEST(RandomStrategyTest, PermutationWithoutReplacement) {
  RandomStrategy rnd(7, 16, 42);
  std::set<std::string> keys;
  while (!rnd.exhausted()) keys.insert(rnd.ask().lattice_key());
  EXPECT_EQ(keys.size(), 288u);
}

TEST(RandomStrategyTest, SeedChangesOrder) {
  RandomStrategy a(5, 8, 1), b(5, 8, 2);
  bool differs = false;
  for (int i = 0; i < 20; ++i) {
    if (a.ask().lattice_key() != b.ask().lattice_key()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RandomStrategyTest, OrderIsPinnedForASeed) {
  RandomStrategy rnd(5, 8, 42);
  std::string keys;
  while (!rnd.exhausted()) keys += rnd.ask().lattice_key() + '\n';
  EXPECT_EQ(fnv1a64(keys), 0x919762fa84504d39ULL);
}

TEST(EvolutionStrategyTest, MutationChangesExactlyOneDimension) {
  EvolutionStrategy::Options opt;
  EvolutionStrategy evo(5, 8, opt);
  Rng rng(9);
  const TrialConfig parent = TrialConfig::baseline(5, 8);
  for (int i = 0; i < 100; ++i) {
    const TrialConfig child = evo.mutate(parent, rng);
    int diffs = 0;
    for (const auto& dim : SearchSpaceSpec::dimensions()) {
      diffs += child.*dim.field != parent.*dim.field;
    }
    EXPECT_EQ(diffs, 1);
    EXPECT_EQ(child.channels, parent.channels);
    EXPECT_EQ(child.batch, parent.batch);
  }
}

TEST(EvolutionStrategyTest, ImprovesOracleFitness) {
  // With the oracle as fitness, evolution should concentrate on w32/k3
  // configurations and beat random search's mean fitness.
  OracleOptions oopt;
  oopt.trial_noise_sigma = 0.2;
  oopt.fold_noise_sigma = 0.0;
  const AccuracyOracle oracle(oopt);
  auto fitness = [&](const TrialConfig& c) {
    return oracle.expected_accuracy(c);
  };

  EvolutionStrategy::Options opt;
  opt.population_size = 16;
  opt.tournament_size = 4;
  opt.seed = 11;
  EvolutionStrategy evo(7, 16, opt);
  double evo_best = 0.0;
  for (int i = 0; i < 120; ++i) {
    const TrialConfig c = evo.ask();
    const double f = fitness(c);
    evo.tell(c, f);
    evo_best = std::max(evo_best, f);
  }
  EXPECT_FALSE(evo.exhausted());
  // The optimum of the noise-free oracle at (7,16) is 96.13.
  EXPECT_GT(evo_best, 96.0);
}

TEST(EvolutionStrategyTest, WarmupSamplesBeforeMutating) {
  EvolutionStrategy::Options opt;
  opt.population_size = 4;
  opt.tournament_size = 2;
  opt.seed = 3;
  EvolutionStrategy evo(5, 32, opt);
  for (int i = 0; i < 4; ++i) {
    const TrialConfig c = evo.ask();
    EXPECT_EQ(c.batch, 32);
    evo.tell(c, 1.0);
  }
  EXPECT_NO_THROW(evo.ask());
}

TEST(EvolutionStrategyTest, AskSequenceIsPinned) {
  // Warm-up samples then tournament-selected mutations, with a fixed
  // fitness per config: the first 64 keys pin the RNG draw order.
  EvolutionStrategy::Options opt;
  opt.population_size = 8;
  opt.tournament_size = 3;
  opt.seed = 17;
  EvolutionStrategy evo(7, 16, opt);
  std::string keys;
  for (int i = 0; i < 64; ++i) {
    const TrialConfig c = evo.ask();
    keys += c.lattice_key() + '\n';
    evo.tell(c, static_cast<double>(c.encode() % 97));
  }
  EXPECT_EQ(fnv1a64(keys), 0xb8fcb09a9feb3ca4ULL);
}

TEST(EvolutionStrategyTest, RejectsBadOptions) {
  EvolutionStrategy::Options opt;
  opt.population_size = 1;
  EXPECT_THROW(EvolutionStrategy(5, 8, opt), InvalidArgument);
  opt.population_size = 8;
  opt.tournament_size = 9;
  EXPECT_THROW(EvolutionStrategy(5, 8, opt), InvalidArgument);
}

}  // namespace
}  // namespace dcnas::nas
