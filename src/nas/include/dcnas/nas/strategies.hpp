#pragma once
/// \file strategies.hpp
/// \brief Search strategies over the Figure 2 space (ask/tell protocol).
///
/// The paper's NNI run exhaustively grids the 288-point space per input
/// combination; grid search is therefore the reference strategy. Random
/// search and regularized evolution (Real et al. 2019) are provided for
/// the sample-efficiency ablation bench.

#include <deque>
#include <map>
#include <vector>

#include "dcnas/nas/search_space.hpp"

namespace dcnas::nas {

/// Ask/tell search driver: ask() yields the next configuration to evaluate,
/// tell() reports its fitness (higher is better).
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  virtual TrialConfig ask() = 0;
  virtual void tell(const TrialConfig& config, double fitness) = 0;
  /// True when the strategy has nothing new to propose.
  virtual bool exhausted() const = 0;
  virtual std::string name() const = 0;
};

/// Exhaustive enumeration in lattice order (the paper's protocol).
class GridStrategy : public SearchStrategy {
 public:
  GridStrategy(int channels, int batch);
  TrialConfig ask() override;
  void tell(const TrialConfig&, double) override {}
  bool exhausted() const override { return cursor_ >= lattice_.size(); }
  std::string name() const override { return "grid"; }

 private:
  std::vector<TrialConfig> lattice_;
  std::size_t cursor_ = 0;
};

/// Uniform sampling without replacement.
class RandomStrategy : public SearchStrategy {
 public:
  RandomStrategy(int channels, int batch, std::uint64_t seed);
  TrialConfig ask() override;
  void tell(const TrialConfig&, double) override {}
  bool exhausted() const override { return cursor_ >= lattice_.size(); }
  std::string name() const override { return "random"; }

 private:
  std::vector<TrialConfig> lattice_;  // shuffled
  std::size_t cursor_ = 0;
};

/// Regularized (aging) evolution: tournament-select a parent from the
/// population, mutate one architecture dimension, retire the oldest member.
class EvolutionStrategy : public SearchStrategy {
 public:
  struct Options {
    std::size_t population_size = 24;
    std::size_t tournament_size = 6;
    std::uint64_t seed = 1;
  };
  EvolutionStrategy(int channels, int batch, const Options& options);

  TrialConfig ask() override;
  void tell(const TrialConfig& config, double fitness) override;
  bool exhausted() const override { return false; }  // anytime algorithm
  std::string name() const override { return "evolution"; }

  /// Mutates exactly one randomly chosen architecture dimension (exposed
  /// for tests).
  TrialConfig mutate(const TrialConfig& parent, Rng& rng) const;

 private:
  struct Member {
    TrialConfig config;
    double fitness = 0.0;
  };
  SearchSpaceSpec space_;  ///< the paper lattice at this input combination
  Options options_;
  Rng rng_;
  std::deque<Member> population_;  // front = oldest
};

}  // namespace dcnas::nas
