#pragma once
/// \file nsga2.hpp
/// \brief NSGA-II multi-objective architecture search over the Figure-2
/// lattice — the "resource-efficient NAS" direction the paper's Discussion
/// proposes, searching (accuracy ↑, latency ↓, memory ↓) directly instead
/// of exhaustively gridding all 1,728 trials.
///
/// Standard NSGA-II (Deb et al. 2002, anticipated by Srinivas & Deb 1994,
/// which the paper cites): binary tournament on (front rank, crowding
/// distance), uniform crossover + single-dimension mutation over the
/// lattice, elitist environmental selection via fast non-dominated sort.
/// Trial evaluations are cached by lattice key, so the measured cost is
/// the number of *unique* trials — directly comparable to the paper's
/// 1,728-trial grid.

#include <functional>
#include <map>

#include "dcnas/nas/experiment.hpp"
#include "dcnas/nas/scheduler.hpp"
#include "dcnas/pareto/pareto.hpp"

namespace dcnas::nas {

struct Nsga2Options {
  std::size_t population_size = 32;
  int generations = 12;
  double crossover_rate = 0.6;  ///< else the child is a mutated clone
  std::uint64_t seed = 1;
  bool search_input_combos = true;  ///< mutate channels/batch too
  /// Search the serving-precision axis (QUANTIZATION.md): initial samples,
  /// crossover, and mutation then also flip TrialConfig::precision, letting
  /// the front trade the oracle's quantization drop against the int8
  /// latency/memory wins. Off by default — the fp32-only search is the
  /// paper's setting and stays bit-identical to before the axis existed.
  bool search_precision = false;
  pareto::DominanceMode dominance = pareto::DominanceMode::kWeak;
  /// Hypervolume reference for the per-generation progress metric.
  pareto::Objectives reference{70.0, 500.0, 50.0};
};

struct Nsga2Result {
  TrialDatabase evaluated;                 ///< unique trials, eval order
  std::vector<std::size_t> front;          ///< final non-dominated set
  std::vector<double> hypervolume_history; ///< one entry per generation
  std::size_t unique_evaluations = 0;
};

class Nsga2 {
 public:
  /// \p evaluate runs one trial (accuracy + latency + memory); the search
  /// never calls it twice for the same lattice point.
  Nsga2(std::function<TrialRecord(const TrialConfig&)> evaluate,
        const Nsga2Options& options);

  /// Convenience: wraps an Experiment as the evaluation function.
  Nsga2(const Experiment& experiment, const Nsga2Options& options);

  /// Parallel evaluation: each generation's unique uncached configs are
  /// collected (config generation consumes the RNG, evaluation does not)
  /// and fanned out through \p scheduler in one batch. Produces the same
  /// database — same records, same order — as the serial constructors, as
  /// long as the scheduler's pruner is disabled (enforced at runtime).
  Nsga2(const Experiment& experiment, TrialScheduler& scheduler,
        const Nsga2Options& options);

  Nsga2Result run();

  /// Uniform crossover: each dimension from either parent (exposed for
  /// tests).
  TrialConfig crossover(const TrialConfig& a, const TrialConfig& b, Rng& rng) const;

  /// Mutates one dimension to a different lattice value.
  TrialConfig mutate(const TrialConfig& parent, Rng& rng) const;

 private:
  struct Individual {
    TrialConfig config;
    pareto::Objectives objectives;
    std::size_t record_index = 0;  ///< into the result database
    int rank = 0;
    double crowding = 0.0;
  };

  const TrialRecord& evaluate_cached(const TrialConfig& config);
  /// Batch-evaluates the first-encounter-order uncached configs in
  /// \p configs (no-op without a batch evaluator); afterwards every config
  /// in the list is a cache hit.
  void prefetch(const std::vector<TrialConfig>& configs);
  void assign_rank_and_crowding(std::vector<Individual>& pop) const;
  const Individual& tournament(const std::vector<Individual>& pop, Rng& rng) const;

  std::function<TrialRecord(const TrialConfig&)> evaluate_;
  std::function<std::vector<TrialRecord>(const std::vector<TrialConfig>&)>
      batch_evaluate_;
  Nsga2Options options_;
  SearchSpaceSpec space_;  ///< the lattice the options select
  TrialDatabase db_;
  std::map<std::string, std::size_t> cache_;  ///< lattice key -> db index
};

}  // namespace dcnas::nas
