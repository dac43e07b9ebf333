#include "dcnas/nas/nsga2.hpp"

#include <algorithm>
#include <set>

namespace dcnas::nas {

namespace {

pareto::Objectives objectives_of(const TrialRecord& r) {
  return {r.accuracy, r.latency_ms, r.memory_mb};
}

/// The lattice NSGA-II searches: the paper's, at the fixed (7, 16) input
/// combination unless input combos are searched, plus int8 when precision
/// is.
SearchSpaceSpec search_space(const Nsga2Options& options) {
  SearchSpaceSpec space = SearchSpaceSpec::paper();
  if (!options.search_input_combos) {
    space.channels = {7};
    space.batches = {16};
  }
  if (options.search_precision) space.precisions = {0, 1};
  return space;
}

}  // namespace

Nsga2::Nsga2(std::function<TrialRecord(const TrialConfig&)> evaluate,
             const Nsga2Options& options)
    : evaluate_(std::move(evaluate)),
      options_(options),
      space_(search_space(options)) {
  DCNAS_CHECK(static_cast<bool>(evaluate_), "NSGA-II needs an evaluator");
  DCNAS_CHECK(options_.population_size >= 4, "population too small");
  DCNAS_CHECK(options_.generations >= 1, "need at least one generation");
  DCNAS_CHECK(options_.crossover_rate >= 0.0 && options_.crossover_rate <= 1.0,
              "crossover rate must be a probability");
}

Nsga2::Nsga2(const Experiment& experiment, const Nsga2Options& options)
    : Nsga2([&experiment](const TrialConfig& c) { return experiment.run_trial(c); },
            options) {}

Nsga2::Nsga2(const Experiment& experiment, TrialScheduler& scheduler,
             const Nsga2Options& options)
    : Nsga2(experiment, options) {
  DCNAS_CHECK(!scheduler.options().pruner.enabled,
              "NSGA-II batch evaluation maps records to configs 1:1; run the "
              "scheduler with the median-stop pruner disabled");
  batch_evaluate_ =
      [&scheduler](const std::vector<TrialConfig>& configs) {
        const TrialDatabase batch = scheduler.run(configs);
        return std::vector<TrialRecord>(batch.records().begin(),
                                        batch.records().end());
      };
}

TrialConfig Nsga2::crossover(const TrialConfig& a, const TrialConfig& b,
                             Rng& rng) const {
  TrialConfig child = space_.crossover(a, b, rng);
  child.validate();
  return child;
}

TrialConfig Nsga2::mutate(const TrialConfig& parent, Rng& rng) const {
  TrialConfig child = space_.mutate(parent, rng);
  child.validate();
  return child;
}

const TrialRecord& Nsga2::evaluate_cached(const TrialConfig& config) {
  const std::string key = config.lattice_key();
  const auto it = cache_.find(key);
  if (it != cache_.end()) return db_.record(it->second);
  TrialRecord record = evaluate_(config);
  db_.add(std::move(record));
  cache_.emplace(key, db_.size() - 1);
  return db_.record(db_.size() - 1);
}

void Nsga2::prefetch(const std::vector<TrialConfig>& configs) {
  if (!batch_evaluate_) return;
  // First-encounter order matches the serial evaluate_cached sequence, so
  // the database fills in exactly the same order.
  std::vector<TrialConfig> fresh;
  std::set<std::string> seen;
  for (const auto& cfg : configs) {
    const std::string key = cfg.lattice_key();
    if (cache_.count(key) != 0 || !seen.insert(key).second) continue;
    fresh.push_back(cfg);
  }
  if (fresh.empty()) return;
  const std::vector<TrialRecord> records = batch_evaluate_(fresh);
  DCNAS_CHECK(records.size() == fresh.size(),
              "batch evaluator returned " + std::to_string(records.size()) +
                  " records for " + std::to_string(fresh.size()) + " configs");
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    db_.add(records[i]);
    cache_.emplace(fresh[i].lattice_key(), db_.size() - 1);
  }
}

void Nsga2::assign_rank_and_crowding(std::vector<Individual>& pop) const {
  std::vector<pareto::Objectives> pts;
  pts.reserve(pop.size());
  for (const auto& ind : pop) pts.push_back(ind.objectives);
  const auto fronts = pareto::fast_non_dominated_sort(pts, options_.dominance);
  for (std::size_t layer = 0; layer < fronts.size(); ++layer) {
    const auto crowding = pareto::crowding_distances(pts, fronts[layer]);
    for (std::size_t k = 0; k < fronts[layer].size(); ++k) {
      pop[fronts[layer][k]].rank = static_cast<int>(layer);
      pop[fronts[layer][k]].crowding = crowding[k];
    }
  }
}

const Nsga2::Individual& Nsga2::tournament(const std::vector<Individual>& pop,
                                           Rng& rng) const {
  auto pick = [&]() -> const Individual& {
    return pop[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
  };
  const Individual& a = pick();
  const Individual& b = pick();
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding >= b.crowding ? a : b;
}

Nsga2Result Nsga2::run() {
  Rng rng(options_.seed);

  auto make_individual = [&](const TrialConfig& cfg) {
    Individual ind;
    ind.config = cfg;
    const std::string key = cfg.lattice_key();
    const TrialRecord& rec = evaluate_cached(cfg);
    ind.record_index = cache_.at(key);
    ind.objectives = objectives_of(rec);
    return ind;
  };

  // Initial population: uniform lattice samples. Config generation consumes
  // the RNG, evaluation does not — so every phase generates its configs
  // first, prefetches the uncached ones in one (possibly parallel) batch,
  // then builds the individuals off cache hits. Serial and batch evaluation
  // therefore walk identical RNG and database sequences.
  std::vector<TrialConfig> init_configs;
  while (init_configs.size() < options_.population_size) {
    init_configs.push_back(space_.sample(rng));
  }
  prefetch(init_configs);
  std::vector<Individual> pop;
  pop.reserve(init_configs.size());
  for (const auto& cfg : init_configs) pop.push_back(make_individual(cfg));
  assign_rank_and_crowding(pop);

  Nsga2Result result;
  for (int gen = 0; gen < options_.generations; ++gen) {
    // Offspring: generate every child config, then evaluate as one batch.
    std::vector<TrialConfig> child_configs;
    while (child_configs.size() < options_.population_size) {
      const Individual& p1 = tournament(pop, rng);
      TrialConfig child;
      if (rng.bernoulli(options_.crossover_rate)) {
        const Individual& p2 = tournament(pop, rng);
        child = crossover(p1.config, p2.config, rng);
        child = mutate(child, rng);
      } else {
        child = mutate(p1.config, rng);
      }
      child_configs.push_back(child);
    }
    prefetch(child_configs);
    std::vector<Individual> offspring;
    offspring.reserve(child_configs.size());
    for (const auto& cfg : child_configs) offspring.push_back(make_individual(cfg));
    // Environmental selection over parents + offspring.
    std::vector<Individual> merged = pop;
    merged.insert(merged.end(), offspring.begin(), offspring.end());
    assign_rank_and_crowding(merged);
    std::sort(merged.begin(), merged.end(),
              [](const Individual& a, const Individual& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.crowding > b.crowding;
              });
    merged.resize(options_.population_size);
    pop = std::move(merged);
    assign_rank_and_crowding(pop);

    // Progress metric: hypervolume of the population's first front,
    // skipping points outside the reference octant.
    std::vector<pareto::Objectives> front_pts;
    for (const auto& ind : pop) {
      if (ind.rank == 0 && ind.objectives.accuracy >= options_.reference.accuracy &&
          ind.objectives.latency_ms <= options_.reference.latency_ms &&
          ind.objectives.memory_mb <= options_.reference.memory_mb) {
        front_pts.push_back(ind.objectives);
      }
    }
    result.hypervolume_history.push_back(
        front_pts.empty() ? 0.0
                          : pareto::hypervolume(front_pts, options_.reference));
  }

  // Final front over everything evaluated.
  std::vector<pareto::Objectives> all;
  for (const auto& r : db_.records()) all.push_back(objectives_of(r));
  result.front = pareto::non_dominated_indices(all, options_.dominance);
  result.unique_evaluations = db_.size();
  result.evaluated = std::move(db_);
  return result;
}

}  // namespace dcnas::nas
