#include "dcnas/nas/strategies.hpp"

#include <algorithm>

#include "dcnas/common/error.hpp"

namespace dcnas::nas {

namespace {

/// The paper lattice narrowed to one input combination: its 288
/// architectures, in lattice order.
SearchSpaceSpec combo_space(int channels, int batch) {
  TrialConfig::baseline(channels, batch);  // rejects an off-paper combination
  SearchSpaceSpec space = SearchSpaceSpec::paper();
  space.channels = {channels};
  space.batches = {batch};
  return space;
}

}  // namespace

GridStrategy::GridStrategy(int channels, int batch)
    : lattice_(combo_space(channels, batch).enumerate()) {}

TrialConfig GridStrategy::ask() {
  DCNAS_CHECK(!exhausted(), "grid strategy exhausted");
  return lattice_[cursor_++];
}

RandomStrategy::RandomStrategy(int channels, int batch, std::uint64_t seed)
    : lattice_(combo_space(channels, batch).enumerate()) {
  Rng rng(seed);
  rng.shuffle(lattice_);
}

TrialConfig RandomStrategy::ask() {
  DCNAS_CHECK(!exhausted(), "random strategy exhausted");
  return lattice_[cursor_++];
}

EvolutionStrategy::EvolutionStrategy(int channels, int batch,
                                     const Options& options)
    : space_(combo_space(channels, batch)),
      options_(options),
      rng_(options.seed) {
  DCNAS_CHECK(options_.population_size >= 2, "population too small");
  DCNAS_CHECK(options_.tournament_size >= 1 &&
                  options_.tournament_size <= options_.population_size,
              "bad tournament size");
}

TrialConfig EvolutionStrategy::mutate(const TrialConfig& parent,
                                      Rng& rng) const {
  TrialConfig child = space_.mutate(parent, rng);
  child.validate();
  return child;
}

TrialConfig EvolutionStrategy::ask() {
  if (population_.size() < options_.population_size) {
    return space_.sample(rng_);  // warm-up
  }
  // Tournament selection over random members.
  const Member* best = nullptr;
  for (std::size_t t = 0; t < options_.tournament_size; ++t) {
    const auto idx = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(population_.size()) - 1));
    if (!best || population_[idx].fitness > best->fitness) {
      best = &population_[idx];
    }
  }
  return mutate(best->config, rng_);
}

void EvolutionStrategy::tell(const TrialConfig& config, double fitness) {
  population_.push_back({config, fitness});
  while (population_.size() > options_.population_size) {
    population_.pop_front();  // aging: retire the oldest
  }
}

}  // namespace dcnas::nas
