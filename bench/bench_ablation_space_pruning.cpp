/// Ablation for §5 observation (2): "confining the padding size to 1 can
/// effectively curtail the combination permutations" — we run the full
/// sweep and the padding-1-restricted sweep and compare front quality,
/// best accuracy, and trial counts.

#include "bench_common.hpp"
#include "dcnas/core/report.hpp"

using namespace dcnas;

namespace {

std::vector<nas::TrialConfig> padding1_lattice() {
  std::vector<nas::TrialConfig> out;
  for (const auto& c : nas::SearchSpaceSpec::paper().enumerate()) {
    if (c.padding == 1) out.push_back(c);
  }
  return out;
}

void BM_FullLatticeSweep(benchmark::State& state) {
  core::HwNasPipeline pipeline;
  const auto configs = nas::SearchSpaceSpec::paper().enumerate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run_sweep(configs).front_indices.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_FullLatticeSweep)->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_PrunedLatticeSweep(benchmark::State& state) {
  core::HwNasPipeline pipeline;
  const auto configs = padding1_lattice();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.run_sweep(configs).front_indices.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_PrunedLatticeSweep)->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  return dcnas::bench::run(argc, argv, [] {
    core::HwNasPipeline pipeline;
    const auto full = pipeline.run_full_sweep();
    const auto pruned = pipeline.run_sweep(padding1_lattice());

    auto best_of = [](const core::SweepResult& s) {
      return s.trials.best_accuracy().accuracy;
    };
    auto fastest_of = [](const core::SweepResult& s) {
      double f = 1e18;
      for (auto i : s.front_indices) {
        f = std::min(f, s.trials.record(i).latency_ms);
      }
      return f;
    };
    std::printf("Ablation: search-space pruning (padding fixed to 1)\n\n");
    std::printf("  %-22s %10s %10s %12s %12s\n", "space", "trials", "front",
                "best acc(%)", "fastest(ms)");
    std::printf("  %-22s %10zu %10zu %12.2f %12.2f\n", "full (Fig. 2)",
                full.trials.size(), full.front_indices.size(), best_of(full),
                fastest_of(full));
    std::printf("  %-22s %10zu %10zu %12.2f %12.2f\n", "padding==1",
                pruned.trials.size(), pruned.front_indices.size(),
                best_of(pruned), fastest_of(pruned));
    std::printf("\npruning removes 2/3 of the lattice while keeping best "
                "accuracy within %.2f points\nand the fastest Pareto model "
                "within %.2f ms — supporting the paper's Discussion.\n",
                best_of(full) - best_of(pruned),
                fastest_of(pruned) - fastest_of(full));
  });
}
