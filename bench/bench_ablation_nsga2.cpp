/// Ablation: NSGA-II multi-objective search vs random sampling at the same
/// unique-trial budget vs the paper's exhaustive 1,728-trial grid. Reports
/// front hypervolume and best accuracy per approach — quantifying the
/// "resource-efficient NAS" the paper's Discussion proposes.

#include "bench_common.hpp"
#include "dcnas/core/pipeline.hpp"
#include "dcnas/nas/nsga2.hpp"

using namespace dcnas;

namespace {

const pareto::Objectives kReference{70.0, 500.0, 50.0};

double front_hypervolume(const nas::TrialDatabase& db,
                         const std::vector<std::size_t>& front) {
  std::vector<pareto::Objectives> pts;
  for (std::size_t i : front) {
    const auto& r = db.record(i);
    if (r.accuracy >= kReference.accuracy &&
        r.latency_ms <= kReference.latency_ms &&
        r.memory_mb <= kReference.memory_mb) {
      pts.push_back({r.accuracy, r.latency_ms, r.memory_mb});
    }
  }
  return pts.empty() ? 0.0 : pareto::hypervolume(pts, kReference);
}

void BM_Nsga2Search(benchmark::State& state) {
  nas::OracleEvaluator eval;
  const nas::Experiment experiment(eval, latency::NnMeter::shared());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    nas::Nsga2Options opt;
    opt.population_size = 24;
    opt.generations = 10;
    opt.seed = seed++;
    nas::Nsga2 search(experiment, opt);
    benchmark::DoNotOptimize(search.run().unique_evaluations);
  }
}
BENCHMARK(BM_Nsga2Search)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dcnas::bench::run(argc, argv, [] {
    nas::OracleEvaluator eval;
    const nas::Experiment experiment(eval, latency::NnMeter::shared());

    // NSGA-II, each generation batch-evaluated through the parallel
    // scheduler (same database as the serial constructor).
    nas::Nsga2Options opt;
    opt.population_size = 24;
    opt.generations = 10;
    opt.seed = 7;
    nas::TrialScheduler scheduler(experiment);
    nas::Nsga2 search(experiment, scheduler, opt);
    const nas::Nsga2Result evo = search.run();
    const double evo_hv = front_hypervolume(evo.evaluated, evo.front);

    // Random baseline with the same number of unique trials.
    Rng rng(7);
    auto lattice = nas::SearchSpaceSpec::paper().enumerate();
    rng.shuffle(lattice);
    lattice.resize(evo.unique_evaluations);
    const nas::TrialDatabase random_db = experiment.run_all(lattice);
    std::vector<pareto::Objectives> random_pts;
    for (const auto& r : random_db.records()) {
      random_pts.push_back({r.accuracy, r.latency_ms, r.memory_mb});
    }
    const auto random_front =
        pareto::non_dominated_indices(random_pts, pareto::DominanceMode::kWeak);
    const double random_hv = front_hypervolume(random_db, random_front);

    // Exhaustive grid (the paper's protocol).
    core::HwNasPipeline pipeline;
    const auto grid = pipeline.run_full_sweep();
    std::vector<std::size_t> grid_front = grid.front_indices;
    const double grid_hv = front_hypervolume(grid.trials, grid_front);

    std::printf("Ablation: NSGA-II vs random vs exhaustive grid\n\n");
    std::printf("  %-12s %10s %12s %14s %10s\n", "search", "trials", "front",
                "hypervolume", "best acc");
    std::printf("  %-12s %10zu %12zu %14.0f %10.2f\n", "NSGA-II",
                evo.unique_evaluations, evo.front.size(), evo_hv,
                evo.evaluated.best_accuracy().accuracy);
    std::printf("  %-12s %10zu %12zu %14.0f %10.2f\n", "random",
                random_db.size(), random_front.size(), random_hv,
                random_db.best_accuracy().accuracy);
    std::printf("  %-12s %10zu %12zu %14.0f %10.2f\n", "grid (paper)",
                grid.trials.size(), grid_front.size(), grid_hv,
                grid.trials.best_accuracy().accuracy);
    std::printf("\nhypervolume progression (NSGA-II, per generation):");
    for (double hv : evo.hypervolume_history) std::printf(" %.0f", hv);
    std::printf("\n\nNSGA-II recovers ~%.0f%% of the grid's front "
                "hypervolume with ~%.0f%% of its trials.\n",
                100.0 * evo_hv / grid_hv,
                100.0 * static_cast<double>(evo.unique_evaluations) / 1728.0);
  });
}
