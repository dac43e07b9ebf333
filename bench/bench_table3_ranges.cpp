/// Table 3 reproduction: objective value ranges over the full 1,728-trial
/// sweep, plus sweep-throughput microbenchmarks.

#include "bench_common.hpp"
#include "dcnas/core/report.hpp"

using namespace dcnas;

namespace {

void BM_SingleTrial(benchmark::State& state) {
  nas::OracleEvaluator eval;
  const nas::Experiment exp(eval, latency::NnMeter::shared());
  const auto cfg = nas::TrialConfig::baseline(7, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp.run_trial(cfg).accuracy);
  }
  state.SetLabel("oracle accuracy + 4-device latency + memory");
}
BENCHMARK(BM_SingleTrial)->Unit(benchmark::kMicrosecond);

void BM_FullSweep(benchmark::State& state) {
  core::HwNasPipeline pipeline;
  for (auto _ : state) {
    const auto sweep = pipeline.run_full_sweep();
    benchmark::DoNotOptimize(sweep.front_indices.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          nas::SearchSpaceSpec::paper().size());
  state.SetLabel("1728 trials incl. Pareto filter");
}
BENCHMARK(BM_FullSweep)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  return dcnas::bench::run(argc, argv, [] {
    core::HwNasPipeline pipeline;
    const auto sweep = pipeline.run_full_sweep();
    std::printf("%s\n", core::table3_text(sweep).c_str());
    std::printf("note: the latency maximum comes from nn-Meter-style "
                "*predictions*, which\nsaturate outside the predictor "
                "training range — see EXPERIMENTS.md.\n");
  });
}
