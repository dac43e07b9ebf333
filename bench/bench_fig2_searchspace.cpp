/// Figure 2 reproduction: the NAS search-space inventory and its lattice
/// arithmetic (288 per combination, 1,728 total, 180 unique), plus
/// enumeration microbenchmarks.

#include <set>

#include "bench_common.hpp"
#include "dcnas/core/report.hpp"

using namespace dcnas;

namespace {

void BM_EnumerateLattice(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(nas::SearchSpaceSpec::paper().enumerate().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          nas::SearchSpaceSpec::paper().size());
}
BENCHMARK(BM_EnumerateLattice)->Unit(benchmark::kMicrosecond);

void BM_CanonicalDedup(benchmark::State& state) {
  const auto all = nas::SearchSpaceSpec::paper().enumerate();
  for (auto _ : state) {
    std::set<std::string> keys;
    for (const auto& c : all) keys.insert(c.canonical_arch_key());
    benchmark::DoNotOptimize(keys.size());
  }
}
BENCHMARK(BM_CanonicalDedup)->Unit(benchmark::kMillisecond);

void BM_ConfigToModelGraph(benchmark::State& state) {
  const auto cfg = nas::TrialConfig::baseline(7, 16);
  for (auto _ : state) {
    const auto g = graph::build_resnet_graph(cfg.to_resnet_config());
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_ConfigToModelGraph)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return dcnas::bench::run(argc, argv, [] {
    std::printf("%s", core::fig2_text().c_str());
    // Per-combination dedup accounting.
    std::set<std::string> unique;
    for (const auto& c : nas::SearchSpaceSpec::paper().enumerate()) {
      unique.insert(std::to_string(c.batch) + "|" + c.canonical_arch_key());
    }
    std::printf("  unique (architecture x input combination) pairs: %zu of "
                "1728 lattice trials\n", unique.size());
  });
}
