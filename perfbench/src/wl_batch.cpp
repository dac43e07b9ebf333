/// watershed_batch: offline whole-watershed classification. One submitting
/// thread pushes every chip of a seeded synthetic tile through in-process
/// Server::submit, keeping at most queue_capacity requests in flight, with
/// a large max_batch. Full batches form, so plan/tensor work at large N
/// dominates and the wire layer does nothing.

#include <cmath>
#include <deque>
#include <filesystem>
#include <future>

#include "dcnas/serve/server.hpp"
#include "model.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dcnas::Tensor;
namespace serve = dcnas::serve;

const char* const kModel = "drainage";

// The workload's parameters; the report prints them.
/// Set-ups per run; setup_s is their median. One takes about a second,
/// so five cost little and outvote a slow one.
constexpr int kSetupReps = 5;
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::int64_t kMaxBatch = 32;
constexpr std::chrono::microseconds kMaxDelay{2000};
/// Per-replica pending bound, and so the most chips kept in flight.
constexpr std::size_t kQueueCapacity = 256;
/// Tile edge (cells) and chip grid step: 3,481 chips per pass.
constexpr std::int64_t kTile = 256;
constexpr std::int64_t kChipStride = 4;
/// Seeded chips per pass checked against the GraphExecutor reference.
constexpr std::int64_t kCheckedChips = 512;

struct Stack {
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;
  ~Stack() {
    if (server) server->shutdown();
  }
};

struct Pass {
  double seconds = 0.0;
  std::vector<double> sojourn_ms;  ///< per chip, submit -> result collected
};

}  // namespace

RunResult run_watershed_batch(const Options& options, SpanLog& spans) {
  RunResult result;
  serve::ServerOptions sopt;
  sopt.num_replicas = kReplicas;
  sopt.num_workers = kWorkers;
  sopt.batch.max_batch = kMaxBatch;
  sopt.batch.max_delay = kMaxDelay;
  sopt.batch.queue_capacity = kQueueCapacity;
  const std::string artifact = options.work_dir + "/batch-model.dcnx";

  std::unique_ptr<Stack> stack;
  std::vector<double> load_s;
  const Tensor warm = Tensor::zeros({1, kChannels, kChipSize, kChipSize});
  result.end_to_end["setup_s"] = timed_setups(kSetupReps, [&] {
    stack.reset();
    auto s = std::make_unique<Stack>();
    train_drainage_artifact(artifact);
    s->registry = std::make_shared<serve::ModelRegistry>();
    const Clock::time_point t0 = Clock::now();
    s->registry->load(kModel, artifact);
    load_s.push_back(s_since(t0));
    s->server = std::make_unique<serve::Server>(s->registry, sopt);
    (void)s->server->submit(kModel, warm).get();
    stack = std::move(s);
  });
  std::filesystem::remove(artifact);
  result.per_layer["serve.registry.load_s"] = median(load_s);

  // Inputs: every chip of a seeded tile; a seeded sample is checked
  // against the GraphExecutor reference on every pass, and every output
  // must be a finite row of the right width.
  const Tensor chips = tile_chips(sub_seed(options.seed, 2), kTile, kChipStride);
  const std::int64_t n = chips.dim(0);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) inputs.push_back(chip(chips, i));
  std::vector<std::int64_t> sample;
  {
    dcnas::Rng rng(sub_seed(options.seed, 3));
    for (std::int64_t i = 0; i < std::min(kCheckedChips, n); ++i) {
      sample.push_back(rng.uniform_int(0, n - 1));
    }
  }
  Tensor sample_chips =
      Tensor::zeros({static_cast<std::int64_t>(sample.size()), kChannels,
                     kChipSize, kChipSize});
  for (std::size_t j = 0; j < sample.size(); ++j) {
    std::copy_n(inputs[static_cast<std::size_t>(sample[j])].data(),
                kChannels * kChipSize * kChipSize,
                sample_chips.data() + j * kChannels * kChipSize * kChipSize);
  }
  const auto snapshot = stack->registry->snapshot(kModel);
  const Tensor reference = reference_outputs(*snapshot.exec, sample_chips);
  const std::int64_t classes = reference.dim(1);

  const std::size_t in_flight_cap = kQueueCapacity;
  std::map<serve::RejectReason, std::int64_t> refused;

  // One pass over the whole tile from a single submitting thread.
  auto run_pass = [&](bool traced) {
    Pass pass;
    std::vector<Tensor> outputs(static_cast<std::size_t>(n));
    std::deque<std::pair<std::int64_t, std::future<Tensor>>> in_flight;
    std::vector<Clock::time_point> submitted(static_cast<std::size_t>(n));
    pass.sojourn_ms.reserve(static_cast<std::size_t>(n));
    auto collect_front = [&] {
      auto [i, future] = std::move(in_flight.front());
      in_flight.pop_front();
      try {
        outputs[static_cast<std::size_t>(i)] = future.get();
      } catch (const serve::RejectedError& e) {
        ++refused[e.reason()];
      }
      const Clock::time_point done = Clock::now();
      pass.sojourn_ms.push_back(
          ms_between(submitted[static_cast<std::size_t>(i)], done));
      if (traced) {
        spans.record("serve.submit", submitted[static_cast<std::size_t>(i)],
                     done, static_cast<std::uint64_t>(i));
      }
    };
    const Clock::time_point t0 = Clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      if (in_flight.size() >= in_flight_cap) collect_front();
      submitted[static_cast<std::size_t>(i)] = Clock::now();
      try {
        in_flight.emplace_back(
            i, stack->server->submit(kModel, inputs[static_cast<std::size_t>(i)]));
      } catch (const serve::RejectedError& e) {
        ++refused[e.reason()];
      }
    }
    while (!in_flight.empty()) collect_front();
    pass.seconds = s_since(t0);

    result.attempted += n;
    std::int64_t bad = 0;
    for (const Tensor& out : outputs) {
      bool ok = out.numel() == classes;
      for (std::int64_t c = 0; ok && c < classes; ++c) {
        ok = std::isfinite(out[c]);
      }
      if (!ok) ++bad;
    }
    for (std::size_t j = 0; j < sample.size(); ++j) {
      const Tensor& out = outputs[static_cast<std::size_t>(sample[j])];
      if (out.numel() == classes &&
          !output_matches(out.data(), classes, reference,
                          static_cast<std::int64_t>(j))) {
        ++bad;
      }
    }
    result.failed += bad;
    if (bad > 0) {
      result.fail(std::to_string(bad) + " chip outputs missing, non-finite " +
                  "or off the GraphExecutor reference");
    }
    return pass;
  };

  (void)run_pass(false);  // warm: arenas at every batch size, caches
  result.attempted = 0;
  result.failed = 0;
  refused.clear();

  // Whole passes until the measuring time is used up (at least one).
  auto measure = [&](double seconds, bool traced) {
    std::vector<Pass> passes;
    const Clock::time_point t0 = Clock::now();
    do {
      passes.push_back(run_pass(traced));
    } while (s_since(t0) < seconds);
    return passes;
  };
  // Median over passes, so one pass slowed by a noisy neighbour does not
  // move the figure.
  auto throughput = [&](const std::vector<Pass>& passes) {
    std::vector<double> per_pass;
    for (const Pass& p : passes) {
      per_pass.push_back(static_cast<double>(n) / p.seconds);
    }
    return median(per_pass);
  };
  const double s = options.traced ? options.seconds / 2.0 : options.seconds;
  double untraced = 0.0;
  if (options.traced) untraced = throughput(measure(s, false));
  const auto allocs_before = plan_allocs();
  const auto histogram_before = stack->server->metrics().batch_histogram(kModel);
  const std::vector<Pass> passes = measure(s, options.traced);
  const auto allocs_delta = plan_allocs() - allocs_before;
  const auto histogram_after = stack->server->metrics().batch_histogram(kModel);

  std::vector<double> sojourn;
  for (const Pass& p : passes) {
    sojourn.insert(sojourn.end(), p.sojourn_ms.begin(), p.sojourn_ms.end());
  }
  const Percentiles lat = percentiles(sojourn);
  const double img_per_s = throughput(passes);
  result.end_to_end["throughput_per_s"] = img_per_s;
  result.end_to_end["latency_p50_ms"] = lat.p50;
  result.note("  closed loop, 1 submitting thread, <= " +
              std::to_string(in_flight_cap) + " in flight; server " +
              std::to_string(kReplicas) + " replicas x " +
              std::to_string(kWorkers) + " workers, max_batch " +
              std::to_string(kMaxBatch) + ", max_delay " +
              std::to_string(kMaxDelay.count()) + " us; tile " +
              std::to_string(kTile) + " cells -> " + std::to_string(n) +
              " chips/pass, " + std::to_string(passes.size()) + " passes, " +
              std::to_string(sample.size()) + " chips/pass checked");
  result.note(line("batch_img_per_s", img_per_s, "img/s"));
  result.note(line("chip latency p50 (n=" + std::to_string(lat.count) + ")",
                   lat.p50, "ms"));
  result.note(line("chip latency " + lat.tail_label(), lat.tail, "ms"));

  if (options.traced) {
    result.per_layer["trace.overhead_pct"] =
        untraced > 0.0 ? 100.0 * (untraced - img_per_s) / untraced : 0.0;
    result.per_layer["plan.exec.allocs"] = static_cast<double>(allocs_delta);
    const double mean_batch = mean_batch_size(histogram_before, histogram_after);
    result.per_layer["serve.batch.mean_size"] = mean_batch;
    result.per_layer["serve.batch.fill"] =
        mean_batch / static_cast<double>(kMaxBatch);
    result.per_layer["serve.submit_ms.p50"] = lat.p50;
    result.per_layer["serve.submit_ms.p99"] = percentile_or_tail(sojourn, 0.99);
    report_refusals(refused, result);

    const PlanProbe bmax =
        probe_plan(*snapshot.plan, chips, kMaxBatch, 1.0, spans);
    report_plan_probe(bmax, "bmax", result);
    result.per_layer["tensor.gemm_gflops.s4.n1"] = gemm_gflops_s4(1, 0.3, spans);
    result.per_layer["tensor.gemm_gflops.s4.n16"] =
        gemm_gflops_s4(16, 0.3, spans);
  }
  stack.reset();
  return result;
}

}  // namespace perfbench
