/// wire_interactive: the edge/GIS client path. Poisson arrivals at fixed
/// absolute rates over at most nproc unix-socket WireClient connections,
/// against the serve_daemon defaults (2 replicas x 2 workers, max_batch 8,
/// max_delay 2 ms). With at most four requests in flight a batch never
/// fills, so each request may wait out max_delay: batching work should
/// barely move this workload.
///
/// Requests carry no SLO tag, so the server sheds nothing: past capacity
/// the backlog shows as late answers. A refusal, a transport error or a
/// wrong output counts as a failed operation, and a wrong output also
/// fails the run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <unistd.h>

#include "dcnas/serve/wire.hpp"
#include "load.hpp"
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
/// Fixed absolute arrival rates (img/s), never scaled by a measured
/// capacity. The middle one is nominal; the top one overloads the server.
constexpr double kRates[] = {100, 200, 300, 400, 500, 800};
constexpr double kNominalRate = 300;
constexpr double kOverloadRate = 800;
constexpr double kLimitMs = 25.0;  ///< from the scheduled send
constexpr std::size_t kConnections = 4;
/// serve_daemon's defaults.
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::int64_t kMaxBatch = 8;
constexpr std::chrono::microseconds kMaxDelay{2000};
/// Chips cut from the seeded tile; arrival i sends chip i mod kPool.
constexpr std::int64_t kPool = 256;
/// Share of the measured time the nominal rate's schedule gets (latency),
/// and the overload rate's (throughput); the other rates share the rest
/// but 14%, which the overload backlog takes to drain.
constexpr double kNominalShare = 0.45;
constexpr double kOverloadShare = 0.21;
constexpr double kRungsShare = 0.20;

/// One running serving stack: registry -> Server -> WireServer.
struct Stack {
  std::shared_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::WireServer> wire;
  ~Stack() {
    if (wire) wire->stop();
    if (server) server->shutdown();
  }
};

serve::ServerOptions server_options() {
  serve::ServerOptions o;
  o.num_replicas = kReplicas;
  o.num_workers = kWorkers;
  o.batch.max_batch = kMaxBatch;
  o.batch.max_delay = kMaxDelay;
  return o;
}

struct Phase {
  double rate = 0.0;
  std::vector<double> schedule;
  LoadSummary summary;
  std::vector<RequestRecord> records;
};

}  // namespace

RunResult run_wire_interactive(const Options& options, SpanLog& spans) {
  RunResult result;
  const std::size_t connections =
      std::min(kConnections, max_sender_threads());
  const serve::ServerOptions sopt = server_options();
  const std::string artifact = options.work_dir + "/wire-model.dcnx";
  const std::string socket_path =
      options.work_dir + "/wire-" + std::to_string(::getpid()) + ".sock";

  // --- set-up: train + save, load + verify + compile, serve, first answer.
  std::unique_ptr<Stack> stack;
  std::vector<double> load_s;
  const Tensor warm = Tensor::zeros({1, kChannels, kChipSize, kChipSize});
  result.end_to_end["setup_s"] = timed_setups(kSetupReps, [&] {
    stack.reset();
    std::filesystem::remove(socket_path);
    auto s = std::make_unique<Stack>();
    train_drainage_artifact(artifact);
    s->registry = std::make_shared<serve::ModelRegistry>();
    const Clock::time_point t0 = Clock::now();
    s->registry->load(kModel, artifact);
    load_s.push_back(s_since(t0));
    s->server = std::make_unique<serve::Server>(s->registry, sopt);
    serve::WireServerOptions wopt;
    wopt.unix_path = socket_path;
    s->wire = std::make_unique<serve::WireServer>(*s->server, wopt);
    auto client = serve::WireClient::connect_unix(socket_path);
    (void)client.infer(kModel, warm);
    stack = std::move(s);
  });
  std::filesystem::remove(artifact);
  result.per_layer["serve.registry.load_s"] = median(load_s);

  // --- inputs: chips of a seeded tile, and their reference outputs.
  const Tensor chips = tile_chips(sub_seed(options.seed, 1), 128, 4, kPool);
  const auto snapshot = stack->registry->snapshot(kModel);
  const Tensor reference = reference_outputs(*snapshot.exec, chips);
  const std::int64_t pool = chips.dim(0);
  std::vector<Tensor> inputs;
  for (std::int64_t i = 0; i < pool; ++i) inputs.push_back(chip(chips, i));

  std::vector<serve::WireClient> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.push_back(serve::WireClient::connect_unix(socket_path));
  }
  std::map<serve::RejectReason, std::int64_t> refused;
  std::mutex result_mu;

  // One open-loop phase at a fixed rate; arrival i sends chip i % pool.
  auto run_phase = [&](double rate, double seconds, std::uint64_t purpose,
                       bool traced) {
    Phase p;
    p.rate = rate;
    p.schedule =
        poisson_schedule(rate, seconds, sub_seed(options.seed, purpose));
    Clock::time_point origin;
    p.records = run_open_loop(
        p.schedule, connections,
        [&](std::size_t conn, std::size_t i) {
          const auto idx = static_cast<std::int64_t>(i) % pool;
          const Clock::time_point t0 = Clock::now();
          const serve::WireResponse r = clients[conn].infer_raw(
              kModel, inputs[static_cast<std::size_t>(idx)]);
          const Clock::time_point t1 = Clock::now();
          if (traced) spans.record("wire.infer", t0, t1, i);
          const std::lock_guard<std::mutex> lock(result_mu);
          return check_wire_response(r, reference, idx, result, refused);
        },
        &origin);
    if (traced) {
      for (std::size_t i = 0; i < p.records.size(); ++i) {
        const RequestRecord& r = p.records[i];
        const auto at = [&](double ms) {
          return origin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(ms));
        };
        spans.record("load.arrival", at(r.scheduled_ms), at(r.sent_ms), i);
      }
    }
    p.summary = account(p.records, kLimitMs);
    result.attempted += static_cast<std::int64_t>(p.summary.attempted);
    result.failed +=
        static_cast<std::int64_t>(p.summary.refused + p.summary.failed);
    return p;
  };

  // Warm the serving path (arenas, caches) at the nominal rate; untimed.
  (void)run_phase(kNominalRate, 0.3, 99, false);
  result.attempted = 0;
  result.failed = 0;
  refused.clear();

  // In-process twin of a phase: the same schedule and chips through
  // Server::submit, so wire overhead = wire - in-process.
  std::vector<double> submit_ms;
  std::vector<RequestRecord> inproc;
  auto run_twin = [&](const std::vector<double>& schedule) {
    submit_ms.assign(schedule.size(), NAN);
    inproc = run_open_loop(
        schedule, connections, [&](std::size_t, std::size_t i) {
          const auto idx = static_cast<std::int64_t>(i) % pool;
          const Clock::time_point t0 = Clock::now();
          Tensor out = stack->server
                           ->submit(kModel, inputs[static_cast<std::size_t>(idx)])
                           .get();
          const Clock::time_point t1 = Clock::now();
          spans.record("serve.submit", t0, t1, i);
          submit_ms[i] = ms_between(t0, t1);
          return output_matches(out.data(), out.numel(), reference, idx)
                     ? Outcome::kOk
                     : Outcome::kFailed;
        });
  };

  // --- measured phases. A traced run measures everything at half length
  // twice, untraced then traced. The traced nominal phase also keeps the
  // server's own latencies and batch sizes for its requests, and its twin
  // runs right after it, so both see the host in the same state.
  const double s = options.traced ? options.seconds / 2.0 : options.seconds;
  constexpr std::size_t kRungs = std::size(kRates) - 2;
  std::vector<Phase> ladder;
  std::vector<double> nominal_server_ms;
  std::map<std::int64_t, std::int64_t> histogram_before, histogram_after;
  auto measure = [&](bool traced) {
    ladder.clear();
    for (std::size_t k = 0; k < std::size(kRates); ++k) {
      const double rate = kRates[k];
      const double secs = rate == kNominalRate    ? kNominalShare * s
                          : rate == kOverloadRate ? kOverloadShare * s
                                                  : kRungsShare * s / kRungs;
      const bool nominal_traced = traced && rate == kNominalRate;
      std::size_t server_before = 0;
      if (nominal_traced) {
        server_before = server_latency_ms(*stack->server, kModel).size();
        histogram_before = stack->server->metrics().batch_histogram(kModel);
      }
      ladder.push_back(run_phase(rate, secs, 10 + k, traced));
      if (nominal_traced) {
        histogram_after = stack->server->metrics().batch_histogram(kModel);
        const std::vector<double> all =
            server_latency_ms(*stack->server, kModel);
        nominal_server_ms.assign(
            all.begin() + static_cast<std::ptrdiff_t>(server_before),
            all.end());
        run_twin(ladder.back().schedule);
      }
    }
  };
  const auto phase_at = [&](double rate) -> const Phase& {
    return *std::find_if(ladder.begin(), ladder.end(),
                         [&](const Phase& p) { return p.rate == rate; });
  };

  double untraced_p50 = 0.0;
  if (options.traced) {
    measure(false);
    untraced_p50 = phase_at(kNominalRate).summary.sojourn_ms.p50;
  }
  const auto allocs_before = plan_allocs();
  measure(options.traced);
  const auto allocs_delta = plan_allocs() - allocs_before;

  const Phase& nominal = phase_at(kNominalRate);
  const Phase& overload = phase_at(kOverloadRate);
  double capacity = 0.0;
  for (const Phase& p : ladder) {
    if (p.summary.sojourn_ms.tail > kLimitMs || p.summary.backlog_grew) break;
    capacity = p.rate;
  }
  // Goodput at overload collapses once the generator's backlog makes every
  // answer late, so it swings with small timing changes; the answered rate
  // at overload (the capacity of nproc connections) is the steady number.
  result.end_to_end["throughput_per_s"] = overload.summary.throughput_per_s;
  result.end_to_end["latency_p50_ms"] = nominal.summary.sojourn_ms.p50;

  char config[256];
  std::snprintf(config, sizeof(config),
                "  open loop over %zu unix-socket connections (nproc %zu), "
                "limit %.0f ms from the scheduled send; server %zu replicas "
                "x %zu workers, max_batch %lld, max_delay %lld us",
                connections, max_sender_threads(), kLimitMs, kReplicas,
                kWorkers, static_cast<long long>(kMaxBatch),
                static_cast<long long>(kMaxDelay.count()));
  result.note(config);
  result.note("    rate/s  attempted  ok<=limit  late  refused  "
              "failed   p50 ms   tail ms (pct, n)   gen-late tail ms");
  for (const Phase& p : ladder) {
    const LoadSummary& m = p.summary;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    %6.0f  %9zu  %9zu  %4zu  %7zu  %6zu  %7.3f  "
                  "%8.3f (%s, %zu)  %8.3f%s",
                  p.rate, m.attempted, m.ok_within, m.late, m.refused,
                  m.failed, m.sojourn_ms.p50, m.sojourn_ms.tail,
                  m.sojourn_ms.tail_label().c_str(), m.sojourn_ms.count,
                  m.gen_late_ms.tail, m.backlog_grew ? "  backlog" : "");
    result.note(buf);
  }
  const std::string at_nominal = " @" + std::to_string(int(kNominalRate)) + "/s";
  const std::string at_overload =
      " @" + std::to_string(int(kOverloadRate)) + "/s";
  result.note(line("wire_p50_ms" + at_nominal, nominal.summary.sojourn_ms.p50,
                   "ms"));
  result.note(line("wire_p99_ms" + at_nominal, nominal.summary.sojourn_p99_ms,
                   "ms"));
  result.note(line("wire_goodput_img_per_s" + at_overload,
                   overload.summary.goodput_per_s, "img/s"));
  result.note(line("wire_answered_img_per_s" + at_overload,
                   overload.summary.throughput_per_s, "img/s"));
  result.note(line("wire_capacity_img_per_s", capacity, "img/s"));

  // --- per-layer numbers (traced run only).
  if (options.traced) {
    const LoadSummary& nm = nominal.summary;
    result.per_layer["trace.overhead_pct"] =
        std::isfinite(untraced_p50) && std::isfinite(nm.sojourn_ms.p50) &&
                untraced_p50 > 0.0
            ? 100.0 * (nm.sojourn_ms.p50 - untraced_p50) / untraced_p50
            : 0.0;
    result.per_layer["plan.exec.allocs"] = static_cast<double>(allocs_delta);
    result.per_layer["wire.gen_late_ms.p99"] = nm.gen_late_p99_ms;
    const double mean_batch = mean_batch_size(histogram_before, histogram_after);
    result.per_layer["serve.batch.mean_size"] = mean_batch;
    result.per_layer["serve.batch.fill"] =
        mean_batch / static_cast<double>(kMaxBatch);
    report_refusals(refused, result);

    std::vector<double> submit_ok, overhead;
    for (std::size_t i = 0; i < inproc.size(); ++i) {
      if (inproc[i].outcome == Outcome::kFailed) {
        result.fail("in-process output mismatch on arrival " +
                    std::to_string(i));
      }
      if (inproc[i].outcome != Outcome::kOk) continue;
      submit_ok.push_back(submit_ms[i]);
      const RequestRecord& w = nominal.records[i];
      if (w.outcome == Outcome::kOk) {
        overhead.push_back((w.done_ms - w.sent_ms) - submit_ms[i]);
      }
    }
    const double submit_p50 = median(submit_ok);
    result.per_layer["serve.submit_ms.p50"] = submit_p50;
    result.per_layer["serve.submit_ms.p99"] =
        percentile_or_tail(submit_ok, 0.99);
    result.per_layer["wire.overhead_ms.p50"] = median(overhead);
    result.per_layer["wire.overhead_ms.p99"] =
        percentile_or_tail(overhead, 0.99);

    // Plan cost at batch 1, and at the batch size the batcher formed.
    const PlanProbe b1 = probe_plan(*snapshot.plan, chips, 1, 0.5, spans);
    report_plan_probe(b1, "b1", result);
    const auto observed_batch =
        std::max<std::int64_t>(1, std::llround(mean_batch));
    const double plan_ms =
        observed_batch == 1
            ? b1.run_ms_per_img
            : probe_plan(*snapshot.plan, chips, observed_batch, 0.3, spans)
                      .run_ms_per_img *
                  static_cast<double>(observed_batch);
    result.per_layer["serve.wait_ms.p50"] = submit_p50 - plan_ms;

    // Layer-sum check on the traced nominal phase. The wire sojourn (send
    // -> response at the client) should be the wire overhead (client-side
    // twin above) plus the server's own admission -> response time for the
    // same requests (its ServingMetrics), which is its wait plus the plan
    // run. The server's time is measured apart from the twin, so the check
    // fails when the twin does not reproduce what the wire requests saw in
    // the server, i.e. when the overhead is attributed wrongly.
    std::vector<double> wire_service;
    for (const auto& r : nominal.records) {
      if (r.outcome == Outcome::kOk) wire_service.push_back(r.done_ms - r.sent_ms);
    }
    const double wire_p50 = median(wire_service);
    const double server_p50 = median(nominal_server_ms);
    const double server_wait = server_p50 - plan_ms;
    const double parts = median(overhead) + server_wait + plan_ms;
    constexpr double kSplitTolerance = 0.25;
    result.note(line("layer split: wire send->response p50", wire_p50, "ms"));
    result.note(line("  wire overhead p50", median(overhead), "ms"));
    result.note(line("  serve wait p50 (server's own)", server_wait, "ms"));
    result.note(line("  plan at batch " + std::to_string(observed_batch),
                     plan_ms, "ms"));
    result.note(line("  = sum", parts, "ms"));
    if (nominal_server_ms.size() != nominal.summary.ok ||
        std::fabs(parts - wire_p50) > kSplitTolerance * wire_p50 + 0.25) {
      result.fail("wire overhead + serve wait + plan time (" +
                  std::to_string(parts) + " ms over " +
                  std::to_string(nominal_server_ms.size()) +
                  " server-side samples) does not account for the wire " +
                  "sojourn (" + std::to_string(wire_p50) + " ms)");
    }
  }
  clients.clear();
  stack.reset();
  std::filesystem::remove(socket_path);
  return result;
}

}  // namespace perfbench
