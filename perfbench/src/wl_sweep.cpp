/// nas_sweep: the paper's search loop on the wide lattice. Each sweep
/// streams the same 1-in-stride sample (the seed picks the offset) through
/// TrialScheduler::run_streamed into a fresh TrialStore, then assembles the
/// database and takes its Pareto front. Accuracy comes from the oracle
/// evaluator, so the sweep runs nas, latency, the store's commit path and
/// pareto, and no plan code.
///
/// The store lives in the checkout's build directory: the benchmark may
/// write nowhere else. The timed sweeps commit without fsync (kFsyncStore):
/// with fsync on, a shared disk made the sweep time swing by a fifth
/// between runs. The traced run times fsync'd appends on their own.
/// Every sweep gets a fresh store and a fresh Experiment, so no sweep
/// profits from the previous one's caches.

#include <filesystem>
#include <optional>
#include <thread>

#include "dcnas/common/strings.hpp"
#include "dcnas/core/pipeline.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/nas/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace nas = dcnas::nas;
namespace fs = std::filesystem;

// The workload's parameters; the report prints them.
/// Every sweep takes 1 in kStride points of the wide lattice (30,240
/// trials); the seed picks the offset.
constexpr std::int64_t kStride = 4;
/// fsync per commit in the timed sweeps. Off, unlike the library's
/// default: see the file comment. nas.store.append_us times it on.
constexpr bool kFsyncStore = false;
/// Set-ups per run (setup_s is their median). Each trains the latency
/// predictors for about 7 s, so three keep the run short.
constexpr int kSetupReps = 3;

/// Passes a stream through, remembering what it yielded (the order
/// TrialStore::assemble and the serial reference need).
class RecordingStream : public nas::CandidateStream {
 public:
  explicit RecordingStream(nas::CandidateStream& inner) : inner_(inner) {}
  std::optional<nas::TrialConfig> next() override {
    auto c = inner_.next();
    if (c) configs.push_back(*c);
    return c;
  }
  std::int64_t total() const override { return inner_.total(); }
  std::vector<nas::TrialConfig> configs;

 private:
  nas::CandidateStream& inner_;
};

struct Sweep {
  std::size_t trials = 0;
  double seconds = 0.0;  ///< stream start -> Pareto front
  std::size_t front_size = 0;
};

}  // namespace

RunResult run_nas_sweep(const Options& options, SpanLog& spans) {
  RunResult result;
  const nas::SearchSpaceSpec spec = nas::SearchSpaceSpec::wide();

  std::unique_ptr<dcnas::latency::NnMeter> meter;
  auto set_up = [&] {
    meter.reset();
    meter = std::make_unique<dcnas::latency::NnMeter>();
  };

  // The seed picks which of the stride's interleaved samples every sweep
  // of this run takes; the serial reference is computed once for it.
  const std::int64_t offset =
      static_cast<std::int64_t>(sub_seed(options.seed, 4) %
                                static_cast<std::uint64_t>(kStride));
  // The candidates every sweep streams, kept from the first (warm-up)
  // sweep for the reference and the traced run's probes.
  std::vector<nas::TrialConfig> candidates;
  std::optional<std::uint64_t> reference_hash;
  std::vector<std::size_t> reference_front;

  std::size_t sweep_index = 0;
  auto run_sweep = [&](bool traced) {
    const std::string dir =
        options.work_dir + "/sweep-store-" + std::to_string(sweep_index++);
    fs::remove_all(dir);
    Sweep sweep;
    std::vector<std::size_t> front;
    std::uint64_t store_hash = 0;
    {
      nas::OracleEvaluator oracle;
      const nas::Experiment experiment(oracle, *meter);
      nas::SchedulerOptions sopt;
      sopt.store_dir = dir;
      sopt.store_fingerprint = spec.fingerprint();
      sopt.fsync_store = kFsyncStore;
      nas::LatticeStream lattice(spec, offset, kStride);
      RecordingStream stream(lattice);

      const Clock::time_point t0 = Clock::now();
      nas::TrialScheduler scheduler(experiment, sopt);
      const nas::SchedulerStats stats = scheduler.run_streamed(stream);
      const Clock::time_point t1 = Clock::now();
      const nas::TrialDatabase db = scheduler.store()->assemble(stream.configs);
      const Clock::time_point t2 = Clock::now();
      front = dcnas::core::HwNasPipeline::front_of(
          db, dcnas::pareto::DominanceMode::kWeak);
      const Clock::time_point t3 = Clock::now();
      sweep.seconds = ms_between(t0, t3) / 1000.0;
      sweep.trials = stats.completed;
      sweep.front_size = front.size();
      if (traced) {
        const int root = spans.record("nas.sweep", t0, t3, sweep_index);
        spans.record("nas.run_streamed", t0, t1, sweep_index, root);
        spans.record("nas.store.assemble", t1, t2, sweep_index, root);
        spans.record("pareto.front_of", t2, t3, sweep_index, root,
                     "front=" + std::to_string(front.size()));
      }
      store_hash = dcnas::fnv1a64(db.to_csv().to_string());
      if (candidates.empty()) candidates = std::move(stream.configs);
    }
    fs::remove_all(dir);

    // Reference: the serial in-memory loop over the same candidates.
    if (!reference_hash) {
      nas::OracleEvaluator oracle;
      const nas::Experiment reference(oracle, *meter);
      const nas::TrialDatabase ref_db = reference.run_all(candidates);
      reference_hash = dcnas::fnv1a64(ref_db.to_csv().to_string());
      reference_front = dcnas::core::HwNasPipeline::front_of(
          ref_db, dcnas::pareto::DominanceMode::kWeak);
    }
    result.attempted += static_cast<std::int64_t>(candidates.size());
    const bool hash_ok = *reference_hash == store_hash;
    const bool front_ok = reference_front == front;
    if (sweep.trials != candidates.size() || !hash_ok || !front_ok) {
      result.failed += static_cast<std::int64_t>(candidates.size());
      result.fail("sweep " + std::to_string(sweep_index) + ": " +
                  std::to_string(sweep.trials) + "/" +
                  std::to_string(candidates.size()) + " committed, hash " +
                  (hash_ok ? "ok" : "MISMATCH") + ", front " +
                  (front_ok ? "ok" : "MISMATCH"));
    }
    return sweep;
  };

  // Whole sweeps until the measuring time is used up (at least one). The
  // reference check after each sweep is not timed.
  auto measure = [&](double seconds, bool traced) {
    std::vector<Sweep> sweeps;
    double timed = 0.0;
    do {
      sweeps.push_back(run_sweep(traced));
      timed += sweeps.back().seconds;
    } while (timed < seconds);
    return sweeps;
  };
  // Median over sweeps, so one sweep slowed by a noisy neighbour does not
  // move the figure.
  auto rate = [](const std::vector<Sweep>& sweeps) {
    std::vector<double> per_sweep;
    for (const Sweep& s : sweeps) {
      per_sweep.push_back(static_cast<double>(s.trials) / s.seconds);
    }
    return median(per_sweep);
  };
  // Set-up repetitions (each retrains the predictors; training is seeded,
  // so every sweep must still match the one reference). The first is
  // followed by an untimed warm-up sweep, which records the candidates and
  // computes the reference. An untraced run measures a share of its sweeps
  // after every set-up, spreading them over the whole run: bursts of host
  // CPU steal on a shared VM slowed whole 10-30 s windows of this
  // lock-heavy sweep by up to 40%, and the median over sweeps then sets
  // the bursts aside.
  constexpr int reps = kSetupReps;
  std::vector<double> setup_s;
  std::vector<Sweep> sweeps;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    set_up();
    setup_s.push_back(s_since(t0));
    if (r == 0) {
      (void)run_sweep(false);
      result.attempted = 0;
      result.failed = 0;
    }
    if (!options.traced) {
      const std::vector<Sweep> part = measure(options.seconds / reps, false);
      sweeps.insert(sweeps.end(), part.begin(), part.end());
    }
  }
  result.end_to_end["setup_s"] = median(setup_s);
  result.per_layer["latency.train_predictor_s"] = median(setup_s);
  double untraced = 0.0;
  if (options.traced) {
    untraced = rate(measure(options.seconds / 2.0, false));
    sweeps = measure(options.seconds / 2.0, true);
  }
  std::vector<double> sweep_ms;
  for (const Sweep& sw : sweeps) sweep_ms.push_back(sw.seconds * 1000.0);
  const double trials_per_s = rate(sweeps);
  result.end_to_end["throughput_per_s"] = trials_per_s;
  result.end_to_end["latency_p50_ms"] = median(sweep_ms);
  result.note("  " + std::to_string(sweeps.size()) + " sweeps of ~" +
              std::to_string(sweeps.front().trials) + " trials (wide lattice, " +
              "1-in-" + std::to_string(kStride) + " at offset " +
              std::to_string(offset) + "), fsync per commit " +
              (kFsyncStore ? "on" : "off") + ", " +
              std::to_string(std::thread::hardware_concurrency()) +
              " scheduler threads (hardware_concurrency)");
  result.note(line("sweep_trials_per_s", trials_per_s, "trials/s"));
  result.note(line("sweep wall time p50 (n=" +
                       std::to_string(sweep_ms.size()) + ")",
                   median(sweep_ms), "ms"));

  if (!options.traced) return result;
  result.per_layer["trace.overhead_pct"] =
      untraced > 0.0 ? 100.0 * (untraced - trials_per_s) / untraced : 0.0;
  std::vector<double> assemble = spans.durations_ms("nas.store.assemble");
  std::vector<double> front_ms = spans.durations_ms("pareto.front_of");
  result.per_layer["nas.store.assemble_s"] = median(assemble) / 1000.0;
  result.per_layer["pareto.front_s"] = median(front_ms) / 1000.0;
  result.per_layer["pareto.front_size"] =
      static_cast<double>(sweeps.back().front_size);

  // Layer probes on the sweep's candidates.
  const std::size_t probe_n = std::min<std::size_t>(1200, candidates.size());
  nas::OracleEvaluator oracle;
  const nas::Experiment experiment(oracle, *meter);
  std::vector<nas::JournalEntry> entries;
  std::vector<double> trial_us, predict_us, append_us;
  for (std::size_t i = 0; i < probe_n; ++i) {
    const Clock::time_point t0 = Clock::now();
    nas::JournalEntry e;
    e.record = experiment.run_trial(candidates[i]);
    const Clock::time_point t1 = Clock::now();
    spans.record("nas.run_trial", t0, t1, i);
    trial_us.push_back(ms_between(t0, t1) * 1000.0);
    for (std::size_t f = 0; f < e.record.fold_accuracies.size(); ++f) {
      e.fold_indices.push_back(static_cast<int>(f));
    }
    entries.push_back(std::move(e));
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(300, probe_n); ++i) {
    const auto graph = dcnas::graph::build_resnet_graph(
        candidates[i].to_resnet_config(), dcnas::graph::kDeploymentInputSize);
    const Clock::time_point t0 = Clock::now();
    (void)meter->predict_graph(graph);
    const Clock::time_point t1 = Clock::now();
    spans.record("latency.predict_graph", t0, t1, i);
    predict_us.push_back(ms_between(t0, t1) * 1000.0);
  }
  {
    const std::string dir = options.work_dir + "/append-store";
    fs::remove_all(dir);
    nas::TrialStoreOptions so;
    so.lattice_fingerprint = spec.fingerprint();
    nas::TrialStore store(dir, so);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      store.append(entries[i]);
      const Clock::time_point t1 = Clock::now();
      spans.record("nas.store.append", t0, t1, i);
      append_us.push_back(ms_between(t0, t1) * 1000.0);
    }
  }
  fs::remove_all(options.work_dir + "/append-store");
  result.per_layer["nas.run_trial_us.p50"] = median(trial_us);
  result.per_layer["latency.predict_us.p50"] = median(predict_us);
  result.per_layer["nas.store.append_us.p50"] = median(append_us);
  result.per_layer["nas.store.append_us.p99"] =
      percentile_or_tail(append_us, 0.99);
  return result;
}

}  // namespace perfbench
