/// nas_train: a fixed handful of lattice configs with real k-fold training
/// (TrainingEvaluator at the smallest dataset scale) through
/// TrialScheduler::run, repeated for the measuring time. It is the only
/// workload that runs nn backward passes, tensor's gemm_at/gemm_bt, and
/// geodata synthesis, so an inference-kernel change that costs training
/// shows here.
///
/// The configs are fixed (kernel 3/7 x 5/7 channels, stride 1, pooled,
/// width 32) and cost about the same, so the folds balance across the
/// scheduler's threads; a different seed changes the data, the folds and
/// the initial weights, not how much work a run holds.

#include <thread>

#include "dcnas/common/strings.hpp"
#include "dcnas/geodata/dataset.hpp"
#include "dcnas/nas/scheduler.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/nn/trainer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace nas = dcnas::nas;
namespace geodata = dcnas::geodata;

// The workload's parameters; the report prints them.
/// Set-ups per run; setup_s is their median. One takes about 0.2 s, so
/// its timing is noisy; nine cost under two seconds.
constexpr int kSetupReps = 9;
constexpr int kFolds = 3;
constexpr int kEpochs = 1;
constexpr int kWidth = 32;  ///< initial output features of every config
/// Dataset scale: 1/kScaleDivisor of the paper's chip counts.
constexpr double kScaleDivisor = 256.0;

std::vector<nas::TrialConfig> train_configs() {
  std::vector<nas::TrialConfig> configs;
  for (const int kernel : {3, 7}) {
    for (const int channels : {5, 7}) {
      nas::TrialConfig c = nas::TrialConfig::baseline(channels, 16);
      c.kernel_size = kernel;
      c.stride = 1;
      c.padding = kernel / 2;
      c.initial_output_feature = kWidth;
      configs.push_back(c);
    }
  }
  return configs;
}

/// Times every fold a delegate evaluates (traced runs only).
class TimedEvaluator : public nas::Evaluator {
 public:
  TimedEvaluator(nas::Evaluator& inner, SpanLog& spans)
      : inner_(inner), spans_(spans) {}
  nas::EvalResult evaluate(const nas::TrialConfig& config) override {
    return inner_.evaluate(config);
  }
  int fold_count() const override { return inner_.fold_count(); }
  double evaluate_fold(const nas::TrialConfig& config, int fold) override {
    const Clock::time_point t0 = Clock::now();
    const double acc = inner_.evaluate_fold(config, fold);
    spans_.record("nas.train.fold", t0, Clock::now(),
                  static_cast<std::uint64_t>(config.encode()), -1,
                  "fold=" + std::to_string(fold));
    return acc;
  }
  std::string name() const override { return inner_.name(); }

 private:
  nas::Evaluator& inner_;
  SpanLog& spans_;
};

}  // namespace

RunResult run_nas_train(const Options& options, SpanLog& spans) {
  RunResult result;
  nas::TrainingEvaluator::Options topt;
  topt.folds = kFolds;
  topt.epochs = kEpochs;
  topt.seed = sub_seed(options.seed, 5);

  std::unique_ptr<geodata::DrainageDataset> ds5, ds7;
  std::vector<double> build_s;
  std::unique_ptr<dcnas::latency::NnMeter> meter;
  result.end_to_end["setup_s"] = timed_setups(kSetupReps, [&] {
    geodata::DatasetOptions dopt;
    dopt.scale = 1.0 / kScaleDivisor;
    dopt.chip_size = 24;
    dopt.scene_size = 160;
    dopt.seed = sub_seed(options.seed, 6);
    const Clock::time_point t0 = Clock::now();
    dopt.channels = 5;
    ds5 = std::make_unique<geodata::DrainageDataset>(geodata::build_dataset(dopt));
    dopt.channels = 7;
    ds7 = std::make_unique<geodata::DrainageDataset>(geodata::build_dataset(dopt));
    build_s.push_back(s_since(t0));
    // The trials' latency objectives are not what this workload measures;
    // a small predictor keeps set-up about the datasets.
    dcnas::latency::PredictorTrainOptions popt;
    popt.samples_per_kind = 60;
    meter = std::make_unique<dcnas::latency::NnMeter>(popt);
  });
  result.per_layer["geodata.build_dataset_s"] = median(build_s);

  nas::TrainingEvaluator trainer(*ds5, *ds7, topt);
  TimedEvaluator timed(trainer, spans);
  const std::vector<nas::TrialConfig> configs = train_configs();
  double samples_per_run = 0.0;
  for (const auto& c : configs) {
    const double n = static_cast<double>((c.channels == 5 ? *ds5 : *ds7).size());
    // Each fold trains on (k-1)/k of the data for every epoch and
    // evaluates the remaining 1/k once.
    samples_per_run += n * ((topt.folds - 1) * topt.epochs + 1);
  }

  // Reference: the serial loop, once; every scheduled run must match it.
  const nas::Experiment serial(trainer, *meter);
  const std::uint64_t reference_hash =
      dcnas::fnv1a64(serial.run_all(configs).to_csv().to_string());

  auto measure = [&](double seconds, bool traced) {
    nas::Evaluator& evaluator = traced ? static_cast<nas::Evaluator&>(timed)
                                       : static_cast<nas::Evaluator&>(trainer);
    const nas::Experiment experiment(evaluator, *meter);
    nas::TrialScheduler scheduler(experiment);
    std::vector<double> run_s;
    double total = 0.0;
    do {
      const Clock::time_point t0 = Clock::now();
      const nas::TrialDatabase db = scheduler.run(configs);
      const Clock::time_point t1 = Clock::now();
      if (traced) spans.record("nas.scheduler.run", t0, t1, run_s.size());
      run_s.push_back(ms_between(t0, t1) / 1000.0);
      total += run_s.back();
      result.attempted += static_cast<std::int64_t>(configs.size());
      if (dcnas::fnv1a64(db.to_csv().to_string()) != reference_hash) {
        result.failed += static_cast<std::int64_t>(configs.size());
        result.fail("scheduled training database differs from the serial "
                    "reference");
      }
    } while (total < seconds);
    return run_s;
  };
  const double s = options.traced ? options.seconds / 2.0 : options.seconds;
  double untraced = 0.0;
  if (options.traced) {
    untraced = samples_per_run / median(measure(s, false));
  }
  const std::vector<double> runs = measure(s, options.traced);
  const double samples_per_s = samples_per_run / median(runs);
  result.end_to_end["throughput_per_s"] = samples_per_s;
  result.end_to_end["latency_p50_ms"] = median(runs) * 1000.0;
  result.note("  closed loop, " + std::to_string(configs.size()) +
              " configs x " + std::to_string(topt.folds) + " folds x " +
              std::to_string(topt.epochs) + " epochs per run, " +
              std::to_string(runs.size()) + " runs, datasets " +
              std::to_string(ds5->size()) + "/" + std::to_string(ds7->size()) +
              " chips (1/" + std::to_string(int(kScaleDivisor)) +
              " scale), width " + std::to_string(kWidth) + ", " +
              std::to_string(std::thread::hardware_concurrency()) +
              " scheduler threads (hardware_concurrency)");
  result.note(line("train_samples_per_s", samples_per_s, "samples/s"));
  result.note(line("scheduler run p50 (n=" + std::to_string(runs.size()) + ")",
                   median(runs) * 1000.0, "ms"));
  if (!options.traced) return result;

  result.per_layer["trace.overhead_pct"] =
      untraced > 0.0 ? 100.0 * (untraced - samples_per_s) / untraced : 0.0;
  result.per_layer["nas.train.fold_s"] =
      median(spans.durations_ms("nas.train.fold")) / 1000.0;

  // nn::fit alone at three batch sizes: one epoch over the 5-channel set.
  for (const std::int64_t batch : {8, 16, 32}) {
    nas::TrialConfig c = configs.front();
    c.batch = static_cast<int>(batch);
    dcnas::Rng rng(sub_seed(options.seed, 7));
    dcnas::nn::ConfigurableResNet model(c.to_resnet_config(), rng);
    dcnas::nn::TrainOptions fopt;
    fopt.epochs = 1;
    fopt.batch_size = batch;
    std::vector<double> per_s;
    const Clock::time_point end =
        Clock::now() + std::chrono::milliseconds(400);
    do {
      const Clock::time_point t0 = Clock::now();
      (void)dcnas::nn::fit(model, ds5->images, ds5->labels, fopt);
      const Clock::time_point t1 = Clock::now();
      spans.record("nn.fit", t0, t1, static_cast<std::uint64_t>(batch));
      per_s.push_back(static_cast<double>(ds5->size()) /
                      (ms_between(t0, t1) / 1000.0));
    } while (Clock::now() < end);
    result.per_layer["nn.fit.samples_per_s.b" + std::to_string(batch)] =
        median(per_s);
  }
  return result;
}

}  // namespace perfbench
