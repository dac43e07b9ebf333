#include "model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "dcnas/geodata/dataset.hpp"
#include "dcnas/graph/builder.hpp"
#include "dcnas/graph/model_file.hpp"
#include "dcnas/nas/search_space.hpp"
#include "dcnas/nn/trainer.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/tensor/gemm.hpp"

namespace perfbench {

using dcnas::Tensor;

void train_drainage_artifact(const std::string& path) {
  dcnas::geodata::DatasetOptions dopt;
  dopt.scale = 1.0 / 128.0;
  dopt.chip_size = kChipSize;
  dopt.scene_size = 160;
  dopt.channels = kChannels;
  const auto ds = dcnas::geodata::build_dataset(dopt);

  dcnas::nas::TrialConfig cfg = dcnas::nas::TrialConfig::baseline(kChannels, 8);
  cfg.initial_output_feature = 32;
  cfg.kernel_size = 3;
  cfg.padding = 1;
  dcnas::Rng rng(11);
  dcnas::nn::ConfigurableResNet model(cfg.to_resnet_config(), rng);
  dcnas::nn::TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = cfg.batch;
  topt.lr = 0.02;
  dcnas::nn::fit(model, ds.images, ds.labels, topt);
  model.set_training(false);

  dcnas::graph::GraphExecutor exec(
      dcnas::graph::build_resnet_graph(cfg.to_resnet_config(), kChipSize),
      model);
  exec.fold_batchnorm();
  dcnas::graph::save_model(exec, path);
}

Tensor tile_chips(std::uint64_t seed, std::int64_t tile, std::int64_t stride,
                  std::int64_t limit) {
  dcnas::geodata::SceneOptions sopt;
  sopt.size = tile;
  const auto scene = dcnas::geodata::synthesize_scene(sopt, seed);
  const std::int64_t half = kChipSize / 2;
  std::vector<std::pair<std::int64_t, std::int64_t>> centers;
  for (std::int64_t y = half; y + half <= tile; y += stride) {
    for (std::int64_t x = half; x + half <= tile; x += stride) {
      centers.emplace_back(y, x);
    }
  }
  if (limit > 0 && static_cast<std::int64_t>(centers.size()) > limit) {
    centers.resize(static_cast<std::size_t>(limit));
  }
  const auto n = static_cast<std::int64_t>(centers.size());
  Tensor chips = Tensor::zeros({n, kChannels, kChipSize, kChipSize});
  const std::int64_t per = kChannels * kChipSize * kChipSize;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto [cy, cx] = centers[static_cast<std::size_t>(i)];
    dcnas::geodata::extract_chip(scene, cy, cx, kChipSize, kChannels,
                                 chips.data() + i * per);
  }
  return chips;
}

namespace {

Tensor rows(const Tensor& chips, std::int64_t first, std::int64_t count) {
  const std::int64_t per = kChannels * kChipSize * kChipSize;
  Tensor batch = Tensor::zeros({count, kChannels, kChipSize, kChipSize});
  std::memcpy(batch.data(), chips.data() + first * per,
              sizeof(float) * per * count);
  return batch;
}

}  // namespace

Tensor chip(const Tensor& chips, std::int64_t i) { return rows(chips, i, 1); }

Tensor reference_outputs(const dcnas::graph::GraphExecutor& exec,
                         const Tensor& chips) {
  const std::int64_t n = chips.dim(0);
  Tensor out;
  std::int64_t classes = 0;
  for (std::int64_t i = 0; i < n; i += 16) {
    const std::int64_t count = std::min<std::int64_t>(16, n - i);
    const Tensor part = exec.run(rows(chips, i, count));
    if (i == 0) {
      classes = part.dim(1);
      out = Tensor::zeros({n, classes});
    }
    std::memcpy(out.data() + i * classes, part.data(),
                sizeof(float) * count * classes);
  }
  return out;
}

bool output_matches(const float* got, std::int64_t classes,
                    const Tensor& reference, std::int64_t i) {
  if (classes != reference.dim(1)) return false;
  const float* want = reference.data() + i * classes;
  std::int64_t got_top = 0, want_top = 0;
  for (std::int64_t c = 0; c < classes; ++c) {
    if (!(std::fabs(got[c] - want[c]) <= kOutputTolerance)) return false;
    if (got[c] > got[got_top]) got_top = c;
    if (want[c] > want[want_top]) want_top = c;
  }
  if (got_top == want_top) return true;
  // A near tie in the reference may flip within tolerance.
  return std::fabs(want[got_top] - want[want_top]) < kOutputTolerance;
}

Outcome check_wire_response(
    const dcnas::serve::WireResponse& response, const Tensor& reference,
    std::int64_t i, RunResult& result,
    std::map<dcnas::serve::RejectReason, std::int64_t>& refused) {
  using dcnas::serve::WireStatus;
  switch (response.status) {
    case WireStatus::kOk:
      if (response.output.numel() != reference.dim(1) ||
          !output_matches(response.output.data(), response.output.numel(),
                          reference, i)) {
        result.fail("wire output for chip " + std::to_string(i) +
                    " does not match the GraphExecutor reference");
        return Outcome::kFailed;
      }
      return Outcome::kOk;
    case WireStatus::kShutdown:
    case WireStatus::kQueueFull:
    case WireStatus::kShedOverload:
    case WireStatus::kDeadlineExpired:
      // Reject statuses share RejectReason's numbering (wire.hpp).
      ++refused[static_cast<dcnas::serve::RejectReason>(response.status)];
      return Outcome::kRefused;
    default:
      result.fail(std::string("wire status ") +
                  dcnas::serve::to_string(response.status) + ": " +
                  response.message);
      return Outcome::kFailed;
  }
}

std::vector<double> server_latency_ms(const dcnas::serve::Server& server,
                                      const std::string& model) {
  // The family name ServingMetrics documents (metrics.hpp).
  const auto* summary = server.metrics().registry().find_summary(
      "serve.request.latency_ms{model=" + model + "}");
  return summary == nullptr ? std::vector<double>{} : summary->samples();
}

std::int64_t plan_allocs() {
  return dcnas::obs::MetricsRegistry::global()
      .counter("plan.exec.allocs")
      .value();
}

namespace {

bool is_conv(dcnas::graph::KernelKind kind) {
  using dcnas::graph::KernelKind;
  return kind == KernelKind::kConvBnRelu || kind == KernelKind::kConvBn ||
         kind == KernelKind::kConvRelu || kind == KernelKind::kConv;
}

/// ResNet stage of a plan step, from its source node's name.
std::string stage_of(const std::string& step_name) {
  // Residual steps are named "stage<N>.block<M>...".
  if (step_name.rfind("stage", 0) == 0 && step_name.size() > 6 &&
      step_name[6] == '.') {
    return std::string{'s', step_name[5]};
  }
  if (step_name == "gap" || step_name == "fc") return "head";
  return "stem";
}

}  // namespace

PlanProbe probe_plan(const dcnas::plan::PlanExecutor& plan,
                     const Tensor& chips, std::int64_t batch, double seconds,
                     SpanLog& spans) {
  using dcnas::plan::PlanStep;
  const Tensor input = rows(chips, 0, std::min(batch, chips.dim(0)));
  const auto b = static_cast<double>(input.dim(0));
  const auto& steps = plan.plan().steps;

  // Warm the arena pool at this batch size.
  (void)plan.run(input);

  std::vector<double> run_ms, sum_ratio;
  std::vector<std::vector<double>> step_ms(steps.size());
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::uint64_t op = 0;
  while (Clock::now() < deadline || run_ms.size() < 3) {
    // Alternate plain and observed runs so both see the same conditions.
    const Clock::time_point t0 = Clock::now();
    (void)plan.run(input);
    const Clock::time_point t1 = Clock::now();
    run_ms.push_back(ms_between(t0, t1));
    spans.record("plan.run", t0, t1, ++op, -1,
                 "batch=" + std::to_string(input.dim(0)));

    std::vector<Clock::time_point> marks;
    marks.reserve(steps.size() + 1);
    marks.push_back(Clock::now());
    (void)plan.run(input, [&](const PlanStep&, const float*, std::int64_t) {
      marks.push_back(Clock::now());
    });
    const Clock::time_point t3 = Clock::now();
    const int parent = spans.record("plan.run.observed", marks.front(), t3,
                                    op);
    for (std::size_t s = 0; s + 1 < marks.size() && s < steps.size(); ++s) {
      step_ms[s].push_back(ms_between(marks[s], marks[s + 1]));
      spans.record("plan.step", marks[s], marks[s + 1], op, parent,
                   "step=" + steps[s].name);
    }
    // Paired with the plain run just before it, so a slow spell on a
    // shared host moves both sides of the ratio alike.
    sum_ratio.push_back(ms_between(marks.front(), marks.back()) /
                        run_ms.back());
  }

  PlanProbe p;
  const double run_med = median(run_ms);
  p.run_ms_per_img = run_med / b;
  double conv_ms = 0.0, conv_flops = 0.0;
  for (const char* stage : {"stem", "s1", "s2", "s3", "s4", "head"}) {
    p.stage_us_per_img[stage] = 0.0;
  }
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const double ms = median(step_ms[s]);
    p.stage_us_per_img[stage_of(steps[s].name)] += ms * 1000.0 / b;
    if (is_conv(steps[s].kind)) {
      conv_ms += ms;
      // One multiply-add per weight per output pixel per image.
      conv_flops += 2.0 * static_cast<double>(steps[s].weight.numel()) *
                    static_cast<double>(steps[s].out_shape.h *
                                        steps[s].out_shape.w) *
                    b;
    }
  }
  p.conv_gflops = conv_ms > 0.0 ? conv_flops / (conv_ms * 1e6) : 0.0;
  p.step_sum_ratio = median(sum_ratio);
  return p;
}

double gemm_gflops_s4(std::int64_t n, double seconds, SpanLog& spans) {
  constexpr std::int64_t m = 256, k = 2304;
  dcnas::Rng rng(5);
  const Tensor a = Tensor::rand_uniform({m, k}, rng, -1.0f, 1.0f);
  const Tensor bm = Tensor::rand_uniform({k, n}, rng, -1.0f, 1.0f);
  Tensor c = Tensor::zeros({m, n});
  dcnas::gemm(m, n, k, 1.0f, a.data(), bm.data(), 0.0f, c.data());
  std::vector<double> ms;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline || ms.size() < 3) {
    const Clock::time_point t0 = Clock::now();
    dcnas::gemm(m, n, k, 1.0f, a.data(), bm.data(), 0.0f, c.data());
    const Clock::time_point t1 = Clock::now();
    ms.push_back(ms_between(t0, t1));
    spans.record("tensor.gemm", t0, t1, 0, -1, "n=" + std::to_string(n));
  }
  return 2.0 * m * k * static_cast<double>(n) / (median(ms) * 1e6);
}

void report_plan_probe(const PlanProbe& probe, const std::string& batch,
                       RunResult& result) {
  result.per_layer["plan.run_ms_per_img." + batch] = probe.run_ms_per_img;
  for (const auto& [stage, us] : probe.stage_us_per_img) {
    result.per_layer["plan.stage." + stage + ".us_per_img." + batch] = us;
  }
  result.per_layer["plan.conv_gflops." + batch] = probe.conv_gflops;
  result.per_layer["plan.step_sum_ratio"] = probe.step_sum_ratio;
  if (std::fabs(probe.step_sum_ratio - 1.0) > kStepSumTolerance) {
    result.fail("plan step sum at " + batch + " is " +
                std::to_string(probe.step_sum_ratio) +
                "x the run time (tolerance " +
                std::to_string(kStepSumTolerance) + ")");
  }
}

double mean_batch_size(const std::map<std::int64_t, std::int64_t>& before,
                       const std::map<std::int64_t, std::int64_t>& after) {
  double batches = 0.0, images = 0.0;
  for (const auto& [size, count] : after) {
    const auto b = before.find(size);
    const auto n =
        static_cast<double>(count - (b == before.end() ? 0 : b->second));
    batches += n;
    images += n * static_cast<double>(size);
  }
  return batches > 0.0 ? images / batches : 0.0;
}

void report_refusals(
    const std::map<dcnas::serve::RejectReason, std::int64_t>& refused,
    RunResult& result) {
  using dcnas::serve::RejectReason;
  const std::pair<RejectReason, const char*> names[] = {
      {RejectReason::kShutdown, "shutdown"},
      {RejectReason::kQueueFull, "queue_full"},
      {RejectReason::kShedOverload, "shed_overload"},
      {RejectReason::kDeadlineExpired, "deadline_expired"},
  };
  for (const auto& [reason, name] : names) {
    const auto it = refused.find(reason);
    result.per_layer[std::string("serve.refused.") + name] =
        it == refused.end() ? 0.0 : static_cast<double>(it->second);
  }
}

}  // namespace perfbench
