#pragma once
/// \file model.hpp
/// \brief The served drainage model, its input chips, the reference check
/// on served outputs, and the plan/GEMM probes of the traced runs.

#include <cstdint>
#include <map>
#include <string>

#include "dcnas/graph/executor.hpp"
#include "dcnas/plan/executor.hpp"
#include "dcnas/serve/batcher.hpp"
#include "dcnas/serve/server.hpp"
#include "dcnas/serve/wire.hpp"
#include "load.hpp"
#include "trace.hpp"

namespace perfbench {

inline constexpr std::int64_t kChipSize = 24;
inline constexpr int kChannels = 5;

/// Trains the 24 px 5-channel drainage classifier the way serve_daemon
/// does (fixed seeds, so every run serves the same weights), folds its
/// BatchNorms and saves it as a .dcnx artifact at \p path.
void train_drainage_artifact(const std::string& path);

/// Chips (N, 5, 24, 24) cut on a regular grid from one synthetic
/// watershed tile of edge \p tile cells, every \p stride cells; the tile
/// comes from \p seed. At most \p limit chips (0 = all).
dcnas::Tensor tile_chips(std::uint64_t seed, std::int64_t tile,
                         std::int64_t stride, std::int64_t limit = 0);

/// Row \p i of \p chips as a single-image (1, C, H, W) tensor.
dcnas::Tensor chip(const dcnas::Tensor& chips, std::int64_t i);

/// GraphExecutor outputs for every chip, (N, classes).
dcnas::Tensor reference_outputs(const dcnas::graph::GraphExecutor& exec,
                                const dcnas::Tensor& chips);

/// Largest allowed |served - reference| per logit. The plan fuses and
/// reorders float work that the graph executor does op by op.
inline constexpr double kOutputTolerance = 1e-3;

/// True when \p got (one output row) matches row \p i of \p reference:
/// every logit within kOutputTolerance, and the same argmax unless the
/// reference's top two logits are closer than the tolerance.
bool output_matches(const float* got, std::int64_t classes,
                    const dcnas::Tensor& reference, std::int64_t i);

/// Classifies one wire answer to row \p i of \p reference. An ok answer
/// with a wrong or wrongly sized output, and any status that is neither ok
/// nor a typed reject, fails the run through result.fail(); typed rejects
/// are tallied in \p refused. Not thread-safe: callers serialize.
Outcome check_wire_response(
    const dcnas::serve::WireResponse& response, const dcnas::Tensor& reference,
    std::int64_t i, RunResult& result,
    std::map<dcnas::serve::RejectReason, std::int64_t>& refused);

/// Every admission -> response latency (ms) \p server has recorded for
/// \p model, in completion order, from its own ServingMetrics.
std::vector<double> server_latency_ms(const dcnas::serve::Server& server,
                                      const std::string& model);

/// What one plan probe measured at one batch size.
struct PlanProbe {
  double run_ms_per_img = 0.0;          ///< plain run(), median over reps
  std::map<std::string, double> stage_us_per_img;  ///< stem, s1..s4, head
  double conv_gflops = 0.0;             ///< conv FLOPs / conv step time
  /// Median over iterations of one observed run's step sum over the
  /// plain run timed just before it.
  double step_sum_ratio = 0.0;
};

/// Times \p plan at \p batch on chips from \p chips for about \p seconds:
/// plain runs for the run time, observed runs (StepObserver timestamps)
/// for the per-step split. Records "plan.run" and "plan.step" spans.
PlanProbe probe_plan(const dcnas::plan::PlanExecutor& plan,
                     const dcnas::Tensor& chips, std::int64_t batch,
                     double seconds, SpanLog& spans);

/// Packed GEMM throughput at the stage-4 conv shape (256 x 2304) with
/// N = \p n, GFLOP/s, median over about \p seconds of calls.
double gemm_gflops_s4(std::int64_t n, double seconds, SpanLog& spans);

/// Current value of the library's plan.exec.allocs counter.
std::int64_t plan_allocs();

/// Largest |observed step sum / run time - 1| a traced run accepts.
inline constexpr double kStepSumTolerance = 0.20;

/// Reports \p probe's per-image, per-stage, GFLOP/s and step-sum numbers
/// under the suffix \p batch ("b1" or "bmax"), and fails the run when the
/// step sum does not account for the run time.
void report_plan_probe(const PlanProbe& probe, const std::string& batch,
                       RunResult& result);

/// Mean batch size the server formed between two batch_histogram()
/// snapshots.
double mean_batch_size(const std::map<std::int64_t, std::int64_t>& before,
                       const std::map<std::int64_t, std::int64_t>& after);

/// Reports refusals by reason as serve.refused.<reason>.
void report_refusals(const std::map<dcnas::serve::RejectReason, std::int64_t>&
                         refused,
                     RunResult& result);

}  // namespace perfbench
