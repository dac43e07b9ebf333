#pragma once
/// \file compiler.hpp
/// \brief Compiles a verified GraphExecutor into a CompiledPlan.
///
/// Compilation performs, in order:
///  1. Verification — the standard analysis::GraphVerifier pipeline must
///     pass (plans are built at trust boundaries, not on the hot path).
///  2. Fusion — graph::fuse_graph() groups Conv+BN(+ReLU) and Add+ReLU
///     chains along single-consumer edges; the analysis layer's
///     fusion-legality pass gates BN folding: any BatchNorm it flags
///     (producer is not a Conv) stays a standalone scale/shift step, and a
///     Conv whose output has multiple consumers never absorbs its BN.
///  3. Weight folding — for each fused Conv+BN, the BatchNorm running
///     statistics are baked into plan-owned copies of the conv weights:
///       w'_oc = w_oc · γ_oc / √(σ²_oc + ε)
///       b'_oc = β_oc + (b_oc − μ_oc) · γ_oc / √(σ²_oc + ε)
///     (b_oc is the conv's own bias, 0 when absent; the formula is
///     graph::fold_batchnorm_into_conv). Executors that arrive pre-folded
///     (identity BN nodes) are copied verbatim.
///  4. Arena assignment — liveness analysis over the step list assigns
///     every intermediate activation a fixed per-sample offset in one
///     arena via a greedy best-fit free-list sweep.

#include "dcnas/graph/executor.hpp"
#include "dcnas/plan/plan.hpp"

namespace dcnas::plan {

struct CompileOptions {
  /// When false, emits one step per graph op (no fusion, no BN folding).
  /// The unfused plan is the differential-testing baseline that isolates
  /// arena bugs from fusion bugs; production plans keep the default.
  bool fuse = true;

  /// kInt8 quantizes every conv-family step post-compile: weights per
  /// output channel (after BN folding, so requantization composes with the
  /// fold), activations per tensor with scales calibrated by running the
  /// fp32 plan over `calibration`. Pools, adds, BN and the Linear head stay
  /// fp32. See QUANTIZATION.md.
  graph::Precision precision = graph::Precision::kFp32;

  /// NCHW calibration batch, required (non-null, matching the model's
  /// input shape) when precision == kInt8; ignored otherwise. Borrowed for
  /// the duration of compile() only.
  const Tensor* calibration = nullptr;
};

class PlanCompiler {
 public:
  explicit PlanCompiler(CompileOptions options = {});

  /// Compiles \p exec's graph + weights. Throws InvalidArgument when the
  /// graph fails verification. The executor is only read; the plan owns
  /// deep copies of every tensor it needs.
  CompiledPlan compile(const graph::GraphExecutor& exec) const;

 private:
  CompileOptions options_;
};

/// One-shot convenience: PlanCompiler(options).compile(exec).
CompiledPlan compile_plan(const graph::GraphExecutor& exec,
                          CompileOptions options = {});

/// Post-compile self-check hook. When installed, PlanCompiler::compile
/// invokes it on every plan it emits (after its own check_arena()
/// post-condition) so the analysis layer can re-verify the artifact without
/// dcnas_plan linking against dcnas_plan_analysis (which would be a
/// dependency cycle). The analysis library installs
/// analysis::verify_plan_or_throw here via a static registrar in debug
/// builds; tests may install it explicitly in release builds. Thread-safe;
/// pass nullptr to uninstall.
using PlanSelfCheck = void (*)(const CompiledPlan&,
                               const graph::GraphExecutor&);
void set_plan_self_check(PlanSelfCheck check);
PlanSelfCheck plan_self_check();

}  // namespace dcnas::plan
