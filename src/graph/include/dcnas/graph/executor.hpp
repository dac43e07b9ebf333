#pragma once
/// \file executor.hpp
/// \brief A minimal deployment runtime: executes a ModelGraph directly
/// (eval-mode inference) with optional BatchNorm folding.
///
/// This is the twin of the latency layer's assumption that edge runtimes
/// fold Conv+BN into one kernel: fold_batchnorm() performs the standard
/// rewrite  w' = w·γ/√(σ²+ε),  b' = β + (b − μ)·γ/√(σ²+ε)  and the executor
/// then runs the exact fused computation. Tests verify bit-level agreement with
/// the live nn::ConfigurableResNet in eval mode, before and after folding.

#include <optional>
#include <vector>

#include "dcnas/graph/ir.hpp"
#include "dcnas/nn/resnet.hpp"
#include "dcnas/tensor/tensor.hpp"

namespace dcnas::graph {

/// Inference weights for one graph node (only the kinds that carry state).
struct NodeState {
  Tensor conv_weight;           ///< Conv: (OC, IC·k·k)
  std::optional<Tensor> bias;   ///< Conv after folding, or Linear bias
  Tensor bn_gamma, bn_beta, bn_mean, bn_var;  ///< BatchNorm
  Tensor linear_weight;         ///< Linear: (out, in)
};

/// Eval-mode BatchNorm as the per-channel affine map y = x·scale + shift,
/// absorbing an optional bias b applied before it:
///   scale_c = γ_c/√(σ²_c+ε),   shift_c = β_c + (b_c − μ_c)·scale_c
/// This is the one BN-folding formula: GraphExecutor's BN nodes,
/// GraphExecutor::fold_batchnorm and the plan compiler all go through it.
/// Without a bias, shift is bit-identical to β − μ·scale.
struct BatchNormAffine {
  Tensor scale;
  Tensor shift;
};
BatchNormAffine batchnorm_affine(
    const NodeState& bn, float eps,
    const std::optional<Tensor>& bias = std::nullopt);

/// Folds a BatchNorm into the conv that feeds it: each output-channel row
/// of \p weight (OC, IC·k·k) is scaled by scale_c, and \p bias (zero when
/// absent) becomes shift.
void fold_batchnorm_into_conv(Tensor& weight, std::optional<Tensor>& bias,
                              const NodeState& bn, float eps);

class GraphExecutor {
 public:
  /// Binds a graph to the state of a live model. The model must have been
  /// built from the same ResNetConfig that produced the graph (layer order
  /// is matched positionally and shapes are cross-checked).
  GraphExecutor(ModelGraph graph, nn::ConfigurableResNet& model);

  /// Runs batch inference (NCHW). BatchNorm uses running statistics.
  ///
  /// Thread safety: run() is const and reentrant. All per-invocation
  /// scratch (the im2col column buffer, intermediate activations) lives on
  /// the calling thread's stack, and the executor's own state (graph,
  /// weights, identity flags) is only read — so any number of threads may
  /// run() one executor concurrently (the serving subsystem relies on
  /// this). The mutating calls, fold_batchnorm() and destruction, must be
  /// externally synchronized against concurrent run() calls: fold before
  /// sharing the executor across threads.
  Tensor run(const Tensor& input) const;

  /// Folds every Conv->BatchNorm pair (BN the conv's sole consumer) into
  /// the convolution; folded BN nodes become identity passthroughs.
  /// Idempotent.
  void fold_batchnorm();
  bool folded() const { return folded_; }

  /// Number of BN nodes folded away so far.
  int folded_batchnorms() const { return folded_count_; }

  const ModelGraph& graph() const { return graph_; }

  /// Raw state access for serialization (model_file.hpp) and for the plan
  /// compiler (plan/compiler.hpp), which folds with the same epsilon.
  const std::vector<NodeState>& node_states() const { return state_; }
  const std::vector<bool>& identity_flags() const { return identity_; }
  float bn_eps() const { return bn_eps_; }

  /// Reassembles an executor from serialized state (no nn module needed).
  static GraphExecutor from_state(ModelGraph graph,
                                  std::vector<NodeState> state,
                                  std::vector<bool> identity);

 private:
  GraphExecutor() = default;
  Tensor run_node(int index, const std::vector<Tensor>& outputs,
                  const Tensor& input) const;

  ModelGraph graph_;
  std::vector<NodeState> state_;      ///< indexed by node
  std::vector<bool> identity_;        ///< BN nodes folded into producers
  float bn_eps_ = 1e-5f;
  bool folded_ = false;
  int folded_count_ = 0;
};

}  // namespace dcnas::graph
