#include "dcnas/graph/executor.hpp"

#include <cmath>

#include "dcnas/common/strings.hpp"
#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"
#include "dcnas/tensor/gemm.hpp"
#include "dcnas/tensor/im2col.hpp"
#include "dcnas/tensor/ops.hpp"

namespace dcnas::graph {

BatchNormAffine batchnorm_affine(const NodeState& bn, float eps,
                                 const std::optional<Tensor>& bias) {
  const std::int64_t channels = bn.bn_gamma.numel();
  BatchNormAffine affine{Tensor({channels}), Tensor({channels})};
  for (std::int64_t c = 0; c < channels; ++c) {
    const float inv_std = 1.0f / std::sqrt(bn.bn_var[c] + eps);
    const float scale = bn.bn_gamma[c] * inv_std;
    const float b = bias ? (*bias)[c] : 0.0f;
    affine.scale[c] = scale;
    affine.shift[c] = bn.bn_beta[c] + (b - bn.bn_mean[c]) * scale;
  }
  return affine;
}

void fold_batchnorm_into_conv(Tensor& weight, std::optional<Tensor>& bias,
                              const NodeState& bn, float eps) {
  BatchNormAffine affine = batchnorm_affine(bn, eps, bias);
  const std::int64_t oc = affine.scale.numel();
  const std::int64_t row = weight.numel() / oc;
  for (std::int64_t c = 0; c < oc; ++c) {
    float* w_row = weight.data() + c * row;
    for (std::int64_t j = 0; j < row; ++j) w_row[j] *= affine.scale[c];
  }
  bias = std::move(affine.shift);
}

GraphExecutor::GraphExecutor(ModelGraph graph, nn::ConfigurableResNet& model)
    : graph_(std::move(graph)) {
  graph_.validate();
  state_.resize(graph_.size());
  identity_.assign(graph_.size(), false);

  // Positional binding: the graph builder and the nn model emit layers in
  // the same order, so conv weights / BN tensors / linear weights can be
  // consumed with independent cursors. Shapes are checked as we go.
  const auto params = model.parameters();
  const auto buffers = model.buffers();
  std::size_t p = 0;  // cursor into params
  std::size_t b = 0;  // cursor into buffers

  auto take_param = [&](const char* what,
                        std::int64_t expected_numel) -> Tensor {
    DCNAS_CHECK(p < params.size(), std::string("model ran out of parameters "
                                               "binding ") += what);
    DCNAS_CHECK(params[p].value->numel() == expected_numel,
                std::string("parameter shape mismatch binding ") + what +
                    " (" + params[p].name + ")");
    return *params[p++].value;
  };
  auto take_buffer = [&](const char* what,
                         std::int64_t expected_numel) -> Tensor {
    DCNAS_CHECK(b < buffers.size(), std::string("model ran out of buffers "
                                                "binding ") += what);
    DCNAS_CHECK(buffers[b].value->numel() == expected_numel,
                std::string("buffer shape mismatch binding ") + what);
    return *buffers[b++].value;
  };

  for (std::size_t i = 0; i < graph_.size(); ++i) {
    const GraphNode& n = graph_.nodes()[i];
    NodeState& st = state_[i];
    switch (n.kind) {
      case OpKind::kConv:
        st.conv_weight = take_param(
            "conv weight",
            n.out_shape.c * n.in_shape.c * n.attrs.kernel * n.attrs.kernel);
        break;
      case OpKind::kBatchNorm:
        st.bn_gamma = take_param("bn gamma", n.out_shape.c);
        st.bn_beta = take_param("bn beta", n.out_shape.c);
        st.bn_mean = take_buffer("bn running mean", n.out_shape.c);
        st.bn_var = take_buffer("bn running var", n.out_shape.c);
        break;
      case OpKind::kLinear:
        st.linear_weight =
            take_param("linear weight", n.in_shape.numel() * n.out_shape.c);
        st.bias = take_param("linear bias", n.out_shape.c);
        break;
      default:
        break;
    }
  }
  DCNAS_CHECK(p == params.size(),
              "model has unbound parameters (graph/model mismatch)");
  DCNAS_CHECK(b == buffers.size(),
              "model has unbound buffers (graph/model mismatch)");
}

GraphExecutor GraphExecutor::from_state(ModelGraph graph,
                                        std::vector<NodeState> state,
                                        std::vector<bool> identity) {
  graph.validate();
  DCNAS_CHECK(state.size() == graph.size() && identity.size() == graph.size(),
              "executor state size mismatch");
  GraphExecutor exec;
  exec.graph_ = std::move(graph);
  exec.state_ = std::move(state);
  exec.identity_ = std::move(identity);
  for (bool id : exec.identity_) exec.folded_count_ += id ? 1 : 0;
  exec.folded_ = exec.folded_count_ > 0;
  return exec;
}

void GraphExecutor::fold_batchnorm() {
  const auto consumers = graph_.consumers();
  for (std::size_t i = 0; i < graph_.size(); ++i) {
    const GraphNode& n = graph_.nodes()[i];
    if (n.kind != OpKind::kConv) continue;
    const auto& cons = consumers[i];
    if (cons.size() != 1) continue;
    const int bn_idx = cons[0];
    const GraphNode& bn = graph_.node(bn_idx);
    if (bn.kind != OpKind::kBatchNorm) continue;
    if (identity_[static_cast<std::size_t>(bn_idx)]) continue;

    NodeState& conv_st = state_[i];
    fold_batchnorm_into_conv(conv_st.conv_weight, conv_st.bias,
                             state_[static_cast<std::size_t>(bn_idx)],
                             bn_eps_);
    identity_[static_cast<std::size_t>(bn_idx)] = true;
    ++folded_count_;
  }
  folded_ = true;
}

Tensor GraphExecutor::run_node(int index, const std::vector<Tensor>& outputs,
                               const Tensor& input) const {
  const GraphNode& n = graph_.node(index);
  auto in = [&](int slot) -> const Tensor& {
    const int src = n.inputs[static_cast<std::size_t>(slot)];
    return src == 0 ? input : outputs[static_cast<std::size_t>(src)];
  };
  const NodeState& st = state_[static_cast<std::size_t>(index)];
  switch (n.kind) {
    case OpKind::kInput:
    case OpKind::kOutput:
      throw InternalError("structural node executed");
    case OpKind::kConv: {
      const Tensor& x = in(0);
      const std::int64_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
      DCNAS_CHECK(x.dim(1) == n.in_shape.c, "conv input channel mismatch");
      const std::int64_t oh =
          conv_out_size(h, n.attrs.kernel, n.attrs.stride, n.attrs.padding);
      const std::int64_t ow =
          conv_out_size(w, n.attrs.kernel, n.attrs.stride, n.attrs.padding);
      const std::int64_t rows = n.in_shape.c * n.attrs.kernel * n.attrs.kernel;
      Tensor out({batch, n.out_shape.c, oh, ow});
      std::vector<float> col(static_cast<std::size_t>(rows * oh * ow));
      for (std::int64_t s = 0; s < batch; ++s) {
        im2col(x.data() + s * n.in_shape.c * h * w, n.in_shape.c, h, w,
               n.attrs.kernel, n.attrs.stride, n.attrs.padding, col.data());
        float* o = out.data() + s * n.out_shape.c * oh * ow;
        gemm(n.out_shape.c, oh * ow, rows, 1.0f, st.conv_weight.data(),
             col.data(), 0.0f, o);
        if (st.bias) {
          for (std::int64_t c = 0; c < n.out_shape.c; ++c) {
            const float bias_c = (*st.bias)[c];
            float* row_ptr = o + c * oh * ow;
            for (std::int64_t j = 0; j < oh * ow; ++j) row_ptr[j] += bias_c;
          }
        }
      }
      return out;
    }
    case OpKind::kBatchNorm: {
      const Tensor& x = in(0);
      if (identity_[static_cast<std::size_t>(index)]) return x;
      const BatchNormAffine bn = batchnorm_affine(st, bn_eps_);
      Tensor out(x.shape());
      const std::int64_t c_count = x.dim(1), hw = x.dim(2) * x.dim(3);
      for (std::int64_t s = 0; s < x.dim(0); ++s) {
        for (std::int64_t c = 0; c < c_count; ++c) {
          const float scale = bn.scale[c];
          const float shift = bn.shift[c];
          const float* xi = x.data() + (s * c_count + c) * hw;
          float* oi = out.data() + (s * c_count + c) * hw;
          for (std::int64_t j = 0; j < hw; ++j) oi[j] = xi[j] * scale + shift;
        }
      }
      return out;
    }
    case OpKind::kRelu: {
      Tensor out = in(0);
      relu_inplace(out, nullptr);
      return out;
    }
    case OpKind::kMaxPool:
      return maxpool2d_forward(in(0), n.attrs.kernel, n.attrs.stride,
                               n.attrs.padding, nullptr);
    case OpKind::kGlobalAvgPool:
      return global_avgpool_forward(in(0));
    case OpKind::kAdd:
      return in(0).added(in(1));
    case OpKind::kLinear: {
      const Tensor& x = in(0);
      const std::int64_t batch = x.dim(0);
      const std::int64_t in_f = n.in_shape.numel();
      Tensor out({batch, n.out_shape.c});
      gemm_bt(batch, n.out_shape.c, in_f, 1.0f, x.data(),
              st.linear_weight.data(), 0.0f, out.data());
      for (std::int64_t s = 0; s < batch; ++s) {
        for (std::int64_t c = 0; c < n.out_shape.c; ++c) {
          out.at(s, c) += (*st.bias)[c];
        }
      }
      return out;
    }
  }
  throw InternalError("unhandled op kind in executor");
}

Tensor GraphExecutor::run(const Tensor& input) const {
  DCNAS_CHECK(input.ndim() == 4 &&
                  input.dim(1) == graph_.nodes().front().out_shape.c,
              "executor input shape mismatch");
  obs::Span span("graph", "graph.execute");
  if (span.armed()) span.arg("rows", input.dim(0));
  static obs::Counter& runs =
      obs::MetricsRegistry::global().counter("graph.executor.run.count");
  static obs::Histogram& batch_rows =
      obs::MetricsRegistry::global().histogram(
          "graph.executor.batch_rows", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
  runs.add(1);
  batch_rows.observe(static_cast<double>(input.dim(0)));
  std::vector<Tensor> outputs(graph_.size());
  Tensor result;
  for (std::size_t i = 1; i < graph_.size(); ++i) {
    const GraphNode& n = graph_.nodes()[i];
    if (n.kind == OpKind::kOutput) {
      const int src = n.inputs.front();
      result = src == 0 ? input : outputs[static_cast<std::size_t>(src)];
      continue;
    }
    outputs[i] = run_node(static_cast<int>(i), outputs, input);
  }
  DCNAS_CHECK(!result.empty(), "graph produced no output");
  return result;
}

}  // namespace dcnas::graph
