#include "nn/dense.h"

#include "kernels/gemm.h"
#include "tensor/tensor_ops.h"

namespace diva {

namespace {

/// What Dense::backward needs from its forward.
struct DenseSaved {
  Tensor input;  // for dW; empty when param grads are off
  Tensor wq;     // effective_weight() of the forward; empty = weight()
};

}  // namespace

Dense::Dense(std::string name, std::int64_t in_features,
             std::int64_t out_features, bool with_bias)
    : Module(std::move(name)),
      in_f_(in_features),
      out_f_(out_features),
      with_bias_(with_bias),
      weight_(Tensor(Shape{in_features, out_features})),
      bias_(Tensor(Shape{out_features})) {
  DIVA_CHECK(in_features > 0 && out_features > 0, "bad Dense config");
}

std::vector<std::pair<std::string, Parameter*>> Dense::local_parameters() {
  std::vector<std::pair<std::string, Parameter*>> out{{"weight", &weight_}};
  if (with_bias_) out.emplace_back("bias", &bias_);
  return out;
}

Tensor Dense::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 2 && x.dim(1) == in_f_,
             name() << ": expected [N," << in_f_ << "], got "
                    << x.shape().str());
  Tensor wq = effective_weight();
  const std::int64_t n = x.dim(0);
  Tensor out(Shape{n, out_f_});
  // out[N, out_f] = x[N, in_f] x W[in_f, out_f] + bias (per column).
  sgemm(n, out_f_, in_f_, x.raw(), in_f_, false,
        wq.empty() ? weight_.value.raw() : wq.raw(), out_f_, false,
        out.raw(), out_f_,
        {.bias_col = with_bias_ ? bias_.value.raw() : nullptr});
  // The input is only needed for dW; frozen models skip the copy.
  save_for_backward(
      DenseSaved{param_grads_enabled() ? x : Tensor(), std::move(wq)});
  return out;
}

Tensor Dense::backward(const Tensor& grad_out) {
  const auto saved = take_saved<DenseSaved>();
  DIVA_CHECK(!param_grads_enabled() || !saved.input.empty(),
             name() << ": parameter gradients were enabled after a frozen "
                       "forward; rerun forward first");
  DIVA_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_f_,
             name() << ": bad grad shape " << grad_out.shape().str());
  const std::int64_t n = grad_out.dim(0);
  // dW += XT dY ; db += colsum(dY) ; dX = dY WT — transposes are
  // handled inside sgemm packing, nothing is materialized.
  if (param_grads_enabled()) {
    sgemm(in_f_, out_f_, n, saved.input.raw(), in_f_, true, grad_out.raw(),
          out_f_, false, weight_.grad.raw(), out_f_, {.beta = 1.0f});
    if (with_bias_) {
      for (std::int64_t i = 0; i < n; ++i) {
        const float* row = grad_out.raw() + i * out_f_;
        for (std::int64_t j = 0; j < out_f_; ++j) bias_.grad[j] += row[j];
      }
    }
  }
  Tensor grad_in(Shape{n, in_f_});
  sgemm(n, in_f_, out_f_, grad_out.raw(), out_f_, false,
        saved.wq.empty() ? weight_.value.raw() : saved.wq.raw(), out_f_, true,
        grad_in.raw(), in_f_, {});
  return grad_in;
}

}  // namespace diva
