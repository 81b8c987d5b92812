#include "nn/composite.h"

#include "tensor/tensor_ops.h"

namespace diva {

namespace {

/// Extracts channels [from, to) of an NCHW tensor.
Tensor slice_channels(const Tensor& t, std::int64_t from, std::int64_t to) {
  DIVA_CHECK(t.rank() == 4 && from >= 0 && to <= t.dim(1) && from < to,
             "bad channel slice");
  const std::int64_t n = t.dim(0), c = t.dim(1);
  const std::int64_t hw = t.dim(2) * t.dim(3);
  Tensor out(Shape{n, to - from, t.dim(2), t.dim(3)});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    std::copy_n(t.raw() + (ni * c + from) * hw, (to - from) * hw,
                out.raw() + ni * (to - from) * hw);
  }
  return out;
}

}  // namespace

Residual::Residual(std::string name, std::unique_ptr<Sequential> main_branch,
                   std::unique_ptr<Sequential> shortcut)
    : Module(std::move(name)),
      main_(std::move(main_branch)),
      shortcut_(std::move(shortcut)) {
  DIVA_CHECK(main_ != nullptr, "Residual requires a main branch");
}

Tensor Residual::forward(const Tensor& x) {
  Tensor ym = main_->forward(x);
  if (shortcut_) {
    Tensor ys = shortcut_->forward(x);
    return add(ym, ys);
  }
  DIVA_CHECK(ym.shape() == x.shape(),
             name() << ": identity shortcut shape mismatch "
                    << ym.shape().str() << " vs " << x.shape().str());
  return add(ym, x);
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor grad_main = main_->backward(grad_out);
  if (shortcut_) {
    Tensor grad_short = shortcut_->backward(grad_out);
    return add(grad_main, grad_short);
  }
  return add(grad_main, grad_out);
}

std::vector<Module*> Residual::children() {
  std::vector<Module*> out{main_.get()};
  if (shortcut_) out.push_back(shortcut_.get());
  return out;
}

DenseBranch::DenseBranch(std::string name, std::unique_ptr<Sequential> body)
    : Module(std::move(name)), body_(std::move(body)) {
  DIVA_CHECK(body_ != nullptr, "DenseBranch requires a body");
}

Tensor DenseBranch::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4, name() << ": expected NCHW");
  Tensor grown = body_->forward(x);
  save_for_backward(x.dim(1));
  return concat_channels(x, grown);
}

Tensor DenseBranch::backward(const Tensor& grad_out) {
  const auto input_channels = take_saved<std::int64_t>();
  DIVA_CHECK(grad_out.rank() == 4 && grad_out.dim(1) > input_channels,
             name() << ": bad grad shape");
  Tensor grad_passthrough = slice_channels(grad_out, 0, input_channels);
  Tensor grad_body = slice_channels(grad_out, input_channels, grad_out.dim(1));
  Tensor grad_x = body_->backward(grad_body);
  return add(grad_passthrough, grad_x);
}

std::vector<Module*> DenseBranch::children() { return {body_.get()}; }

}  // namespace diva
