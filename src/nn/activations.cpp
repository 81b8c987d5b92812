#include "nn/activations.h"

#include <cmath>

namespace diva {

Tensor Relu::forward(const Tensor& x) {
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  save_for_backward(x);
  return out;
}

Tensor Relu::backward(const Tensor& grad_out) {
  const auto input = take_saved<Tensor>();
  DIVA_CHECK(grad_out.shape() == input.shape(),
             name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[i] = input[i] > 0.0f ? grad_out[i] : 0.0f;
  }
  return grad_in;
}

Tensor Relu6::forward(const Tensor& x) {
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = x[i] <= 0.0f ? 0.0f : (x[i] >= 6.0f ? 6.0f : x[i]);
  }
  save_for_backward(x);
  return out;
}

Tensor Relu6::backward(const Tensor& grad_out) {
  const auto input = take_saved<Tensor>();
  DIVA_CHECK(grad_out.shape() == input.shape(),
             name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const float x = input[i];
    grad_in[i] = (x > 0.0f && x < 6.0f) ? grad_out[i] : 0.0f;
  }
  return grad_in;
}

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  save_for_backward(out);
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  const auto output = take_saved<Tensor>();
  DIVA_CHECK(grad_out.shape() == output.shape(),
             name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const float y = output[i];
    grad_in[i] = grad_out[i] * y * (1.0f - y);
  }
  return grad_in;
}

Tensor HardSigmoid::forward(const Tensor& x) {
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float y = x[i] / 6.0f + 0.5f;
    out[i] = y <= 0.0f ? 0.0f : (y >= 1.0f ? 1.0f : y);
  }
  save_for_backward(x);
  return out;
}

Tensor HardSigmoid::backward(const Tensor& grad_out) {
  const auto input = take_saved<Tensor>();
  DIVA_CHECK(grad_out.shape() == input.shape(),
             name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const float x = input[i];
    grad_in[i] = (x > -3.0f && x < 3.0f) ? grad_out[i] / 6.0f : 0.0f;
  }
  return grad_in;
}

Tensor LeakyRelu::forward(const Tensor& x) {
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = x[i] > 0.0f ? x[i] : slope_ * x[i];
  }
  save_for_backward(x);
  return out;
}

Tensor LeakyRelu::backward(const Tensor& grad_out) {
  const auto input = take_saved<Tensor>();
  DIVA_CHECK(grad_out.shape() == input.shape(),
             name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[i] = input[i] > 0.0f ? grad_out[i] : slope_ * grad_out[i];
  }
  return grad_in;
}

}  // namespace diva
