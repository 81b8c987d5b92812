#include "quant/qat_layers.h"

#include <cmath>

#include "tensor/tensor_ops.h"

namespace diva {

std::vector<float> QatConv2d::effective_scales() {
  if (!per_tensor_) return weight_scales();
  const float m = max_abs(weight().value);
  const float s = std::max(m / static_cast<float>(kQmax), 1e-8f);
  return std::vector<float>(static_cast<std::size_t>(out_channels()), s);
}

Tensor QatConv2d::effective_weight() {
  return fake_quantize_per_channel(weight().value, effective_scales());
}

Tensor QatDepthwiseConv2d::effective_weight() {
  return fake_quantize_per_channel(weight().value, weight_scales());
}

std::vector<float> QatDense::weight_scales() const {
  // weight is [in, out]; compute per-output-column maxima.
  auto& self = const_cast<QatDense&>(*this);
  const Tensor& w = self.weight().value;
  const std::int64_t in = w.dim(0), out = w.dim(1);
  std::vector<float> scales(static_cast<std::size_t>(out), 0.0f);
  for (std::int64_t i = 0; i < in; ++i) {
    const float* row = w.raw() + i * out;
    for (std::int64_t j = 0; j < out; ++j) {
      scales[static_cast<std::size_t>(j)] =
          std::max(scales[static_cast<std::size_t>(j)], std::fabs(row[j]));
    }
  }
  for (auto& s : scales) s = std::max(s / static_cast<float>(kQmax), 1e-8f);
  return scales;
}

Tensor QatDense::effective_weight() {
  const auto scales = weight_scales();
  const Tensor& w = weight().value;
  const std::int64_t in = w.dim(0), out = w.dim(1);
  Tensor fq_weight(w.shape());
  for (std::int64_t i = 0; i < in; ++i) {
    const float* row = w.raw() + i * out;
    float* orow = fq_weight.raw() + i * out;
    for (std::int64_t j = 0; j < out; ++j) {
      const float s = scales[static_cast<std::size_t>(j)];
      const auto q = static_cast<std::int32_t>(std::lround(row[j] / s));
      orow[j] =
          static_cast<float>(std::clamp<std::int32_t>(q, kQmin, kQmax)) * s;
    }
  }
  return fq_weight;
}

}  // namespace diva
