#include "quant/fake_quant.h"

#include <algorithm>
#include <cmath>

namespace diva {

Tensor fake_quantize(const Tensor& x, const QuantParams& qp) {
  Tensor out(x.shape());
  const float inv = 1.0f / qp.scale;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const auto q = static_cast<std::int32_t>(std::lround(x[i] * inv)) +
                   qp.zero_point;
    const std::int32_t qc = std::clamp<std::int32_t>(q, kQmin, kQmax);
    out[i] = static_cast<float>(qc - qp.zero_point) * qp.scale;
  }
  return out;
}

Tensor fake_quantize_per_channel(const Tensor& w,
                                 std::span<const float> scales) {
  const std::int64_t channels = w.dim(0);
  DIVA_CHECK(static_cast<std::int64_t>(scales.size()) == channels,
             "fake_quantize_per_channel: scale count mismatch");
  const std::int64_t per = w.numel() / channels;
  Tensor out(w.shape());
  for (std::int64_t c = 0; c < channels; ++c) {
    const float s = scales[static_cast<std::size_t>(c)];
    const float inv = 1.0f / s;
    const float* p = w.raw() + c * per;
    float* o = out.raw() + c * per;
    for (std::int64_t i = 0; i < per; ++i) {
      const auto q = static_cast<std::int32_t>(std::lround(p[i] * inv));
      o[i] = static_cast<float>(std::clamp<std::int32_t>(q, kQmin, kQmax)) * s;
    }
  }
  return out;
}

ActFakeQuant::ActFakeQuant(std::string name, float ema_momentum)
    : Module(std::move(name)),
      ema_momentum_(ema_momentum),
      range_(Tensor(Shape{3}), /*trainable=*/false) {}

std::vector<std::pair<std::string, Parameter*>>
ActFakeQuant::local_parameters() {
  return {{"range", &range_}};
}

QuantParams ActFakeQuant::qparams() const {
  return choose_qparams(range_.value[0], range_.value[1]);
}

void ActFakeQuant::set_range(float min_val, float max_val) {
  range_.value[0] = min_val;
  range_.value[1] = max_val;
  range_.value[2] = 1.0f;
}

Tensor ActFakeQuant::forward(const Tensor& x) {
  if (training()) {
    float mn = x[0], mx = x[0];
    for (std::int64_t i = 1; i < x.numel(); ++i) {
      mn = std::min(mn, x[i]);
      mx = std::max(mx, x[i]);
    }
    if (!initialized()) {
      set_range(mn, mx);
    } else {
      range_.value[0] += ema_momentum_ * (mn - range_.value[0]);
      range_.value[1] += ema_momentum_ * (mx - range_.value[1]);
    }
  }

  // The saved STE clipping mask is 1 where the gradient passes; an
  // empty mask records a pass-through forward.
  if (!initialized() || !quantize_enabled_) {
    save_for_backward(Tensor());
    return x;
  }

  const QuantParams qp = qparams();
  // Representable real range for the STE clipping mask.
  const float lo = (static_cast<float>(kQmin) - qp.zero_point) * qp.scale;
  const float hi = (static_cast<float>(kQmax) - qp.zero_point) * qp.scale;
  Tensor pass_mask(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    pass_mask[i] = (x[i] >= lo && x[i] <= hi) ? 1.0f : 0.0f;
  }
  save_for_backward(std::move(pass_mask));
  return fake_quantize(x, qp);
}

Tensor ActFakeQuant::backward(const Tensor& grad_out) {
  const auto pass_mask = take_saved<Tensor>();
  if (pass_mask.empty()) return grad_out;
  DIVA_CHECK(grad_out.shape() == pass_mask.shape(),
             name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[i] = grad_out[i] * pass_mask[i];
  }
  return grad_in;
}

}  // namespace diva
