#include "nn/batchnorm.h"

#include <cmath>

namespace diva {

namespace {

/// What BatchNorm2d::backward needs from its forward.
struct BatchNormSaved {
  Tensor xhat;  // normalized input
  std::vector<float> inv_std;
  bool was_training = false;
};

}  // namespace

BatchNorm2d::BatchNorm2d(std::string name, std::int64_t channels, float eps,
                         float momentum)
    : Module(std::move(name)),
      channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor(Shape{channels}, 1.0f)),
      beta_(Tensor(Shape{channels})),
      running_mean_(Tensor(Shape{channels}), /*trainable=*/false),
      running_var_(Tensor(Shape{channels}, 1.0f), /*trainable=*/false) {
  DIVA_CHECK(channels > 0, "bad BatchNorm2d config");
}

std::vector<std::pair<std::string, Parameter*>>
BatchNorm2d::local_parameters() {
  return {{"gamma", &gamma_},
          {"beta", &beta_},
          {"running_mean", &running_mean_},
          {"running_var", &running_var_}};
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4 && x.dim(1) == channels_,
             name() << ": expected [N," << channels_ << ",H,W], got "
                    << x.shape().str());
  const std::int64_t batch = x.dim(0);
  const std::int64_t hw = x.dim(2) * x.dim(3);
  const std::int64_t m = batch * hw;
  BatchNormSaved saved{Tensor(x.shape()),
                       std::vector<float>(static_cast<std::size_t>(channels_)),
                       training()};

  Tensor out(x.shape());
  for (std::int64_t c = 0; c < channels_; ++c) {
    float mean_c, var_c;
    if (saved.was_training) {
      double s = 0.0, s2 = 0.0;
      for (std::int64_t n = 0; n < batch; ++n) {
        const float* p = x.raw() + (n * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          s += p[i];
          s2 += static_cast<double>(p[i]) * p[i];
        }
      }
      mean_c = static_cast<float>(s / m);
      var_c = static_cast<float>(s2 / m - (s / m) * (s / m));
      if (var_c < 0.0f) var_c = 0.0f;  // numeric guard
      running_mean_.value[c] =
          (1.0f - momentum_) * running_mean_.value[c] + momentum_ * mean_c;
      running_var_.value[c] =
          (1.0f - momentum_) * running_var_.value[c] + momentum_ * var_c;
    } else {
      mean_c = running_mean_.value[c];
      var_c = running_var_.value[c];
    }
    const float inv_std = 1.0f / std::sqrt(var_c + eps_);
    saved.inv_std[static_cast<std::size_t>(c)] = inv_std;
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* p = x.raw() + (n * channels_ + c) * hw;
      float* xh = saved.xhat.raw() + (n * channels_ + c) * hw;
      float* o = out.raw() + (n * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        xh[i] = (p[i] - mean_c) * inv_std;
        o[i] = g * xh[i] + b;
      }
    }
  }
  save_for_backward(std::move(saved));
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  const auto saved = take_saved<BatchNormSaved>();
  DIVA_CHECK(grad_out.shape() == saved.xhat.shape(),
             name() << ": bad grad shape " << grad_out.shape().str());
  const std::int64_t batch = grad_out.dim(0);
  const std::int64_t hw = grad_out.dim(2) * grad_out.dim(3);
  const std::int64_t m = batch * hw;
  Tensor grad_in(grad_out.shape());

  for (std::int64_t c = 0; c < channels_; ++c) {
    const float inv_std = saved.inv_std[static_cast<std::size_t>(c)];
    const float g = gamma_.value[c];

    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* dy = grad_out.raw() + (n * channels_ + c) * hw;
      const float* xh = saved.xhat.raw() + (n * channels_ + c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        sum_dy += dy[i];
        sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
      }
    }
    if (param_grads_enabled()) {
      gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
      beta_.grad[c] += static_cast<float>(sum_dy);
    }

    if (saved.was_training) {
      // Full BN backward through batch statistics.
      const float k1 = g * inv_std / static_cast<float>(m);
      for (std::int64_t n = 0; n < batch; ++n) {
        const float* dy = grad_out.raw() + (n * channels_ + c) * hw;
        const float* xh = saved.xhat.raw() + (n * channels_ + c) * hw;
        float* gi = grad_in.raw() + (n * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          gi[i] = k1 * (static_cast<float>(m) * dy[i] -
                        static_cast<float>(sum_dy) -
                        xh[i] * static_cast<float>(sum_dy_xhat));
        }
      }
    } else {
      // Eval mode: normalization constants are fixed, so BN is affine.
      const float k = g * inv_std;
      for (std::int64_t n = 0; n < batch; ++n) {
        const float* dy = grad_out.raw() + (n * channels_ + c) * hw;
        float* gi = grad_in.raw() + (n * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) gi[i] = k * dy[i];
      }
    }
  }
  return grad_in;
}

}  // namespace diva
