// Batch normalization over NCHW feature maps (per-channel statistics).
//
// Training mode normalizes with batch statistics and maintains running
// mean/variance via exponential moving average; eval mode uses the
// running statistics, making the layer a per-channel affine transform —
// which is what allows exact folding into a preceding convolution
// (nn/fold_bn.h). Eval-mode backward is supported (input gradients are
// needed when attacking eval-mode models). gamma/beta gradients
// accumulate only while parameter gradients are enabled, so frozen
// backward passes write nothing to the module and may run concurrently.
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"

namespace diva {

class BatchNorm2d : public Module {
 public:
  BatchNorm2d(std::string name, std::int64_t channels, float eps = 1e-5f,
              float momentum = 0.1f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<std::pair<std::string, Parameter*>> local_parameters() override;

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  Parameter& running_mean() { return running_mean_; }
  Parameter& running_var() { return running_var_; }
  float eps() const { return eps_; }
  std::int64_t channels() const { return channels_; }

 private:
  std::int64_t channels_;
  float eps_, momentum_;
  Parameter gamma_, beta_;
  Parameter running_mean_, running_var_;  // buffers (trainable = false)
};

}  // namespace diva
