// Pointwise activation layers. Each records its input (Sigmoid: its
// output) on the activation tape for backward.
#pragma once

#include <string>

#include "nn/module.h"

namespace diva {

/// Rectified linear unit: y = max(0, x).
class Relu : public Module {
 public:
  explicit Relu(std::string name = "relu") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
};

/// ReLU6: y = min(6, max(0, x)) — the MobileNet activation, also friendly
/// to fixed-range quantization.
class Relu6 : public Module {
 public:
  explicit Relu6(std::string name = "relu6") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
};

/// Logistic sigmoid: y = 1 / (1 + exp(-x)).
class Sigmoid : public Module {
 public:
  explicit Sigmoid(std::string name = "sigmoid") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
};

/// Hard sigmoid, TFLite convention: y = clamp(x / 6 + 0.5, 0, 1).
class HardSigmoid : public Module {
 public:
  explicit HardSigmoid(std::string name = "hard_sigmoid")
      : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
};

/// Leaky ReLU with fixed negative slope.
class LeakyRelu : public Module {
 public:
  explicit LeakyRelu(std::string name = "leaky_relu", float slope = 0.01f)
      : Module(std::move(name)), slope_(slope) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  float slope() const { return slope_; }

 private:
  float slope_;
};

}  // namespace diva
