// Flatten: [N, C, H, W] -> [N, C*H*W].
#pragma once

#include <string>

#include "nn/module.h"

namespace diva {

class Flatten : public Module {
 public:
  explicit Flatten(std::string name = "flatten") : Module(std::move(name)) {}

  Tensor forward(const Tensor& x) override {
    DIVA_CHECK(x.rank() >= 2, name() << ": expected rank >= 2");
    save_for_backward(x.shape());
    const std::int64_t n = x.dim(0);
    return x.reshaped(Shape{n, x.numel() / n});
  }

  Tensor backward(const Tensor& grad_out) override {
    return grad_out.reshaped(take_saved<Shape>());
  }
};

}  // namespace diva
