// Spatial pooling layers over NCHW feature maps.
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace diva {

/// Max pooling with square window. Records argmax indices for backward.
class MaxPool2d : public Module {
 public:
  MaxPool2d(std::string name, std::int64_t kernel, std::int64_t stride = 0,
            std::int64_t pad = 0);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 private:
  std::int64_t kernel_, stride_, pad_;
};

/// Average pooling with square window (zero padding contributes zeros but
/// the divisor is always kernel*kernel, matching TF "SAME"-free behavior).
class AvgPool2d : public Module {
 public:
  AvgPool2d(std::string name, std::int64_t kernel, std::int64_t stride = 0);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }

 private:
  std::int64_t kernel_, stride_;
};

/// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool : public Module {
 public:
  explicit GlobalAvgPool(std::string name = "gap") : Module(std::move(name)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
};

}  // namespace diva
