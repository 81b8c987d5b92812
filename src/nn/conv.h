// 2-D convolution layers (standard and depthwise), NCHW, square kernels.
//
// Conv2d lowers each image with im2col into thread-local Workspace
// scratch and runs the blocked kernels/gemm.h sgemm against the
// [out_c, in_c*k*k] weight matrix; batches are parallelized across the
// thread pool. Backward is two more GEMMs over the same panels (dX via
// the transposed weights + col2im, dW via gy x colsT, recomputed from
// the saved input only when parameter gradients are enabled). Forward
// state lives on the activation tape (nn/tape.h) and is released when
// backward finishes, so attack loops don't retain per-layer buffers
// between steps. Parameter gradients are reduced from per-chunk buffers
// in chunk order, so training is reproducible for a given pool width.
//
// The `effective_weight()` hook lets quantization-aware subclasses
// (quant/QatConv2d) substitute fake-quantized weights while reusing all
// of the forward/backward machinery — gradients then flow to the float
// master weights via the straight-through estimator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace diva {

class Conv2d : public Module {
 public:
  /// kernel is the square kernel size; pad is symmetric zero padding.
  Conv2d(std::string name, std::int64_t in_c, std::int64_t out_c,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = 0,
         bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<std::pair<std::string, Parameter*>> local_parameters() override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return with_bias_; }
  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 protected:
  /// Weights for one forward/backward pair: a transformed (e.g.
  /// fake-quantized) copy, or an empty tensor to use weight() as is.
  /// Gradients accumulate to the master weight() regardless
  /// (straight-through estimator). Must be safe to call concurrently.
  virtual Tensor effective_weight() { return Tensor(); }

 private:
  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool with_bias_;
  Parameter weight_;  // [out_c, in_c, k, k]
  Parameter bias_;    // [out_c]
};

/// Depthwise convolution: one k x k filter per channel (multiplier 1).
class DepthwiseConv2d : public Module {
 public:
  DepthwiseConv2d(std::string name, std::int64_t channels,
                  std::int64_t kernel, std::int64_t stride = 1,
                  std::int64_t pad = 0, bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<std::pair<std::string, Parameter*>> local_parameters() override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return with_bias_; }
  std::int64_t channels() const { return channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 protected:
  /// See Conv2d::effective_weight.
  virtual Tensor effective_weight() { return Tensor(); }

 private:
  std::int64_t channels_, kernel_, stride_, pad_;
  bool with_bias_;
  Parameter weight_;  // [C, 1, k, k]
  Parameter bias_;    // [C]
};

}  // namespace diva
