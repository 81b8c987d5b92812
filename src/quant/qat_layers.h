// Quantization-aware layer variants.
//
// Each QAT layer derives from its float counterpart and overrides
// effective_weight() to run the forward/backward pass with per-channel
// fake-quantized weights, built fresh for each forward and carried to
// backward on the activation tape. Gradients land on the float master weights
// (straight-through estimator), exactly the QAT training scheme of
// Jacob et al. (CVPR'18) that the paper's pipeline (tfmot) implements.
//
// The current per-channel scales are recomputed from the master weights
// on every forward, and are exposed for the int8 converter so that the
// deployed integer model uses bit-identical weight quantization.
#pragma once

#include <string>
#include <vector>

#include "nn/conv.h"
#include "nn/dense.h"
#include "quant/fake_quant.h"

namespace diva {

class QatConv2d : public Conv2d {
 public:
  using Conv2d::Conv2d;

  /// Scales used by the most recent forward (or computed fresh).
  std::vector<float> weight_scales() const {
    return per_channel_scales(const_cast<QatConv2d*>(this)->weight().value);
  }

  /// Per-tensor (not per-channel) weight quantization for ablations.
  void set_per_tensor(bool per_tensor) { per_tensor_ = per_tensor; }
  bool per_tensor() const { return per_tensor_; }

  /// Scales honoring the per-tensor ablation flag.
  std::vector<float> effective_scales();

 protected:
  Tensor effective_weight() override;

 private:
  bool per_tensor_ = false;
};

class QatDepthwiseConv2d : public DepthwiseConv2d {
 public:
  using DepthwiseConv2d::DepthwiseConv2d;

  std::vector<float> weight_scales() const {
    return per_channel_scales(
        const_cast<QatDepthwiseConv2d*>(this)->weight().value);
  }

 protected:
  Tensor effective_weight() override;
};

class QatDense : public Dense {
 public:
  using Dense::Dense;

  /// Dense weights are [in, out]; quantization is per output column,
  /// so scales are computed on the transposed view.
  std::vector<float> weight_scales() const;

 protected:
  Tensor effective_weight() override;
};

}  // namespace diva
