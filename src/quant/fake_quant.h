// Fake quantization — the simulated-quantization building block of QAT.
//
// ActFakeQuant simulates int8 activation quantization inside a float
// graph: forward quantize-dequantizes through the affine grid; backward
// is the straight-through estimator with clipping (gradients pass where
// the input fell inside the representable range, and are zeroed where it
// was clipped; the clipping mask goes on the activation tape, nn/tape.h).
// In training mode the layer also maintains an exponential
// moving average of the observed min/max (TF MovingAverageQuantize
// behavior); in eval mode it quantizes with the frozen range.
//
// Until the first training-mode forward initializes the range, the layer
// is a pass-through, so a freshly-built QAT skeleton behaves exactly
// like its float counterpart — which is what makes weight-transfer
// verification possible.
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"
#include "quant/qparams.h"

namespace diva {

/// Quantize-dequantize through an int8 affine grid (out-of-place).
Tensor fake_quantize(const Tensor& x, const QuantParams& qp);

/// Per-channel symmetric weight fake-quantization (leading axis =
/// output channel).
Tensor fake_quantize_per_channel(const Tensor& w,
                                 std::span<const float> scales);

class ActFakeQuant : public Module {
 public:
  explicit ActFakeQuant(std::string name, float ema_momentum = 0.01f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<std::pair<std::string, Parameter*>> local_parameters() override;

  /// True once a training-mode forward has observed data.
  bool initialized() const { return range_.value[2] != 0.0f; }

  /// Frozen quantization parameters derived from the observed range.
  QuantParams qparams() const;

  float observed_min() const { return range_.value[0]; }
  float observed_max() const { return range_.value[1]; }

  /// Overrides the observed range (used by tests and PTQ pipelines).
  void set_range(float min_val, float max_val);

  /// When disabled the layer passes activations through unchanged while
  /// still updating statistics in training mode (observe-only phase of
  /// post-training calibration).
  void set_quantize_enabled(bool enabled) { quantize_enabled_ = enabled; }
  bool quantize_enabled() const { return quantize_enabled_; }

 private:
  float ema_momentum_;
  bool quantize_enabled_ = true;
  // Buffer {min, max, initialized-flag}; persisted with checkpoints.
  Parameter range_;
};

}  // namespace diva
