// Fully-connected layer on rank-2 [N, D] inputs. Forward and both
// backward products run on the blocked kernels/gemm.h sgemm (bias and
// transposes fused); forward state lives on the activation tape
// (nn/tape.h) and is released after backward.
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"

namespace diva {

class Dense : public Module {
 public:
  Dense(std::string name, std::int64_t in_features, std::int64_t out_features,
        bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<std::pair<std::string, Parameter*>> local_parameters() override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return with_bias_; }
  std::int64_t in_features() const { return in_f_; }
  std::int64_t out_features() const { return out_f_; }

 protected:
  /// See Conv2d::effective_weight — hook for fake-quantized weights.
  virtual Tensor effective_weight() { return Tensor(); }

 private:
  std::int64_t in_f_, out_f_;
  bool with_bias_;
  Parameter weight_;  // [in_f, out_f]
  Parameter bias_;    // [out_f]
};

}  // namespace diva
