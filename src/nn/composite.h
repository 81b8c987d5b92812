// Composite topologies: residual addition (ResNet) and channel
// concatenation (DenseNet). Together with Sequential these express every
// architecture in src/models without a general DAG executor.
#pragma once

#include <memory>
#include <string>

#include "nn/sequential.h"

namespace diva {

/// y = main(x) + shortcut(x). Pass nullptr shortcut for identity.
/// The post-addition activation (classic ResNet places ReLU after the
/// add) is NOT part of this module; model factories append it.
class Residual : public Module {
 public:
  Residual(std::string name, std::unique_ptr<Sequential> main_branch,
           std::unique_ptr<Sequential> shortcut = nullptr);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Module*> children() override;

  Sequential& main_branch() { return *main_; }
  bool has_projection() const { return shortcut_ != nullptr; }
  Sequential* shortcut() { return shortcut_.get(); }

 private:
  std::unique_ptr<Sequential> main_;
  std::unique_ptr<Sequential> shortcut_;  // nullptr = identity
};

/// y = concat_channels(x, body(x)) — the DenseNet growth pattern.
class DenseBranch : public Module {
 public:
  DenseBranch(std::string name, std::unique_ptr<Sequential> body);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Module*> children() override;

  Sequential& body() { return *body_; }

 private:
  std::unique_ptr<Sequential> body_;
};

}  // namespace diva
