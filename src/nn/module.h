// Module: the layer abstraction of the NN substrate.
//
// forward() computes the layer output and records what backward() will
// need on the calling thread's activation tape (nn/tape.h); backward()
// receives the gradient with respect to the module output, takes that
// record back, and returns the gradient with respect to the module
// input, accumulating parameter gradients along the way. A module holds
// only its parameters and config, so forward/backward pairs are
// reentrant: threads that each run under their own TapeScope may share
// one network, as the attack engine's shards do. Parameter-gradient
// accumulation and training-mode statistics (BatchNorm running stats,
// fake-quant ranges) still write to the module, so concurrent pairs need
// eval mode with parameter gradients disabled.
//
// Both training-mode and eval-mode backward are supported; adversarial
// attacks differentiate eval-mode networks with respect to their input.
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/tape.h"
#include "tensor/tensor.h"

namespace diva {

/// A learnable (or buffer) tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
  /// False for buffers such as BatchNorm running statistics: serialized
  /// with the model but never updated by optimizers.
  bool trainable = true;

  explicit Parameter(Tensor v, bool trainable_in = true)
      : value(std::move(v)), grad(value.shape()), trainable(trainable_in) {}
  Parameter() = default;
};

/// A parameter with its fully-qualified name, e.g. "block1.conv1.weight".
struct NamedParameter {
  std::string name;
  Parameter* param = nullptr;
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() { forget_on_all_tapes(this); }

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output. Records state for backward() on the
  /// current tape.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Propagates gradients: takes d(loss)/d(output), returns
  /// d(loss)/d(input), and accumulates parameter gradients (+=).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Parameters owned directly by this module (non-recursive),
  /// with their local names.
  virtual std::vector<std::pair<std::string, Parameter*>> local_parameters() {
    return {};
  }

  /// Direct submodules (non-recursive).
  virtual std::vector<Module*> children() { return {}; }

  /// All parameters in the subtree with hierarchical names.
  std::vector<NamedParameter> named_parameters();

  /// Applies fn to this module and every descendant (pre-order).
  void visit(const std::function<void(Module&)>& fn);

  /// Zeroes every gradient in the subtree.
  void zero_grad();

  /// Switches training/eval mode for the subtree.
  void set_training(bool training);

  /// Disables parameter-gradient accumulation in the subtree. backward()
  /// then only propagates input gradients — roughly halving its cost.
  /// Used by adversarial attacks, which differentiate frozen models with
  /// respect to the input thousands of times.
  void set_param_grads_enabled(bool enabled);

  bool training() const { return training_; }
  bool param_grads_enabled() const { return param_grads_enabled_; }
  const std::string& name() const { return name_; }

  /// Total number of elements across trainable parameters in the subtree.
  std::int64_t num_trainable_elements();

 protected:
  /// Records this module's state for the matching backward() on the
  /// calling thread's current tape, replacing an earlier record.
  template <typename T>
  void save_for_backward(T state) const {
    current_tape().put(this, std::move(state));
  }

  /// Takes back what the matching forward() saved. Throws when there is
  /// none: backward without a preceding forward, or a second backward.
  template <typename T>
  T take_saved() const {
    std::any saved = current_tape().take(this);
    T* state = std::any_cast<T>(&saved);
    DIVA_CHECK(state != nullptr,
               name_ << ": backward without a preceding forward");
    return std::move(*state);
  }

 private:
  void collect(const std::string& prefix, std::vector<NamedParameter>& out);

  std::string name_;
  bool training_ = false;
  bool param_grads_enabled_ = true;
};

/// Pass-through layer; useful as a residual shortcut.
class Identity : public Module {
 public:
  explicit Identity(std::string name = "identity") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override { return x; }
  Tensor backward(const Tensor& grad_out) override { return grad_out; }
};

}  // namespace diva
