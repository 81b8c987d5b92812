// GradSource: the differentiable-model concept of the attack layer.
//
// A GradSource is anything that can (a) produce eval-mode logits for an
// NCHW batch and (b) estimate the gradient of a scalar objective with
// respect to that batch. Attacks are written against this concept
// instead of concrete Module references, so the same objective can be
// aimed at a float Sequential, a QAT twin, or the deployed integer-only
// QuantizedModel artifact.
//
// Gradient computation is expressed as one atomic `input_grad` call:
// the iterator hands the source a GradRequest holding two closures over
// the objective —
//   dlogits(logits) -> d(objective term)/d(logits)   (backprop sources)
//   values(logits)  -> per-sample scalar term values (derivative-free
//                      sources, e.g. finite differences)
// — and the source picks whichever representation it can use. Making
// the forward/backward pair a single call lets Module-backed sources run
// it under their own TapeScope (nn/tape.h): the pair's activations live
// on a tape private to the call, so AttackEngine shards run concurrent
// forward/backward passes through one shared network, with no lock.
//
// Adapters provided here:
//   ModuleGradSource   — float/QAT Module (Sequential) via backprop.
//   QuantSteGradSource — QuantizedModel forward, straight-through
//                        gradients from a float shadow module (the QAT
//                        twin), i.e. the estimator the paper uses for
//                        int8 targets.
//   QuantFdGradSource  — QuantizedModel forward, central finite
//                        differences on the scalar objective: no float
//                        twin needed, the integer artifact alone is the
//                        attack target.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/module.h"
#include "quant/quantized_model.h"
#include "tensor/tensor_ops.h"

namespace diva {

/// Objective closures a GradSource may use to compute input gradients.
struct GradRequest {
  /// d(objective term)/d(logits) for backpropagating sources. [N,D]->[N,D];
  /// row r of the logits corresponds to batch sample r.
  std::function<Tensor(const Tensor& logits)> dlogits;
  /// Per-row scalar term values for derivative-free sources. `rows[r]`
  /// names the batch sample whose label applies to logits row r — FD
  /// sources evaluate many probe rows per sample. [R,D] -> [R].
  std::function<std::vector<float>(const Tensor& logits,
                                   const std::vector<std::int64_t>& rows)>
      values;
  /// Global index of batch sample 0 and the 0-based iteration number.
  /// Stochastic estimators key their probe streams on (sample, step) so
  /// engine sharding reproduces the sequential result bit-for-bit.
  std::int64_t first_sample = 0;
  int step = 0;
};

class GradSource {
 public:
  virtual ~GradSource() = default;

  /// Eval-mode forward: NCHW batch in, [N, classes] float logits out.
  virtual Tensor logits(const Tensor& x) = 0;

  /// d(objective term)/d(x), computed atomically (forward + gradient).
  /// Thread-safe: may be called concurrently from engine shards.
  virtual Tensor input_grad(const Tensor& x, const GradRequest& req) = 0;

  /// Enters/leaves attack mode (eval, parameter gradients off). Calls
  /// nest: the engine prepares once per shard and the model is restored
  /// only when the last shard finishes.
  virtual void prepare() {}
  virtual void restore() {}

  virtual std::string name() const = 0;
};

/// RAII guard that prepares a set of sources and restores them on exit.
class SourcePrepareGuard {
 public:
  explicit SourcePrepareGuard(
      const std::vector<std::shared_ptr<GradSource>>& sources)
      : sources_(sources) {
    for (auto& s : sources_) s->prepare();
  }
  ~SourcePrepareGuard() {
    for (auto& s : sources_) s->restore();
  }
  SourcePrepareGuard(const SourcePrepareGuard&) = delete;
  SourcePrepareGuard& operator=(const SourcePrepareGuard&) = delete;

 private:
  const std::vector<std::shared_ptr<GradSource>>& sources_;
};

/// Backprop adapter for any Module (Sequential, QAT nets, ...). Each
/// logits/input_grad call runs on its own activation tape, so concurrent
/// calls from engine shards need no lock; prepare()/restore() keep a
/// small one for their nesting count.
class ModuleGradSource : public GradSource {
 public:
  explicit ModuleGradSource(Module& module, std::string label = "");

  Tensor logits(const Tensor& x) override;
  Tensor input_grad(const Tensor& x, const GradRequest& req) override;
  void prepare() override;
  void restore() override;
  std::string name() const override { return label_; }

  Module& module() { return module_; }

 private:
  Module& module_;
  std::string label_;
  std::mutex prepare_mu_;
  int prepared_ = 0;  // nesting depth of prepare() calls
};

/// Straight-through adapter: logits come from the integer-only model,
/// gradients flow through a float shadow module (typically the QAT twin
/// the artifact was compiled from). Quantization error is treated as
/// identity in the backward pass — the classic STE.
class QuantSteGradSource : public GradSource {
 public:
  QuantSteGradSource(const QuantizedModel& model, Module& shadow,
                     std::string label = "int8+ste");

  Tensor logits(const Tensor& x) override;
  Tensor input_grad(const Tensor& x, const GradRequest& req) override;
  void prepare() override;
  void restore() override;
  std::string name() const override { return label_; }

 private:
  const QuantizedModel& model_;
  Module& shadow_;
  std::string label_;
  std::mutex prepare_mu_;
  int prepared_ = 0;  // nesting depth of prepare() calls
};

class ProbeSubspace;  // attack/probe_compression.h

/// Derivative-free probing configuration for QuantFdGradSource.
struct FdConfig {
  /// Probe half-step. Must clear the requantization staircase: one input
  /// int8 level is ~1/255 for [0,1] inputs, and inner accumulators only
  /// register multi-quantum moves, so the default is several levels.
  float h = 8.0f / 255.0f;
  /// SPSA probe pairs per sample. More pairs -> lower estimator
  /// variance; cost is 2*samples forwards per sample per step.
  int samples = 128;
  /// Use exact per-pixel central differences instead of SPSA. Costs
  /// 2*pixels forwards per sample per step, and on integer models the
  /// per-pixel signal is usually below the rounding staircase — kept as
  /// the reference estimator, not the default.
  bool coordinate = false;
  /// Base seed of the probe-direction streams (split per sample/step).
  std::uint64_t seed = 0x5B5AULL;

  // Probe-compression levers (ROADMAP item 3). All default off, which
  // reproduces the pre-compression dense estimator bit-for-bit.

  /// Estimate the gradient in a k-dimensional perturbation subspace
  /// instead of full image space; 0 disables. Without an explicit
  /// `subspace`, a random orthonormal basis is derived from `seed`.
  int subspace_dim = 0;
  /// Explicit basis override (e.g. a PCA basis fit from real images via
  /// make_pca_subspace). Takes precedence over subspace_dim.
  std::shared_ptr<const ProbeSubspace> subspace = nullptr;
  /// Fraction of the probed degrees of freedom each probe touches
  /// (sign-sparse directions, antithetically paired). 1.0 = dense.
  float sparsity = 1.0f;
  /// Schedule probe rows across samples AND probe pairs into large
  /// batched int8 forwards instead of one 2*samples forward per sample.
  bool batch_probes = false;
  /// Row cap per batched probe forward (even; >= 2). Only read when
  /// batch_probes is set.
  std::int64_t max_probe_rows = 1024;
};

/// Applies the DIVA_FD_* environment overrides on top of `base`:
/// DIVA_FD_H, DIVA_FD_SAMPLES, DIVA_FD_SUBSPACE, DIVA_FD_SPARSITY,
/// DIVA_FD_BATCH, DIVA_FD_PROBE_ROWS.
FdConfig fd_config_from_env(FdConfig base = {});

/// Derivative-free adapter: estimates the gradient of the scalar
/// objective term through the integer-only model, with no float twin at
/// all. Default estimator is simultaneous-perturbation (SPSA): probe
/// pairs x +- h*delta with random sign vectors delta move every inner
/// accumulator by many quanta at once, which is what survives int8
/// requantization rounding; per-pixel central differences are available
/// via FdConfig::coordinate. Deterministic in (seed, sample, step).
class QuantFdGradSource : public GradSource {
 public:
  explicit QuantFdGradSource(const QuantizedModel& model, FdConfig cfg = {},
                             std::string label = "int8+fd");

  /// Probes an arbitrary deployed forward function instead of a bare
  /// QuantizedModel — the hook defense wrappers (moving-target pools,
  /// early-exit models) use to become derivative-free attack targets.
  /// `forward` must be thread-safe and deterministic per row.
  QuantFdGradSource(std::function<Tensor(const Tensor&)> forward,
                    FdConfig cfg, std::string label);

  Tensor logits(const Tensor& x) override;
  Tensor input_grad(const Tensor& x, const GradRequest& req) override;
  std::string name() const override { return label_; }

 private:
  Tensor coordinate_grad(const Tensor& x, const GradRequest& req) const;
  Tensor spsa_grad(const Tensor& x, const GradRequest& req) const;
  /// Resolves the active probe subspace for image dimension `per`:
  /// the explicit cfg_.subspace if set, else a lazily built (and
  /// cached) random basis when subspace_dim > 0, else null.
  std::shared_ptr<const ProbeSubspace> ensure_subspace(
      std::int64_t per) const;

  std::function<Tensor(const Tensor&)> forward_;
  FdConfig cfg_;
  std::string label_;
  mutable std::mutex sub_mu_;
  mutable std::shared_ptr<const ProbeSubspace> sub_;
};

}  // namespace diva
