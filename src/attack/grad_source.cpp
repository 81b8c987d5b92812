#include "attack/grad_source.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "attack/probe_compression.h"
#include "nn/tape.h"
#include "runtime/env.h"
#include "telemetry/telemetry.h"

namespace diva {

namespace {

/// Attack mode: eval, no parameter gradients (input gradients only).
void freeze(Module& m) {
  m.set_training(false);
  m.set_param_grads_enabled(false);
}

/// Restores the default state (training loops re-enable what they need).
void unfreeze(Module& m) { m.set_param_grads_enabled(true); }

}  // namespace

// ---------------------------------------------------------------------------
// ModuleGradSource
// ---------------------------------------------------------------------------

ModuleGradSource::ModuleGradSource(Module& module, std::string label)
    : module_(module),
      label_(label.empty() ? module.name() : std::move(label)) {}

Tensor ModuleGradSource::logits(const Tensor& x) {
  TapeScope tape;
  return module_.forward(x);
}

Tensor ModuleGradSource::input_grad(const Tensor& x, const GradRequest& req) {
  DIVA_CHECK(req.dlogits, "ModuleGradSource needs a dlogits closure");
  TapeScope tape;
  const Tensor l = module_.forward(x);
  return module_.backward(req.dlogits(l));
}

void ModuleGradSource::prepare() {
  std::lock_guard<std::mutex> lock(prepare_mu_);
  if (prepared_++ == 0) freeze(module_);
}

void ModuleGradSource::restore() {
  std::lock_guard<std::mutex> lock(prepare_mu_);
  if (--prepared_ == 0) unfreeze(module_);
}

// ---------------------------------------------------------------------------
// QuantSteGradSource
// ---------------------------------------------------------------------------

QuantSteGradSource::QuantSteGradSource(const QuantizedModel& model,
                                       Module& shadow, std::string label)
    : model_(model), shadow_(shadow), label_(std::move(label)) {}

Tensor QuantSteGradSource::logits(const Tensor& x) { return model_.forward(x); }

Tensor QuantSteGradSource::input_grad(const Tensor& x,
                                      const GradRequest& req) {
  DIVA_CHECK(req.dlogits, "QuantSteGradSource needs a dlogits closure");
  // dlogits is computed from the *integer* model's logits, then pushed
  // through the float shadow as if quantization were the identity.
  const Tensor ql = model_.forward(x);
  TapeScope tape;
  (void)shadow_.forward(x);  // records the shadow's backward state
  return shadow_.backward(req.dlogits(ql));
}

void QuantSteGradSource::prepare() {
  std::lock_guard<std::mutex> lock(prepare_mu_);
  if (prepared_++ == 0) freeze(shadow_);
}

void QuantSteGradSource::restore() {
  std::lock_guard<std::mutex> lock(prepare_mu_);
  if (--prepared_ == 0) unfreeze(shadow_);
}

// ---------------------------------------------------------------------------
// QuantFdGradSource
// ---------------------------------------------------------------------------

FdConfig fd_config_from_env(FdConfig base) {
  base.h = static_cast<float>(env_double("DIVA_FD_H", base.h));
  base.samples =
      static_cast<int>(env_int_positive("DIVA_FD_SAMPLES", base.samples));
  base.subspace_dim =
      static_cast<int>(env_int_nonneg("DIVA_FD_SUBSPACE", base.subspace_dim));
  base.sparsity =
      static_cast<float>(env_double("DIVA_FD_SPARSITY", base.sparsity));
  base.batch_probes = env_flag("DIVA_FD_BATCH", base.batch_probes);
  base.max_probe_rows =
      env_int_positive("DIVA_FD_PROBE_ROWS", base.max_probe_rows);
  return base;
}

QuantFdGradSource::QuantFdGradSource(const QuantizedModel& model,
                                     FdConfig cfg, std::string label)
    : QuantFdGradSource(
          [&model](const Tensor& x) { return model.forward(x); },
          std::move(cfg), std::move(label)) {}

QuantFdGradSource::QuantFdGradSource(
    std::function<Tensor(const Tensor&)> forward, FdConfig cfg,
    std::string label)
    : forward_(std::move(forward)),
      cfg_(std::move(cfg)),
      label_(std::move(label)) {
  DIVA_CHECK(forward_ != nullptr, "QuantFdGradSource needs a forward fn");
  DIVA_CHECK(cfg_.h > 0.0f, "finite-difference step must be positive");
  DIVA_CHECK(cfg_.samples >= 1, "need at least one SPSA probe pair");
  DIVA_CHECK(cfg_.sparsity > 0.0f && cfg_.sparsity <= 1.0f,
             "probe sparsity must be in (0, 1]");
  DIVA_CHECK(!cfg_.batch_probes || cfg_.max_probe_rows >= 2,
             "batched probing needs max_probe_rows >= 2");
}

Tensor QuantFdGradSource::logits(const Tensor& x) { return forward_(x); }

Tensor QuantFdGradSource::input_grad(const Tensor& x, const GradRequest& req) {
  DIVA_CHECK(req.values, "QuantFdGradSource needs a scalar-values closure");
  DIVA_CHECK(x.rank() == 4, "QuantFdGradSource expects NCHW input");
  return cfg_.coordinate ? coordinate_grad(x, req) : spsa_grad(x, req);
}

Tensor QuantFdGradSource::coordinate_grad(const Tensor& x,
                                          const GradRequest& req) const {
  const std::int64_t n = x.dim(0);
  const std::int64_t per = x.numel() / n;

  // Probes run in chunks so the probe batch stays small: each chunk is
  // [2 * kChunk, C, H, W] with the +h and -h probe for each pixel.
  constexpr std::int64_t kChunk = 256;
  Tensor grad(x.shape());

  for (std::int64_t s = 0; s < n; ++s) {
    const float* base = x.raw() + s * per;
    for (std::int64_t p0 = 0; p0 < per; p0 += kChunk) {
      const std::int64_t chunk = std::min(kChunk, per - p0);
      Tensor probes(Shape{2 * chunk, x.dim(1), x.dim(2), x.dim(3)});
      float* pr = probes.raw();
      for (std::int64_t p = 0; p < chunk; ++p) {
        float* plus = pr + (2 * p) * per;
        float* minus = pr + (2 * p + 1) * per;
        std::memcpy(plus, base, sizeof(float) * static_cast<std::size_t>(per));
        std::memcpy(minus, base, sizeof(float) * static_cast<std::size_t>(per));
        plus[p0 + p] += cfg_.h;
        minus[p0 + p] -= cfg_.h;
      }
      DIVA_TELEM_COUNT("attack.fd.coordinate_probes",
                       static_cast<std::uint64_t>(2 * chunk));
      const Tensor probe_logits = forward_(probes);
      const std::vector<std::int64_t> rows(
          static_cast<std::size_t>(2 * chunk), s);
      const std::vector<float> v = req.values(probe_logits, rows);
      for (std::int64_t p = 0; p < chunk; ++p) {
        grad[s * per + p0 + p] =
            (v[static_cast<std::size_t>(2 * p)] -
             v[static_cast<std::size_t>(2 * p + 1)]) /
            (2.0f * cfg_.h);
      }
    }
  }
  return grad;
}

std::shared_ptr<const ProbeSubspace> QuantFdGradSource::ensure_subspace(
    std::int64_t per) const {
  if (cfg_.subspace) {
    DIVA_CHECK(cfg_.subspace->image_dim() == per,
               "probe subspace image_dim " << cfg_.subspace->image_dim()
                                           << " != input dim " << per);
    return cfg_.subspace;
  }
  if (cfg_.subspace_dim <= 0) return nullptr;
  std::lock_guard<std::mutex> lock(sub_mu_);
  if (!sub_) {
    const std::int64_t k =
        std::min<std::int64_t>(cfg_.subspace_dim, per);
    sub_ = make_random_subspace(per, k, hash_combine(cfg_.seed, 0xD1CEULL));
  }
  DIVA_CHECK(sub_->image_dim() == per,
             "probe subspace image_dim " << sub_->image_dim()
                                         << " != input dim " << per);
  return sub_;
}

// Probe-compression SPSA (ROADMAP item 3). One unified pipeline covers
// the dense legacy estimator and the three compression levers:
//
//   subspace  — directions are drawn in a k-dim coefficient space and
//               lifted through the orthonormal basis B [k, D]. The
//               lifted direction is rescaled to unit L-inf (divide by
//               its max-abs m) so every probe clears the int8
//               requantization staircase exactly like a dense ±1 probe;
//               the estimator compensates by multiplying diffs by m.
//   sparsity  — each probe touches only nnz random coordinates with ±1
//               signs (antithetic pair shares the support). Per-
//               coordinate touch counts normalize the accumulator.
//   batching  — probe rows are packed across samples and pairs into
//               forwards of up to max_probe_rows rows. The batched int8
//               forward is bit-exact per row regardless of batch
//               composition, and probe draws come from per-sample
//               streams consumed in pair order, so batched == unbatched
//               bit-for-bit.
//
// With every lever off the pipeline reproduces the pre-compression
// estimator bit-for-bit: same bernoulli stream, same probe values, same
// per-pair float accumulation order.
Tensor QuantFdGradSource::spsa_grad(const Tensor& x,
                                    const GradRequest& req) const {
  const std::int64_t n = x.dim(0);
  const std::int64_t per = x.numel() / n;
  const std::int64_t k = cfg_.samples;

  const std::shared_ptr<const ProbeSubspace> sub = ensure_subspace(per);
  const std::int64_t dof = sub ? sub->dim() : per;
  std::int64_t nnz = dof;
  if (cfg_.sparsity < 1.0f) {
    nnz = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(
            std::lround(static_cast<double>(cfg_.sparsity) *
                        static_cast<double>(dof))),
        1, dof);
  }
  const bool dense_legacy = !sub && nnz == dof;

  // One probe-direction stream per (sample, step), consumed in pair
  // order within each sample: sharding the batch, replaying a step, or
  // changing the batching geometry reproduces the same directions.
  std::vector<Rng> rngs;
  rngs.reserve(static_cast<std::size_t>(n));
  for (std::int64_t s = 0; s < n; ++s) {
    rngs.emplace_back(hash_combine(
        hash_combine(cfg_.seed,
                     static_cast<std::uint64_t>(req.first_sample + s)),
        static_cast<std::uint64_t>(req.step)));
  }

  // Wave capacity in probe rows (2 per antithetic pair). Unbatched runs
  // one sample's 2k rows per forward — the legacy shape; batching packs
  // pairs across samples up to max_probe_rows rows per forward.
  std::int64_t rows_cap = 2 * k;
  if (cfg_.batch_probes) {
    rows_cap = std::max<std::int64_t>(2, cfg_.max_probe_rows);
    rows_cap -= rows_cap % 2;
  }
  const std::int64_t pairs_cap = rows_cap / 2;

  Tensor grad(x.shape());
  // Touch-count accumulators for the sparse / subspace estimators.
  std::vector<float> sum;
  std::vector<std::int32_t> touch;
  if (!dense_legacy) {
    sum.assign(static_cast<std::size_t>(n * dof), 0.0f);
    touch.assign(static_cast<std::size_t>(n * dof), 0);
  }
  std::vector<float> lift(sub ? static_cast<std::size_t>(per) : 0);

  struct PendingPair {
    std::int64_t sample = 0;
    SparseProbe dir;   // support over `dof` coordinates
    float m = 1.0f;    // L-inf norm of the lifted direction (subspace)
  };
  std::vector<PendingPair> wave;
  wave.reserve(static_cast<std::size_t>(pairs_cap));

  const std::int64_t total_pairs = n * k;
  for (std::int64_t done = 0; done < total_pairs;) {
    const std::int64_t batch_pairs =
        std::min(pairs_cap, total_pairs - done);
    wave.clear();
    Tensor probes(Shape{2 * batch_pairs, x.dim(1), x.dim(2), x.dim(3)});
    float* pr = probes.raw();
    std::vector<std::int64_t> rows(static_cast<std::size_t>(2 * batch_pairs));

    for (std::int64_t p = 0; p < batch_pairs; ++p) {
      const std::int64_t s = (done + p) / k;  // pairs are sample-major
      PendingPair pend;
      pend.sample = s;
      pend.dir = sample_sparse_probe(rngs[static_cast<std::size_t>(s)], dof,
                                     nnz);
      const float* base = x.raw() + s * per;
      float* plus = pr + (2 * p) * per;
      float* minus = pr + (2 * p + 1) * per;
      if (sub) {
        std::fill(lift.begin(), lift.end(), 0.0f);
        for (std::size_t t = 0; t < pend.dir.index.size(); ++t) {
          const float sgn = pend.dir.sign(t);
          const float* brow =
              sub->basis().raw() +
              static_cast<std::int64_t>(pend.dir.index[t]) * per;
          for (std::int64_t i = 0; i < per; ++i) {
            lift[static_cast<std::size_t>(i)] += sgn * brow[i];
          }
        }
        float m = 0.0f;
        for (std::int64_t i = 0; i < per; ++i) {
          m = std::max(m, std::fabs(lift[static_cast<std::size_t>(i)]));
        }
        if (!(m > 0.0f)) m = 1.0f;
        pend.m = m;
        const float step = cfg_.h / m;
        for (std::int64_t i = 0; i < per; ++i) {
          const float d = step * lift[static_cast<std::size_t>(i)];
          plus[i] = base[i] + d;
          minus[i] = base[i] - d;
        }
      } else if (dense_legacy) {
        for (std::int64_t i = 0; i < per; ++i) {
          const float d = pend.dir.sign(static_cast<std::size_t>(i));
          plus[i] = base[i] + cfg_.h * d;
          minus[i] = base[i] - cfg_.h * d;
        }
      } else {
        std::memcpy(plus, base, sizeof(float) * static_cast<std::size_t>(per));
        std::memcpy(minus, base,
                    sizeof(float) * static_cast<std::size_t>(per));
        for (std::size_t t = 0; t < pend.dir.index.size(); ++t) {
          const std::int64_t i = pend.dir.index[t];
          const float d = cfg_.h * pend.dir.sign(t);
          plus[i] += d;
          minus[i] -= d;
        }
      }
      rows[static_cast<std::size_t>(2 * p)] = s;
      rows[static_cast<std::size_t>(2 * p + 1)] = s;
      wave.push_back(std::move(pend));
    }

    // Deployed-query accounting: spsa_probes is the total probe-row
    // budget the acceptance tests pin as n * steps * 2 * samples
    // regardless of levers; probe_forwards shows the batching
    // compression; probe_dof is the touched degrees of freedom.
    DIVA_TELEM_COUNT("attack.fd.spsa_probes",
                     static_cast<std::uint64_t>(2 * batch_pairs));
    DIVA_TELEM_COUNT("attack.fd.probe_forwards", 1);
    DIVA_TELEM_COUNT("attack.fd.probe_dof",
                     static_cast<std::uint64_t>(2 * batch_pairs * nnz));
    const Tensor probe_logits = forward_(probes);
    const std::vector<float> v = req.values(probe_logits, rows);

    for (std::int64_t p = 0; p < batch_pairs; ++p) {
      const float diff = v[static_cast<std::size_t>(2 * p)] -
                         v[static_cast<std::size_t>(2 * p + 1)];
      const PendingPair& pend = wave[static_cast<std::size_t>(p)];
      if (dense_legacy) {
        float* g = grad.raw() + pend.sample * per;
        const float scale = 1.0f / (2.0f * cfg_.h * static_cast<float>(k));
        for (std::int64_t i = 0; i < per; ++i) {
          g[i] += diff * scale * pend.dir.sign(static_cast<std::size_t>(i));
        }
      } else {
        // Central difference along the probe direction estimates the
        // directional derivative; m rescales the unit-L-inf lift back
        // to the unit-coefficient direction.
        float* gs = sum.data() + pend.sample * dof;
        std::int32_t* tc = touch.data() + pend.sample * dof;
        const float w = diff * pend.m;
        for (std::size_t t = 0; t < pend.dir.index.size(); ++t) {
          const std::int64_t c = pend.dir.index[t];
          gs[c] += w * pend.dir.sign(t);
          tc[c] += 1;
        }
      }
    }
    done += batch_pairs;
  }

  if (!dense_legacy) {
    const float denom = 2.0f * cfg_.h;
    for (std::int64_t s = 0; s < n; ++s) {
      const float* gs = sum.data() + s * dof;
      const std::int32_t* tc = touch.data() + s * dof;
      float* g = grad.raw() + s * per;
      if (sub) {
        // Finalize coefficients, then lift the estimate to image space.
        for (std::int64_t c = 0; c < dof; ++c) {
          if (tc[c] == 0) continue;
          const float coef = gs[c] / (denom * static_cast<float>(tc[c]));
          if (coef == 0.0f) continue;
          const float* brow = sub->basis().raw() + c * per;
          for (std::int64_t i = 0; i < per; ++i) g[i] += coef * brow[i];
        }
      } else {
        for (std::int64_t i = 0; i < per; ++i) {
          g[i] = tc[i] > 0
                     ? gs[i] / (denom * static_cast<float>(tc[i]))
                     : 0.0f;
        }
      }
    }
  }
  return grad;
}

}  // namespace diva
