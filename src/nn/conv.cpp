#include "nn/conv.h"

#include <algorithm>

#include "kernels/gemm.h"
#include "kernels/workspace.h"
#include "runtime/thread_pool.h"

namespace diva {

namespace {

/// What a convolution's backward needs from its forward.
struct ConvSaved {
  Tensor input;  // forward input, for dW; empty when param grads are off
  Tensor wq;     // effective_weight() of the forward; empty = weight()
  ConvGeom geom;
  std::int64_t batch = 0;
};

}  // namespace

Conv2d::Conv2d(std::string name, std::int64_t in_c, std::int64_t out_c,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool with_bias)
    : Module(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias),
      weight_(Tensor(Shape{out_c, in_c, kernel, kernel})),
      bias_(Tensor(Shape{out_c})) {
  DIVA_CHECK(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0 && pad >= 0,
             "bad Conv2d config");
}

std::vector<std::pair<std::string, Parameter*>> Conv2d::local_parameters() {
  std::vector<std::pair<std::string, Parameter*>> out{{"weight", &weight_}};
  if (with_bias_) out.emplace_back("bias", &bias_);
  return out;
}

Tensor Conv2d::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
             name() << ": expected [N," << in_c_ << ",H,W], got "
                    << x.shape().str());
  const std::int64_t batch = x.dim(0);
  const ConvGeom geom{in_c_, x.dim(2), x.dim(3), kernel_, kernel_, stride_,
                      pad_};
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  DIVA_CHECK(oh > 0 && ow > 0, name() << ": output collapses to zero size");
  const std::int64_t k2 = in_c_ * kernel_ * kernel_;
  const std::int64_t ohw = oh * ow;

  Tensor wq = effective_weight();
  // [out_c, k2] once flattened row-major.
  const float* w = wq.empty() ? weight_.value.raw() : wq.raw();
  Tensor out(Shape{batch, out_c_, oh, ow});

  const std::int64_t in_stride = in_c_ * geom.in_h * geom.in_w;
  const float* bias = with_bias_ ? bias_.value.raw() : nullptr;
  parallel_for(0, batch, [&](std::int64_t n) {
    auto frame = Workspace::tls().frame();
    float* cols = frame.alloc<float>(k2 * ohw);
    im2col(x.raw() + n * in_stride, geom, cols);
    // out_n[out_c, ohw] = W[out_c, k2] x cols[k2, ohw] + bias
    sgemm(out_c_, ohw, k2, w, k2, false, cols, ohw, false,
          out.raw() + n * out_c_ * ohw, ohw, {.bias_row = bias});
  });
  // The input is only needed to recompute im2col panels for dW; frozen
  // models (attack mode) skip the copy entirely.
  save_for_backward(ConvSaved{param_grads_enabled() ? x : Tensor(),
                              std::move(wq), geom, batch});
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const auto saved = take_saved<ConvSaved>();
  const ConvGeom& geom = saved.geom;
  const std::int64_t batch = saved.batch;
  const bool want_param_grads = param_grads_enabled();
  DIVA_CHECK(!want_param_grads || !saved.input.empty(),
             name() << ": parameter gradients were enabled after a frozen "
                       "forward; rerun forward first");
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t k2 = in_c_ * kernel_ * kernel_;
  DIVA_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                 grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
                 grad_out.dim(3) == ow,
             name() << ": bad grad shape " << grad_out.shape().str());

  Tensor grad_in(Shape{batch, in_c_, geom.in_h, geom.in_w});
  const std::int64_t in_stride = in_c_ * geom.in_h * geom.in_w;
  const float* wraw = saved.wq.empty() ? weight_.value.raw() : saved.wq.raw();
  const float* xraw = saved.input.raw();

  // One weight/bias gradient accumulator per chunk, summed into the
  // parameters in chunk order afterwards: no shared writes, and the sum
  // does not depend on which chunk finishes first.
  const ChunkPlan plan = plan_chunks(batch);
  auto frame = Workspace::tls().frame();
  const std::int64_t dw_size = out_c_ * k2;
  float* dw_chunks =
      want_param_grads ? frame.alloc_zeroed<float>(plan.count * dw_size)
                       : nullptr;
  double* db_chunks =
      want_param_grads ? frame.alloc_zeroed<double>(plan.count * out_c_)
                       : nullptr;
  parallel_for_chunked(0, batch, [&](std::int64_t lo, std::int64_t hi) {
    auto chunk_frame = Workspace::tls().frame();
    float* dcol = chunk_frame.alloc<float>(k2 * ohw);
    float* cols =
        want_param_grads ? chunk_frame.alloc<float>(k2 * ohw) : nullptr;
    const std::int64_t chunk = lo / plan.size;
    float* dw_local = want_param_grads ? dw_chunks + chunk * dw_size : nullptr;
    double* db_local = want_param_grads ? db_chunks + chunk * out_c_ : nullptr;

    for (std::int64_t n = lo; n < hi; ++n) {
      const float* gy = grad_out.raw() + n * out_c_ * ohw;

      if (want_param_grads) {
        // dW[out_c, k2] += gy[out_c, ohw] x colsT[ohw, k2]; the im2col
        // panels are recomputed from the saved input rather than
        // retained across the step.
        im2col(xraw + n * in_stride, geom, cols);
        sgemm(out_c_, k2, ohw, gy, ohw, false, cols, ohw, true, dw_local, k2,
              {.beta = 1.0f});
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
          const float* gyrow = gy + oc * ohw;
          double bsum = 0.0;
          for (std::int64_t j = 0; j < ohw; ++j) bsum += gyrow[j];
          db_local[oc] += bsum;
        }
      }

      // dcol[k2, ohw] = WT[k2, out_c] x gy[out_c, ohw]; scatter to dX.
      sgemm(k2, ohw, out_c_, wraw, k2, true, gy, ohw, false, dcol, ohw, {});
      col2im(dcol, geom, grad_in.raw() + n * in_stride);
    }
  });

  if (want_param_grads) {
    float* dw = weight_.grad.raw();
    for (std::int64_t c = 0; c < plan.count; ++c) {
      const float* dw_local = dw_chunks + c * dw_size;
      for (std::int64_t i = 0; i < dw_size; ++i) dw[i] += dw_local[i];
      if (with_bias_) {
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
          bias_.grad[oc] += static_cast<float>(db_chunks[c * out_c_ + oc]);
        }
      }
    }
  }
  return grad_in;
}

DepthwiseConv2d::DepthwiseConv2d(std::string name, std::int64_t channels,
                                 std::int64_t kernel, std::int64_t stride,
                                 std::int64_t pad, bool with_bias)
    : Module(std::move(name)),
      channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias),
      weight_(Tensor(Shape{channels, 1, kernel, kernel})),
      bias_(Tensor(Shape{channels})) {
  DIVA_CHECK(channels > 0 && kernel > 0 && stride > 0 && pad >= 0,
             "bad DepthwiseConv2d config");
}

std::vector<std::pair<std::string, Parameter*>>
DepthwiseConv2d::local_parameters() {
  std::vector<std::pair<std::string, Parameter*>> out{{"weight", &weight_}};
  if (with_bias_) out.emplace_back("bias", &bias_);
  return out;
}

Tensor DepthwiseConv2d::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4 && x.dim(1) == channels_,
             name() << ": expected [N," << channels_ << ",H,W], got "
                    << x.shape().str());
  const std::int64_t batch = x.dim(0);
  const ConvGeom geom{channels_, x.dim(2), x.dim(3), kernel_, kernel_,
                      stride_,   pad_};
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  DIVA_CHECK(oh > 0 && ow > 0, name() << ": output collapses to zero size");

  Tensor wq = effective_weight();
  const float* wraw = wq.empty() ? weight_.value.raw() : wq.raw();
  Tensor out(Shape{batch, channels_, oh, ow});

  parallel_for(0, batch * channels_, [&](std::int64_t nc) {
    const std::int64_t n = nc / channels_, c = nc % channels_;
    const float* in = x.raw() + (n * channels_ + c) * geom.in_h * geom.in_w;
    const float* w = wraw + c * kernel_ * kernel_;
    float* o = out.raw() + (n * channels_ + c) * oh * ow;
    const float b = with_bias_ ? bias_.value[c] : 0.0f;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        float acc = b;
        for (std::int64_t kh = 0; kh < kernel_; ++kh) {
          const std::int64_t iy = y * stride_ - pad_ + kh;
          if (iy < 0 || iy >= geom.in_h) continue;
          for (std::int64_t kw = 0; kw < kernel_; ++kw) {
            const std::int64_t ix = xo * stride_ - pad_ + kw;
            if (ix < 0 || ix >= geom.in_w) continue;
            acc += w[kh * kernel_ + kw] * in[iy * geom.in_w + ix];
          }
        }
        o[y * ow + xo] = acc;
      }
    }
  }, /*grain=*/4);
  save_for_backward(ConvSaved{param_grads_enabled() ? x : Tensor(),
                              std::move(wq), geom, batch});
  return out;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  const auto saved = take_saved<ConvSaved>();
  const ConvGeom& geom = saved.geom;
  const bool want_param_grads = param_grads_enabled();
  DIVA_CHECK(!want_param_grads || !saved.input.empty(),
             name() << ": parameter gradients were enabled after a frozen "
                       "forward; rerun forward first");
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  DIVA_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == channels_ &&
                 grad_out.dim(2) == oh && grad_out.dim(3) == ow,
             name() << ": bad grad shape " << grad_out.shape().str());
  const std::int64_t batch = grad_out.dim(0);
  DIVA_CHECK(batch == saved.batch,
             name() << ": grad batch " << batch << " != forward batch "
                    << saved.batch);

  Tensor grad_in(Shape{batch, channels_, geom.in_h, geom.in_w});
  const float* wraw = saved.wq.empty() ? weight_.value.raw() : saved.wq.raw();
  const float* xraw = saved.input.raw();
  const std::int64_t kk = kernel_ * kernel_;

  // Per-chunk accumulators, reduced in chunk order (see Conv2d).
  const ChunkPlan plan = plan_chunks(batch);
  auto frame = Workspace::tls().frame();
  float* dw_chunks = want_param_grads
                         ? frame.alloc_zeroed<float>(plan.count * channels_ * kk)
                         : nullptr;
  float* db_chunks = want_param_grads
                         ? frame.alloc_zeroed<float>(plan.count * channels_)
                         : nullptr;

  parallel_for_chunked(0, batch, [&](std::int64_t lo, std::int64_t hi) {
    const std::int64_t chunk = lo / plan.size;
    for (std::int64_t n = lo; n < hi; ++n) {
      for (std::int64_t c = 0; c < channels_; ++c) {
        const float* in =
            want_param_grads
                ? xraw + (n * channels_ + c) * geom.in_h * geom.in_w
                : nullptr;
        const float* gy = grad_out.raw() + (n * channels_ + c) * oh * ow;
        const float* w = wraw + c * kk;
        float* gi =
            grad_in.raw() + (n * channels_ + c) * geom.in_h * geom.in_w;
        float* dw = want_param_grads
                        ? dw_chunks + (chunk * channels_ + c) * kk
                        : nullptr;
        double bsum = 0.0;
        for (std::int64_t y = 0; y < oh; ++y) {
          for (std::int64_t xo = 0; xo < ow; ++xo) {
            const float g = gy[y * ow + xo];
            if (g == 0.0f) continue;
            bsum += g;
            for (std::int64_t kh = 0; kh < kernel_; ++kh) {
              const std::int64_t iy = y * stride_ - pad_ + kh;
              if (iy < 0 || iy >= geom.in_h) continue;
              for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                const std::int64_t ix = xo * stride_ - pad_ + kw;
                if (ix < 0 || ix >= geom.in_w) continue;
                if (want_param_grads) {
                  dw[kh * kernel_ + kw] += g * in[iy * geom.in_w + ix];
                }
                gi[iy * geom.in_w + ix] += g * w[kh * kernel_ + kw];
              }
            }
          }
        }
        if (want_param_grads) {
          db_chunks[chunk * channels_ + c] += static_cast<float>(bsum);
        }
      }
    }
  });

  if (want_param_grads) {
    for (std::int64_t c = 0; c < plan.count; ++c) {
      const float* dw_local = dw_chunks + c * channels_ * kk;
      for (std::int64_t i = 0; i < channels_ * kk; ++i) {
        weight_.grad[i] += dw_local[i];
      }
      if (with_bias_) {
        for (std::int64_t ch = 0; ch < channels_; ++ch) {
          bias_.grad[ch] += db_chunks[c * channels_ + ch];
        }
      }
    }
  }
  return grad_in;
}

}  // namespace diva
