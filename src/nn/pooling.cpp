#include "nn/pooling.h"

#include <limits>

namespace diva {

namespace {

/// What MaxPool2d::backward needs from its forward.
struct MaxPoolSaved {
  std::vector<std::int64_t> argmax;  // flat input index per output element
  Shape input_shape, output_shape;
};

}  // namespace

MaxPool2d::MaxPool2d(std::string name, std::int64_t kernel,
                     std::int64_t stride, std::int64_t pad)
    : Module(std::move(name)),
      kernel_(kernel),
      stride_(stride == 0 ? kernel : stride),
      pad_(pad) {
  DIVA_CHECK(kernel > 0 && stride_ > 0 && pad >= 0, "bad MaxPool2d config");
}

Tensor MaxPool2d::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4, name() << ": expected NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + 2 * pad_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * pad_ - kernel_) / stride_ + 1;
  DIVA_CHECK(oh > 0 && ow > 0, name() << ": output collapses");
  MaxPoolSaved saved{{}, x.shape(), Shape{n, c, oh, ow}};
  Tensor out(saved.output_shape);
  saved.argmax.assign(static_cast<std::size_t>(out.numel()), -1);

  std::int64_t oi = 0;
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* in = x.raw() + (ni * c + ci) * h * w;
      const std::int64_t base = (ni * c + ci) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = -1;
          for (std::int64_t kh = 0; kh < kernel_; ++kh) {
            const std::int64_t iy = y * stride_ - pad_ + kh;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kw = 0; kw < kernel_; ++kw) {
              const std::int64_t ix = xo * stride_ - pad_ + kw;
              if (ix < 0 || ix >= w) continue;
              const float v = in[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = base + iy * w + ix;
              }
            }
          }
          out[oi] = best_idx >= 0 ? best : 0.0f;
          saved.argmax[static_cast<std::size_t>(oi)] = best_idx;
        }
      }
    }
  }
  save_for_backward(std::move(saved));
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  const auto saved = take_saved<MaxPoolSaved>();
  DIVA_CHECK(grad_out.shape() == saved.output_shape,
             name() << ": bad grad shape");
  Tensor grad_in(saved.input_shape);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const std::int64_t idx = saved.argmax[static_cast<std::size_t>(i)];
    if (idx >= 0) grad_in[idx] += grad_out[i];
  }
  return grad_in;
}

AvgPool2d::AvgPool2d(std::string name, std::int64_t kernel,
                     std::int64_t stride)
    : Module(std::move(name)),
      kernel_(kernel),
      stride_(stride == 0 ? kernel : stride) {
  DIVA_CHECK(kernel > 0 && stride_ > 0, "bad AvgPool2d config");
}

Tensor AvgPool2d::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4, name() << ": expected NCHW");
  const ConvGeom geom{x.dim(1), x.dim(2), x.dim(3), kernel_, kernel_, stride_,
                      0};
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  DIVA_CHECK(oh > 0 && ow > 0, name() << ": output collapses");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out(Shape{n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* in = x.raw() + (ni * c + ci) * h * w;
      float* o = out.raw() + (ni * c + ci) * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          float acc = 0.0f;
          for (std::int64_t kh = 0; kh < kernel_; ++kh) {
            for (std::int64_t kw = 0; kw < kernel_; ++kw) {
              acc += in[(y * stride_ + kh) * w + (xo * stride_ + kw)];
            }
          }
          o[y * ow + xo] = acc * inv;
        }
      }
    }
  }
  save_for_backward(x.shape());
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  const auto input_shape = take_saved<Shape>();
  const std::int64_t n = input_shape[0], c = input_shape[1],
                     h = input_shape[2], w = input_shape[3];
  const std::int64_t oh = (h - kernel_) / stride_ + 1;
  const std::int64_t ow = (w - kernel_) / stride_ + 1;
  DIVA_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                 grad_out.dim(1) == c && grad_out.dim(2) == oh &&
                 grad_out.dim(3) == ow,
             name() << ": bad grad shape");
  Tensor grad_in(input_shape);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* gy = grad_out.raw() + (ni * c + ci) * oh * ow;
      float* gi = grad_in.raw() + (ni * c + ci) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xo = 0; xo < ow; ++xo) {
          const float g = gy[y * ow + xo] * inv;
          for (std::int64_t kh = 0; kh < kernel_; ++kh) {
            for (std::int64_t kw = 0; kw < kernel_; ++kw) {
              gi[(y * stride_ + kh) * w + (xo * stride_ + kw)] += g;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4, name() << ": expected NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1);
  const std::int64_t hw = x.dim(2) * x.dim(3);
  Tensor out(Shape{n, c});
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* in = x.raw() + (ni * c + ci) * hw;
      float acc = 0.0f;
      for (std::int64_t i = 0; i < hw; ++i) acc += in[i];
      out.at(ni, ci) = acc * inv;
    }
  }
  save_for_backward(x.shape());
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const auto input_shape = take_saved<Shape>();
  DIVA_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == input_shape[0] &&
                 grad_out.dim(1) == input_shape[1],
             name() << ": bad grad shape");
  Tensor grad_in(input_shape);
  const std::int64_t n = input_shape[0], c = input_shape[1];
  const std::int64_t hw = input_shape[2] * input_shape[3];
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float g = grad_out.at(ni, ci) * inv;
      float* gi = grad_in.raw() + (ni * c + ci) * hw;
      for (std::int64_t i = 0; i < hw; ++i) gi[i] = g;
    }
  }
  return grad_in;
}

}  // namespace diva
