#include "kernels/im2col.h"

namespace diva {

void col2im(const float* cols, const ConvGeom& g, float* image) {
  // Same (row, y, x) order as a naive per-tap scatter, so every float
  // sum is taken in the same order and gradients stay bit-identical.
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    float* chan = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const TapRange ys = tap_range(kh, g.in_h, oh, g.stride, g.pad);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const TapRange xs = tap_range(kw, g.in_w, ow, g.stride, g.pad);
        if (xs.lo == xs.hi) continue;
        const float* crow = cols + row * oh * ow;
        for (std::int64_t y = ys.lo; y < ys.hi; ++y) {
          float* dst = chan + (y * g.stride - g.pad + kh) * g.in_w +
                       (xs.lo * g.stride - g.pad + kw);
          const float* src = crow + y * ow;
          for (std::int64_t x = xs.lo; x < xs.hi; ++x, dst += g.stride) {
            *dst += src[x];
          }
        }
      }
    }
  }
}

}  // namespace diva
