// Convolution lowering shared by the float and int8 worlds.
//
// im2col lowers one CHW image into a [C*Kh*Kw, OH*OW] patch matrix so a
// convolution becomes a single GEMM against the [OC, C*Kh*Kw] weight
// matrix. The template is instantiated for float (pad value 0.0f) and
// int8 (pad value = input zero point, which represents real zero on the
// affine grid). col2im is the float-only adjoint used by conv backward.
//
// Both walk the patch matrix one (c, kh, kw) row at a time and compute,
// once per row, the output range whose taps land inside the image
// (tap_range). Padding is then a fill and the interior one span copy
// ("same" stride-1 convs) or a per-row strided gather, with no per-tap
// bounds check.
#pragma once

#include <algorithm>
#include <cstdint>

#include "kernels/conv_geom.h"

namespace diva {

/// Output positions [lo, hi) whose tap o*stride - pad + k lies inside
/// [0, in), clipped to [0, out). Empty ranges come back as lo == hi.
struct TapRange {
  std::int64_t lo, hi;
};

inline TapRange tap_range(std::int64_t k, std::int64_t in, std::int64_t out,
                          std::int64_t stride, std::int64_t pad) {
  // o*stride >= pad - k  and  o*stride <= in - 1 + pad - k.
  const std::int64_t lo_num = pad - k, hi_num = in - 1 + pad - k;
  const std::int64_t lo =
      std::min(out, lo_num <= 0 ? 0 : (lo_num + stride - 1) / stride);
  const std::int64_t hi = std::min(out, hi_num < 0 ? 0 : hi_num / stride + 1);
  return {lo, std::max(lo, hi)};
}

/// Lowers one CHW image to [C*Kh*Kw, OH*OW]; out-of-bounds taps read as
/// `pad_value`. `out` must hold C*Kh*Kw*OH*OW elements.
template <typename T>
void im2col(const T* image, const ConvGeom& g, T pad_value, T* out) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // Stride 1 with ow == in_w (every "same" conv): output (y, x) reads the
  // input at (y, x) plus a fixed offset, so a patch row's interior is one
  // contiguous span of the image.
  const bool same = g.stride == 1 && ow == g.in_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const T* chan = image + c * g.in_h * g.in_w;
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
      const TapRange ys = tap_range(kh, g.in_h, oh, g.stride, g.pad);
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const TapRange xs = tap_range(kw, g.in_w, ow, g.stride, g.pad);
        // A row with no valid column is all padding.
        const TapRange rows = xs.lo < xs.hi ? ys : TapRange{oh, oh};
        T* orow = out + row * oh * ow;
        std::fill(orow, orow + rows.lo * ow, pad_value);
        std::fill(orow + rows.hi * ow, orow + oh * ow, pad_value);
        if (rows.lo == rows.hi) continue;
        const T* src = chan + (rows.lo * g.stride - g.pad + kh) * g.in_w +
                       (xs.lo * g.stride - g.pad + kw);
        if (same) {
          // Also copies the padding columns between the first and last
          // valid tap; they are written below.
          const std::int64_t first = rows.lo * ow + xs.lo;
          const std::int64_t last = (rows.hi - 1) * ow + xs.hi;
          std::copy(src, src + (last - first), orow + first);
        } else {
          for (std::int64_t y = rows.lo; y < rows.hi; ++y) {
            const T* in = src + (y - rows.lo) * g.stride * g.in_w;
            T* o = orow + y * ow + xs.lo;
            for (std::int64_t x = 0; x < xs.hi - xs.lo; ++x) {
              o[x] = in[x * g.stride];
            }
          }
        }
        // Padding columns (at most `pad` on each side), one strided
        // column at a time.
        const auto pad_column = [&](std::int64_t x) {
          for (std::int64_t y = rows.lo; y < rows.hi; ++y) {
            orow[y * ow + x] = pad_value;
          }
        };
        for (std::int64_t x = 0; x < xs.lo; ++x) pad_column(x);
        for (std::int64_t x = xs.hi; x < ow; ++x) pad_column(x);
      }
    }
  }
}

/// Adjoint of im2col: scatters a patch matrix back into a CHW image
/// (accumulating). `image` must hold C*H*W floats, pre-zeroed by caller.
void col2im(const float* cols, const ConvGeom& g, float* image);

}  // namespace diva
