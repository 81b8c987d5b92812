#include "quant/int8_kernels.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "kernels/igemm.h"
#include "kernels/im2col.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/workspace.h"

namespace diva {

namespace {

std::int8_t clamp_to_int8(std::int32_t v, std::int32_t lo, std::int32_t hi) {
  return static_cast<std::int8_t>(std::clamp(v, lo, hi));
}

/// Rounding signed division by a positive non-power-of-two count.
std::int32_t rounding_div(std::int32_t x, std::int32_t d) {
  return x >= 0 ? (x + d / 2) / d : -((-x + d / 2) / d);
}

IgemmEpilogue epilogue(const std::int32_t* bias, const RequantChannel& rq,
                       std::size_t row0, std::int32_t out_zp,
                       std::int32_t act_min, std::int32_t act_max) {
  return {bias, rq.multiplier.data() + row0, rq.shift.data() + row0, out_zp,
          act_min, act_max};
}

}  // namespace

RequantChannel make_requant(float s_in, std::span<const float> w_scales,
                            float s_out) {
  RequantChannel rq;
  rq.multiplier.resize(w_scales.size());
  rq.shift.resize(w_scales.size());
  for (std::size_t c = 0; c < w_scales.size(); ++c) {
    const double m = static_cast<double>(s_in) * w_scales[c] / s_out;
    quantize_multiplier(m, &rq.multiplier[c], &rq.shift[c]);
  }
  return rq;
}

void qconv2d_packed(const std::int8_t* in, const ConvGeom& g,
                    std::int32_t in_zp, const IgemmPackedA& w,
                    const RequantChannel& rq, std::int32_t out_zp,
                    std::int32_t act_min, std::int32_t act_max,
                    std::int8_t* out) {
  const std::int64_t ohw = g.out_h() * g.out_w();
  const IgemmEpilogue ep = epilogue(nullptr, rq, 0, out_zp, act_min, act_max);
  // A 1x1 / stride-1 / unpadded conv's patch matrix is the CHW input.
  if (g.kernel_h == 1 && g.kernel_w == 1 && g.stride == 1 && g.pad == 0) {
    igemm_packed(w, ohw, in, ohw, ep, out, ohw);
    return;
  }
  // Lower to a GEMM: padded taps read the input zero point, which is
  // exactly real zero, so the igemm zero-point correction is exact.
  auto frame = Workspace::tls().frame();
  std::int8_t* cols = frame.alloc<std::int8_t>(w.k * ohw);
  im2col<std::int8_t>(in, g, static_cast<std::int8_t>(in_zp), cols);
  igemm_packed(w, ohw, cols, ohw, ep, out, ohw);
}

void qconv2d(const std::int8_t* in, const ConvGeom& g, std::int32_t in_zp,
             const std::int8_t* w, std::int64_t out_c,
             const std::int32_t* bias, const RequantChannel& rq,
             std::int32_t out_zp, std::int32_t act_min, std::int32_t act_max,
             std::int8_t* out) {
  const std::int64_t k2 = g.in_c * g.kernel_h * g.kernel_w;
  const IgemmPackedA packed =
      igemm_pack_a(active_isa_tier(), out_c, k2, w, k2, in_zp, bias);
  qconv2d_packed(in, g, in_zp, packed, rq, out_zp, act_min, act_max, out);
}

void qdepthwise_conv2d(const std::int8_t* in, const ConvGeom& g,
                       std::int32_t in_zp, const std::int8_t* w,
                       const std::int32_t* bias, const RequantChannel& rq,
                       std::int32_t out_zp, std::int32_t act_min,
                       std::int32_t act_max, std::int8_t* out) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t k2 = g.kernel_h * g.kernel_w;
  const std::int64_t ohw = oh * ow;
  // One single-channel im2col + 1-row GEMM per channel; the requant
  // epilogue pointers are offset to the channel's row.
  ConvGeom chan_geom = g;
  chan_geom.in_c = 1;
  auto frame = Workspace::tls().frame();
  std::int8_t* cols = frame.alloc<std::int8_t>(k2 * ohw);
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    im2col<std::int8_t>(in + c * g.in_h * g.in_w, chan_geom,
                        static_cast<std::int8_t>(in_zp), cols);
    igemm(1, ohw, k2, w + c * k2, k2, cols, ohw, in_zp,
          epilogue(bias != nullptr ? bias + c : nullptr, rq,
                   static_cast<std::size_t>(c), out_zp, act_min, act_max),
          out + c * ohw, ohw);
  }
}

void qdense(const std::int8_t* in, std::int64_t in_f, std::int32_t in_zp,
            const std::int8_t* w, std::int64_t out_f,
            const std::int32_t* bias, const RequantChannel& rq,
            std::int32_t out_zp, std::int32_t act_min, std::int32_t act_max,
            std::int8_t* out) {
  // The input vector is a [in_f, 1] column; output channels are rows.
  igemm(out_f, 1, in_f, w, in_f, in, 1, in_zp,
        epilogue(bias, rq, 0, out_zp, act_min, act_max), out, 1);
}

void qdense_batched_packed(const std::int8_t* in, std::int64_t n,
                           std::int64_t in_f, const IgemmPackedA& w,
                           const RequantChannel& rq, std::int32_t out_zp,
                           std::int32_t act_min, std::int32_t act_max,
                           std::int8_t* out) {
  auto frame = Workspace::tls().frame();
  const std::int64_t out_f = w.m;
  // Transpose activations so samples become GEMM columns, run one GEMM
  // over the whole batch, transpose back into [n, out_f] slot layout.
  std::int8_t* in_t = frame.alloc<std::int8_t>(in_f * n);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int8_t* row = in + i * in_f;
    for (std::int64_t j = 0; j < in_f; ++j) in_t[j * n + i] = row[j];
  }
  std::int8_t* out_t = frame.alloc<std::int8_t>(out_f * n);
  igemm_packed(w, n, in_t, n,
               epilogue(nullptr, rq, 0, out_zp, act_min, act_max), out_t, n);
  for (std::int64_t i = 0; i < n; ++i) {
    std::int8_t* row = out + i * out_f;
    for (std::int64_t j = 0; j < out_f; ++j) row[j] = out_t[j * n + i];
  }
}

void qdense_batched(const std::int8_t* in, std::int64_t n, std::int64_t in_f,
                    std::int32_t in_zp, const std::int8_t* w,
                    std::int64_t out_f, const std::int32_t* bias,
                    const RequantChannel& rq, std::int32_t out_zp,
                    std::int32_t act_min, std::int32_t act_max,
                    std::int8_t* out) {
  qdense_batched_packed(
      in, n, in_f,
      igemm_pack_a(active_isa_tier(), out_f, in_f, w, in_f, in_zp, bias), rq,
      out_zp, act_min, act_max, out);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------

void qconv2d_reference(const std::int8_t* in, const ConvGeom& g,
                       std::int32_t in_zp, const std::int8_t* w,
                       std::int64_t out_c, const std::int32_t* bias,
                       const RequantChannel& rq, std::int32_t out_zp,
                       std::int32_t act_min, std::int32_t act_max,
                       std::int8_t* out) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t k2 = g.in_c * g.kernel_h * g.kernel_w;
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    const std::int8_t* wc = w + oc * k2;
    std::int8_t* orow = out + oc * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        std::int32_t acc = bias != nullptr ? bias[oc] : 0;
        std::int64_t widx = 0;
        for (std::int64_t c = 0; c < g.in_c; ++c) {
          const std::int8_t* chan = in + c * g.in_h * g.in_w;
          for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
            const std::int64_t iy = y * g.stride - g.pad + kh;
            for (std::int64_t kw = 0; kw < g.kernel_w; ++kw, ++widx) {
              const std::int64_t ix = x * g.stride - g.pad + kw;
              // Zero padding contributes (in_zp - in_zp) = 0 in real
              // space; represented by substituting q = in_zp.
              const std::int32_t q =
                  (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                      ? chan[iy * g.in_w + ix]
                      : in_zp;
              acc += (q - in_zp) * static_cast<std::int32_t>(wc[widx]);
            }
          }
        }
        const std::int32_t scaled = multiply_by_quantized_multiplier(
            acc, rq.multiplier[static_cast<std::size_t>(oc)],
            rq.shift[static_cast<std::size_t>(oc)]);
        orow[y * ow + x] = clamp_to_int8(scaled + out_zp, act_min, act_max);
      }
    }
  }
}

void qdepthwise_conv2d_reference(const std::int8_t* in, const ConvGeom& g,
                                 std::int32_t in_zp, const std::int8_t* w,
                                 const std::int32_t* bias,
                                 const RequantChannel& rq, std::int32_t out_zp,
                                 std::int32_t act_min, std::int32_t act_max,
                                 std::int8_t* out) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const std::int64_t k2 = g.kernel_h * g.kernel_w;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const std::int8_t* chan = in + c * g.in_h * g.in_w;
    const std::int8_t* wc = w + c * k2;
    std::int8_t* orow = out + c * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        std::int32_t acc = bias != nullptr ? bias[c] : 0;
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
          const std::int64_t iy = y * g.stride - g.pad + kh;
          for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
            const std::int64_t ix = x * g.stride - g.pad + kw;
            const std::int32_t q =
                (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                    ? chan[iy * g.in_w + ix]
                    : in_zp;
            acc += (q - in_zp) * static_cast<std::int32_t>(wc[kh * g.kernel_w + kw]);
          }
        }
        const std::int32_t scaled = multiply_by_quantized_multiplier(
            acc, rq.multiplier[static_cast<std::size_t>(c)],
            rq.shift[static_cast<std::size_t>(c)]);
        orow[y * ow + x] = clamp_to_int8(scaled + out_zp, act_min, act_max);
      }
    }
  }
}

void qdense_reference(const std::int8_t* in, std::int64_t in_f,
                      std::int32_t in_zp, const std::int8_t* w,
                      std::int64_t out_f, const std::int32_t* bias,
                      const RequantChannel& rq, std::int32_t out_zp,
                      std::int32_t act_min, std::int32_t act_max,
                      std::int8_t* out) {
  for (std::int64_t o = 0; o < out_f; ++o) {
    const std::int8_t* wrow = w + o * in_f;
    std::int32_t acc = bias != nullptr ? bias[o] : 0;
    for (std::int64_t i = 0; i < in_f; ++i) {
      acc += (static_cast<std::int32_t>(in[i]) - in_zp) *
             static_cast<std::int32_t>(wrow[i]);
    }
    const std::int32_t scaled = multiply_by_quantized_multiplier(
        acc, rq.multiplier[static_cast<std::size_t>(o)],
        rq.shift[static_cast<std::size_t>(o)]);
    out[o] = clamp_to_int8(scaled + out_zp, act_min, act_max);
  }
}

namespace {

// qadd / qrequantize rescale each operand on its own: shift left by 20
// for precision, then a fixed-point multiply by s_in / s_out / 2^20
// (TFLite's double rescale).
constexpr int kRescaleShift = 20;

struct Rescale {
  std::int32_t zero_point, multiplier;
  int shift;

  Rescale(QuantParams from, QuantParams to) : zero_point(from.zero_point) {
    quantize_multiplier(static_cast<double>(from.scale) / to.scale /
                            (1 << kRescaleShift),
                        &multiplier, &shift);
  }
  std::int32_t operator()(std::int8_t q) const {
    return multiply_by_quantized_multiplier(
        (static_cast<std::int32_t>(q) - zero_point) << kRescaleShift,
        multiplier, shift);
  }
};

/// t[q + 128] = f(q) over every int8 q.
template <typename T, typename F>
std::array<T, 256> tabulate(F f) {
  std::array<T, 256> t{};
  for (int q = kQmin; q <= kQmax; ++q) {
    t[static_cast<std::size_t>(q + 128)] =
        static_cast<T>(f(static_cast<std::int8_t>(q)));
  }
  return t;
}

std::size_t lut_index(std::int8_t q) {
  return static_cast<std::size_t>(static_cast<int>(q) + 128);
}

}  // namespace

void qadd(std::span<const std::int8_t> a, QuantParams qp_a,
          std::span<const std::int8_t> b, QuantParams qp_b,
          QuantParams qp_out, std::int32_t act_min, std::int32_t act_max,
          std::span<std::int8_t> out) {
  DIVA_CHECK(a.size() == b.size() && a.size() == out.size(),
             "qadd size mismatch");
  // Each rescaled term depends on one int8 operand only, so one table
  // per operand reproduces qadd_reference exactly.
  const Rescale ra(qp_a, qp_out), rb(qp_b, qp_out);
  const auto ta = tabulate<std::int32_t>(ra);
  const auto tb = tabulate<std::int32_t>(
      [&](std::int8_t q) { return rb(q) + qp_out.zero_point; });
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = clamp_to_int8(ta[lut_index(a[i])] + tb[lut_index(b[i])],
                           act_min, act_max);
  }
}

void qrequantize(std::span<const std::int8_t> in, QuantParams qp_in,
                 QuantParams qp_out, std::span<std::int8_t> out) {
  DIVA_CHECK(in.size() == out.size(), "qrequantize size mismatch");
  if (qp_in == qp_out) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  const Rescale r(qp_in, qp_out);
  const auto lut = tabulate<std::int8_t>([&](std::int8_t q) {
    return clamp_to_int8(r(q) + qp_out.zero_point, kQmin, kQmax);
  });
  qlut(in, lut, out);
}

void qadd_reference(std::span<const std::int8_t> a, QuantParams qp_a,
                    std::span<const std::int8_t> b, QuantParams qp_b,
                    QuantParams qp_out, std::int32_t act_min,
                    std::int32_t act_max, std::span<std::int8_t> out) {
  DIVA_CHECK(a.size() == b.size() && a.size() == out.size(),
             "qadd_reference size mismatch");
  constexpr int kLeftShift = 20;
  std::int32_t mult_a = 0, mult_b = 0;
  int shift_a = 0, shift_b = 0;
  quantize_multiplier(
      static_cast<double>(qp_a.scale) / qp_out.scale / (1 << kLeftShift),
      &mult_a, &shift_a);
  quantize_multiplier(
      static_cast<double>(qp_b.scale) / qp_out.scale / (1 << kLeftShift),
      &mult_b, &shift_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int32_t da =
        (static_cast<std::int32_t>(a[i]) - qp_a.zero_point) << kLeftShift;
    const std::int32_t db =
        (static_cast<std::int32_t>(b[i]) - qp_b.zero_point) << kLeftShift;
    const std::int32_t ra =
        multiply_by_quantized_multiplier(da, mult_a, shift_a);
    const std::int32_t rb =
        multiply_by_quantized_multiplier(db, mult_b, shift_b);
    out[i] = clamp_to_int8(ra + rb + qp_out.zero_point, act_min, act_max);
  }
}

void qrequantize_reference(std::span<const std::int8_t> in, QuantParams qp_in,
                           QuantParams qp_out, std::span<std::int8_t> out) {
  DIVA_CHECK(in.size() == out.size(), "qrequantize_reference size mismatch");
  if (qp_in == qp_out) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  std::int32_t mult = 0;
  int shift = 0;
  constexpr int kLeftShift = 20;
  quantize_multiplier(
      static_cast<double>(qp_in.scale) / qp_out.scale / (1 << kLeftShift),
      &mult, &shift);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::int32_t d =
        (static_cast<std::int32_t>(in[i]) - qp_in.zero_point) << kLeftShift;
    const std::int32_t r = multiply_by_quantized_multiplier(d, mult, shift);
    out[i] = clamp_to_int8(r + qp_out.zero_point, kQmin, kQmax);
  }
}

namespace {

float lut_activation(LutKind kind, float x, float slope) {
  switch (kind) {
    case LutKind::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case LutKind::kHardSigmoid: {
      const float y = x / 6.0f + 0.5f;
      return y <= 0.0f ? 0.0f : (y >= 1.0f ? 1.0f : y);
    }
    case LutKind::kLeakyRelu:
      return x > 0.0f ? x : slope * x;
  }
  DIVA_FAIL("unknown LutKind");
}

}  // namespace

std::vector<std::int8_t> build_activation_lut(LutKind kind, QuantParams qp_in,
                                              QuantParams qp_out, float slope) {
  std::vector<std::int8_t> lut(256);
  for (int q = kQmin; q <= kQmax; ++q) {
    const float x = qp_in.dequantize(static_cast<std::int8_t>(q));
    lut[static_cast<std::size_t>(q + 128)] =
        qp_out.quantize(lut_activation(kind, x, slope));
  }
  return lut;
}

void qlut(std::span<const std::int8_t> in, std::span<const std::int8_t> lut,
          std::span<std::int8_t> out) {
  DIVA_CHECK(lut.size() == 256, "qlut table must have 256 entries");
  DIVA_CHECK(in.size() == out.size(), "qlut size mismatch");
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = lut[static_cast<std::size_t>(static_cast<int>(in[i]) + 128)];
  }
}

void qlut_reference(std::span<const std::int8_t> in, LutKind kind,
                    QuantParams qp_in, QuantParams qp_out, float slope,
                    std::span<std::int8_t> out) {
  DIVA_CHECK(in.size() == out.size(), "qlut_reference size mismatch");
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float x = qp_in.dequantize(in[i]);
    out[i] = qp_out.quantize(lut_activation(kind, x, slope));
  }
}

void qmaxpool2d(const std::int8_t* in, const ConvGeom& g, std::int8_t* out) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  // Each output row first takes the max down its window's valid input
  // rows (a range computed once per row, like im2col's tap_range), into
  // a row padded with kQmin on both sides; the max across then reads
  // every tap of that row unchecked. A padding tap holding kQmin gives
  // the same max as skipping it, and a window wholly in the padding
  // reads kQmin, as the reference does.
  auto frame = Workspace::tls().frame();
  std::int8_t* row = frame.alloc<std::int8_t>(g.in_w + 2 * g.pad);
  std::int8_t* mid = row + g.pad;
  std::fill(row, mid, static_cast<std::int8_t>(kQmin));
  std::fill(mid + g.in_w, mid + g.in_w + g.pad,
            static_cast<std::int8_t>(kQmin));
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const std::int8_t* chan = in + c * g.in_h * g.in_w;
    std::int8_t* o = out + c * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y, o += ow) {
      const std::int64_t iy0 = y * g.stride - g.pad;
      const std::int64_t lo = std::max<std::int64_t>(0, -iy0);
      const std::int64_t hi = std::min(g.kernel_h, g.in_h - iy0);
      if (lo < hi) {
        std::copy_n(chan + (iy0 + lo) * g.in_w, g.in_w, mid);
      } else {
        std::fill(mid, mid + g.in_w, static_cast<std::int8_t>(kQmin));
      }
      for (std::int64_t kh = lo + 1; kh < hi; ++kh) {
        const std::int8_t* src = chan + (iy0 + kh) * g.in_w;
        for (std::int64_t i = 0; i < g.in_w; ++i) {
          mid[i] = std::max(mid[i], src[i]);
        }
      }
      for (std::int64_t x = 0; x < ow; ++x) o[x] = row[x * g.stride];
      for (std::int64_t kw = 1; kw < g.kernel_w; ++kw) {
        for (std::int64_t x = 0; x < ow; ++x) {
          o[x] = std::max(o[x], row[x * g.stride + kw]);
        }
      }
    }
  }
}

void qavgpool2d(const std::int8_t* in, const ConvGeom& g, std::int8_t* out) {
  DIVA_CHECK(g.pad == 0, "qavgpool2d: windows must lie inside the image");
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const RoundingDivider div(
      static_cast<std::int32_t>(g.kernel_h * g.kernel_w));
  // Per output row: sum the window's input rows into an int32 row, sum
  // across each window of that row, then divide exactly.
  auto frame = Workspace::tls().frame();
  std::int32_t* colsum = frame.alloc<std::int32_t>(g.in_w);
  std::int32_t* acc = frame.alloc<std::int32_t>(ow);
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const std::int8_t* chan = in + c * g.in_h * g.in_w;
    std::int8_t* o = out + c * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y, o += ow) {
      const std::int8_t* top = chan + y * g.stride * g.in_w;
      for (std::int64_t i = 0; i < g.in_w; ++i) colsum[i] = top[i];
      for (std::int64_t kh = 1; kh < g.kernel_h; ++kh) {
        const std::int8_t* src = top + kh * g.in_w;
        for (std::int64_t i = 0; i < g.in_w; ++i) colsum[i] += src[i];
      }
      for (std::int64_t x = 0; x < ow; ++x) acc[x] = colsum[x * g.stride];
      for (std::int64_t kw = 1; kw < g.kernel_w; ++kw) {
        for (std::int64_t x = 0; x < ow; ++x) {
          acc[x] += colsum[x * g.stride + kw];
        }
      }
      for (std::int64_t x = 0; x < ow; ++x) {
        o[x] = clamp_to_int8(div(acc[x]), kQmin, kQmax);
      }
    }
  }
}

void qmaxpool2d_reference(const std::int8_t* in, const ConvGeom& g,
                          std::int8_t* out) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const std::int8_t* chan = in + c * g.in_h * g.in_w;
    std::int8_t* o = out + c * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        std::int8_t best = kQmin;
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
          const std::int64_t iy = y * g.stride - g.pad + kh;
          if (iy < 0 || iy >= g.in_h) continue;
          for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
            const std::int64_t ix = x * g.stride - g.pad + kw;
            if (ix < 0 || ix >= g.in_w) continue;
            best = std::max(best, chan[iy * g.in_w + ix]);
          }
        }
        o[y * ow + x] = best;
      }
    }
  }
}

void qavgpool2d_reference(const std::int8_t* in, const ConvGeom& g,
                          std::int8_t* out) {
  const std::int64_t oh = g.out_h(), ow = g.out_w();
  const auto count = static_cast<std::int32_t>(g.kernel_h * g.kernel_w);
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    const std::int8_t* chan = in + c * g.in_h * g.in_w;
    std::int8_t* o = out + c * oh * ow;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t x = 0; x < ow; ++x) {
        std::int32_t acc = 0;
        for (std::int64_t kh = 0; kh < g.kernel_h; ++kh) {
          for (std::int64_t kw = 0; kw < g.kernel_w; ++kw) {
            acc += chan[(y * g.stride + kh) * g.in_w + (x * g.stride + kw)];
          }
        }
        o[y * ow + x] = clamp_to_int8(rounding_div(acc, count), kQmin, kQmax);
      }
    }
  }
}

RoundingDivider::RoundingDivider(std::int32_t d)
    : half_(static_cast<std::uint32_t>(d / 2)) {
  DIVA_CHECK(d >= 1 && d <= (1 << 20), "RoundingDivider: divisor " << d);
  // With mult = ceil(2^shift / d) = (2^shift + e) / d, 0 <= e < d,
  //   u * mult / 2^shift = u / d + u * e / (d * 2^shift),
  // and the floor matches floor(u / d) while u * e < 2^shift. The
  // largest u is 128 * d + d / 2, so 2^shift >= that times d suffices.
  // Then mult < 2^30 and u < 2^28 for every d <= 2^20, so both fit 32
  // bits and their product 64.
  const std::uint64_t du = static_cast<std::uint64_t>(d);
  const std::uint64_t u_max = 128 * du + half_;
  shift_ = 0;
  while ((std::uint64_t{1} << shift_) < u_max * du) ++shift_;
  mult_ = static_cast<std::uint32_t>(((std::uint64_t{1} << shift_) + du - 1) /
                                     du);
}

void qglobal_avgpool(const std::int8_t* in, std::int64_t c, std::int64_t hw,
                     std::int8_t* out) {
  for (std::int64_t ci = 0; ci < c; ++ci) {
    const std::int8_t* chan = in + ci * hw;
    std::int32_t acc = 0;
    for (std::int64_t i = 0; i < hw; ++i) acc += chan[i];
    out[ci] = clamp_to_int8(rounding_div(acc, static_cast<std::int32_t>(hw)),
                            kQmin, kQmax);
  }
}

}  // namespace diva
