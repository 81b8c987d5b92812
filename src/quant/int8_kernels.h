// Integer-only int8 inference kernels.
//
// All kernels follow TFLite conventions: int8 activations with a
// per-tensor affine (scale, zero_point); int8 weights with per-output-
// channel symmetric scales; int32 bias pre-quantized at scale
// s_input * s_weight[c]; int32 accumulation; and fixed-point
// requantization via multiply_by_quantized_multiplier. Activation
// clamps (ReLU / ReLU6) are fused into the requantization clamp.
//
// The conv/dense/depthwise kernels lower onto the shared kernels/igemm
// core (int8 im2col panels + blocked GEMM with the requantization
// epilogue fused). The original naive scalar loops are retained as
// `*_reference` — integer arithmetic is exact, so the GEMM-backed
// kernels are pinned bit-identical against them in tests.
//
// The executor keeps its conv and dense weights prepacked
// (IgemmPackedA, built once per model and ISA tier) and calls the
// `*_packed` entry points; qconv2d / qdense_batched pack the weights
// into a temporary per call and run the same code.
//
// The window pools are range-based, like im2col: each output row takes
// the range of its window's input rows that lie inside the image once,
// so no tap is bounds-checked. Both pools first reduce those rows into
// one row (max pool: padded with kQmin on both sides; avg pool: an
// int32 row sum), then reduce across each window of it. qavgpool2d
// divides by the window size with an exact multiply-shift
// (RoundingDivider) instead of an integer division per output. The
// per-tap loops are kept as `*_reference`, and the pools are pinned
// bit-exact against them.
//
// The elementwise ops (qadd, qrequantize, qlut) are exact 256-entry
// tables: every output depends on each int8 operand through a function
// of that operand alone, so tabulating it over all 256 values and
// looking it up gives the same bits as computing it per element. qadd
// and qrequantize build their tables per call from the fixed-point
// formula their `*_reference` loops apply element by element.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/igemm.h"
#include "quant/qparams.h"
#include "tensor/tensor_ops.h"

namespace diva {

/// Precomputed per-channel requantization data.
struct RequantChannel {
  std::vector<std::int32_t> multiplier;
  std::vector<int> shift;
};

/// Builds per-channel requant multipliers for m[c] = s_in*s_w[c]/s_out.
RequantChannel make_requant(float s_in, std::span<const float> w_scales,
                            float s_out);

/// int8 convolution. `in` is CHW for a single image (callers loop /
/// parallelize over the batch), `w` is [OC, IC, K, K] int8, `bias` is
/// int32 at scale s_in*s_w[c]. Output clamped to [act_min, act_max]
/// (int8 domain, already including the fused activation bound).
void qconv2d(const std::int8_t* in, const ConvGeom& g, std::int32_t in_zp,
             const std::int8_t* w, std::int64_t out_c,
             const std::int32_t* bias, const RequantChannel& rq,
             std::int32_t out_zp, std::int32_t act_min, std::int32_t act_max,
             std::int8_t* out);

/// qconv2d with the weights prepacked: `w` is [OC, IC*K*K] packed by
/// igemm_pack_a with b_zp = in_zp and the conv's bias.
void qconv2d_packed(const std::int8_t* in, const ConvGeom& g,
                    std::int32_t in_zp, const IgemmPackedA& w,
                    const RequantChannel& rq, std::int32_t out_zp,
                    std::int32_t act_min, std::int32_t act_max,
                    std::int8_t* out);

/// int8 depthwise convolution; `w` is [C, 1, K, K].
void qdepthwise_conv2d(const std::int8_t* in, const ConvGeom& g,
                       std::int32_t in_zp, const std::int8_t* w,
                       const std::int32_t* bias, const RequantChannel& rq,
                       std::int32_t out_zp, std::int32_t act_min,
                       std::int32_t act_max, std::int8_t* out);

/// int8 fully-connected for one row: in[features], w[out][features]
/// (row-major, i.e. already transposed to output-major), bias int32.
void qdense(const std::int8_t* in, std::int64_t in_f, std::int32_t in_zp,
            const std::int8_t* w, std::int64_t out_f,
            const std::int32_t* bias, const RequantChannel& rq,
            std::int32_t out_zp, std::int32_t act_min, std::int32_t act_max,
            std::int8_t* out);

/// Whole-batch int8 fully-connected: in is [n, in_f] row-major, out is
/// [n, out_f]. One GEMM over the batch (activations transposed into
/// workspace scratch so output channels become GEMM rows).
void qdense_batched(const std::int8_t* in, std::int64_t n, std::int64_t in_f,
                    std::int32_t in_zp, const std::int8_t* w,
                    std::int64_t out_f, const std::int32_t* bias,
                    const RequantChannel& rq, std::int32_t out_zp,
                    std::int32_t act_min, std::int32_t act_max,
                    std::int8_t* out);

/// qdense_batched with the weights prepacked: `w` is [out_f, in_f]
/// packed by igemm_pack_a with b_zp = in_zp and the layer's bias.
void qdense_batched_packed(const std::int8_t* in, std::int64_t n,
                           std::int64_t in_f, const IgemmPackedA& w,
                           const RequantChannel& rq, std::int32_t out_zp,
                           std::int32_t act_min, std::int32_t act_max,
                           std::int8_t* out);

// ---------------------------------------------------------------------------
// Naive scalar reference kernels (the pre-GEMM implementations). Used
// by parity tests to pin the igemm-backed kernels bit-exactly; not hot
// paths.
// ---------------------------------------------------------------------------

void qconv2d_reference(const std::int8_t* in, const ConvGeom& g,
                       std::int32_t in_zp, const std::int8_t* w,
                       std::int64_t out_c, const std::int32_t* bias,
                       const RequantChannel& rq, std::int32_t out_zp,
                       std::int32_t act_min, std::int32_t act_max,
                       std::int8_t* out);

void qdepthwise_conv2d_reference(const std::int8_t* in, const ConvGeom& g,
                                 std::int32_t in_zp, const std::int8_t* w,
                                 const std::int32_t* bias,
                                 const RequantChannel& rq, std::int32_t out_zp,
                                 std::int32_t act_min, std::int32_t act_max,
                                 std::int8_t* out);

void qdense_reference(const std::int8_t* in, std::int64_t in_f,
                      std::int32_t in_zp, const std::int8_t* w,
                      std::int64_t out_f, const std::int32_t* bias,
                      const RequantChannel& rq, std::int32_t out_zp,
                      std::int32_t act_min, std::int32_t act_max,
                      std::int8_t* out);

/// Elementwise add with requantization of both operands to the output
/// scale: out = clamp(zp_o + requant(a - zp_a) + requant(b - zp_b)).
void qadd(std::span<const std::int8_t> a, QuantParams qp_a,
          std::span<const std::int8_t> b, QuantParams qp_b,
          QuantParams qp_out, std::int32_t act_min, std::int32_t act_max,
          std::span<std::int8_t> out);

/// Requantizes a buffer from one affine grid to another.
void qrequantize(std::span<const std::int8_t> in, QuantParams qp_in,
                 QuantParams qp_out, std::span<std::int8_t> out);

/// Per-element fixed-point loops that qadd / qrequantize tabulate; the
/// table versions are pinned bit-exact against these over every input.
void qadd_reference(std::span<const std::int8_t> a, QuantParams qp_a,
                    std::span<const std::int8_t> b, QuantParams qp_b,
                    QuantParams qp_out, std::int32_t act_min,
                    std::int32_t act_max, std::span<std::int8_t> out);
void qrequantize_reference(std::span<const std::int8_t> in, QuantParams qp_in,
                           QuantParams qp_out, std::span<std::int8_t> out);

/// Non-linear activations that do not map onto the fused requant clamp
/// (sigmoid / hard-sigmoid / leaky-relu) are lowered to a 256-entry
/// lookup table, TFLite style: lut[q + 128] = quantize_out(f(dequant_in(q))).
enum class LutKind { kSigmoid, kHardSigmoid, kLeakyRelu };

/// Builds the 256-entry int8 table for `kind` between the two affine
/// grids. `slope` is only read for kLeakyRelu.
std::vector<std::int8_t> build_activation_lut(LutKind kind, QuantParams qp_in,
                                              QuantParams qp_out,
                                              float slope = 0.01f);

/// Applies a 256-entry table elementwise: out[i] = lut[in[i] + 128].
void qlut(std::span<const std::int8_t> in, std::span<const std::int8_t> lut,
          std::span<std::int8_t> out);

/// Scalar reference for qlut: recomputes each element through the float
/// activation instead of the table. Bit-exact with qlut by construction
/// (the table itself is built from the same per-entry float math).
void qlut_reference(std::span<const std::int8_t> in, LutKind kind,
                    QuantParams qp_in, QuantParams qp_out, float slope,
                    std::span<std::int8_t> out);

/// int8 max pooling over one CHW image. Taps in the padding are
/// skipped; a window with no tap inside the image reads kQmin. The
/// window must fit the padded input (in + 2 * pad >= kernel per side).
void qmaxpool2d(const std::int8_t* in, const ConvGeom& g, std::int8_t* out);

/// int8 average pooling (same scale in/out, rounding division by the
/// window size). Windows must lie inside the image: g.pad must be 0 and
/// the kernel no larger than the input.
void qavgpool2d(const std::int8_t* in, const ConvGeom& g, std::int8_t* out);

/// The per-tap pool loops the range-based pools are pinned against.
void qmaxpool2d_reference(const std::int8_t* in, const ConvGeom& g,
                          std::int8_t* out);
void qavgpool2d_reference(const std::int8_t* in, const ConvGeom& g,
                          std::int8_t* out);

/// Rounding signed division (ties away from zero) by a fixed count
/// d in [1, 2^20], as one multiply and shift. Exact for every
/// |x| <= 128 * d, i.e. every sum of d int8 values.
class RoundingDivider {
 public:
  explicit RoundingDivider(std::int32_t d);
  std::int32_t operator()(std::int32_t x) const {
    const std::uint32_t u =
        (x < 0 ? 0u - static_cast<std::uint32_t>(x)
               : static_cast<std::uint32_t>(x)) +
        half_;
    const auto q =
        static_cast<std::int32_t>((std::uint64_t{u} * mult_) >> shift_);
    return x < 0 ? -q : q;
  }

 private:
  std::uint32_t half_, mult_;
  int shift_;
};

/// Global average pooling: CHW -> C (same scale, rounding division).
void qglobal_avgpool(const std::int8_t* in, std::int64_t c, std::int64_t hw,
                     std::int8_t* out);

}  // namespace diva
