// Cache-blocked int8 x int8 -> int32 GEMM with a fused requantization
// epilogue.
//
// Computes out[m,n] = requant(A[m,k] x (B[k,n] - b_zp) + bias[m]) where
// A holds int8 weights (per-row = per-output-channel quantized), B holds
// int8 activations on an affine grid with zero point b_zp (im2col
// panels fill padding with b_zp so padded taps contribute exactly
// zero), accumulation is int32, and the epilogue applies the TFLite
// fixed-point per-row multiplier, output zero point, and activation
// clamp. The zero-point correction is hoisted out of the inner loop:
//   sum_p a[i,p] * (b[p,j] - zp) = raw[i,j] - zp * rowsum_a[i]
// which is exact in integer arithmetic, so results are bit-identical to
// the naive scalar kernels for any loop order or blocking.
//
// Weights are packed once: igemm_pack_a lays A out in one ISA tier's
// panels and folds each row's bias and zero-point correction into an
// epilogue base, and igemm_packed runs the product against that. The
// quantized executor packs every conv and dense op this way when a
// model is built; igemm() packs A into a temporary and takes the same
// path. Panels span the whole K (no K blocking): each MR x NR tile runs
// the full inner product in the microkernel, and its rows go straight
// from the accumulator to the requantization epilogue.
//
// The inner microkernel (and the packed-panel layout feeding it) is
// selected at startup by the runtime ISA dispatch (kernel_dispatch.h):
// a scalar int16-widening baseline, AVX2/AVX-512 pmaddwd variants, and
// an AVX-512 VNNI vpdpbusd variant that packs activations as u8
// (b + 128, with a SIMD byte transpose for full k-quads) and folds the
// offset into the zero-point correction.
// Bit-exactness policy: igemm is integer arithmetic end to end, so
// EVERY tier must be bit-identical to igemm_reference below — this is
// pinned per tier in tests/test_isa_dispatch.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/kernel_dispatch.h"

namespace diva {

/// Per-row requantization epilogue. All pointers have length m.
struct IgemmEpilogue {
  const std::int32_t* bias = nullptr;  // int32 bias at scale s_in*s_w[row]
  const std::int32_t* multiplier = nullptr;  // Q31 fixed-point multiplier
  const int* shift = nullptr;                // power-of-two shift
  std::int32_t out_zp = 0;
  std::int32_t act_min = -128;
  std::int32_t act_max = 127;
};

/// out[m,n] = requant(A[m,k] x (B[k,n] - b_zp)). A has leading dim lda,
/// B ldb, out ldo (all row-major).
void igemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t b_zp, const IgemmEpilogue& ep,
           std::int8_t* out, std::int64_t ldo);

/// A[m,k] packed once for one ISA tier's microkernel. `base` holds each
/// row's epilogue base, bias[i] - (b_zp + b_zp_bias) * rowsum_a[i]:
/// the hoisted zero-point correction for the B zero point the weights
/// were packed against, plus the tier's packing offset.
struct IgemmPackedA {
  IsaTier tier = IsaTier::kScalar;
  std::int64_t m = 0, k = 0;
  std::vector<std::byte> panels;   // ceil(m / MR) panels of a_panel_bytes(k)
  std::vector<std::int32_t> base;  // [m]
};

/// Packs A (leading dim lda) for `tier`, which must be runnable. `bias`
/// may be null; `b_zp` is the zero point of every B this will multiply.
IgemmPackedA igemm_pack_a(IsaTier tier, std::int64_t m, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          std::int32_t b_zp, const std::int32_t* bias);

/// out[m,n] = requant(A x (B[k,n] - b_zp)) with A prepacked. `a.tier`
/// must be the active dispatch tier. The bias lives in `a.base`, so
/// `ep.bias` must be null.
void igemm_packed(const IgemmPackedA& a, std::int64_t n, const std::int8_t* b,
                  std::int64_t ldb, const IgemmEpilogue& ep, std::int8_t* out,
                  std::int64_t ldo);

/// Naive triple-loop reference with the same epilogue: the pinned
/// bit-exactness anchor every dispatched igemm tier must match exactly.
/// Not a hot path — used by tests and never dispatched.
void igemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const std::int8_t* b, std::int64_t ldb, std::int32_t b_zp,
                     const IgemmEpilogue& ep, std::int8_t* out,
                     std::int64_t ldo);

}  // namespace diva
