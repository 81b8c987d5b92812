// Runtime ISA dispatch for the GEMM microkernels.
//
// The sgemm/igemm drivers (blocking, packing-buffer management, the
// requantization epilogue) are ISA-agnostic; only the innermost
// register microkernel — and, for igemm, the packed-panel layout it
// consumes — varies per tier. Each tier's variant lives in its own
// translation unit compiled with exactly the -m flags it needs (the
// mkldnn shape: per-ISA kernel classes behind one descriptor), so the
// rest of the library stays at baseline x86-64 and the binary runs on
// any machine: CPUID decides at startup which variants execute.
//
// Tier resolution happens once, on first kernel call:
//   min( highest tier the CPU supports,
//        highest tier compiled in,
//        DIVA_ISA_MAX clamp if set )
// DIVA_ISA_MAX takes "scalar", "avx2", "avx512", or "avx512vnni" and
// exists for A/B benching and for exercising the reference tier in CI.
// Set DIVA_LOG_ISA=1 to print the resolution to stderr.
//
// Bit-exactness policy (tested in tests/test_isa_dispatch.cpp):
//   - igemm tiers are pure integer arithmetic and MUST be bit-identical
//     to igemm_reference for every shape; any blocking, packing layout,
//     or widening trick that changes the computed int32 sums is a bug.
//   - sgemm tiers reorder FMA accumulation, so cross-tier float results
//     agree only to tolerance. Fixed-tier runs stay bit-deterministic;
//     determinism is pinned per tier, never across tiers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace diva {

/// Kernel ISA tiers, ascending. Each tier implies the CPU features of
/// the ones below it on real hardware; dispatch verifies per tier.
enum class IsaTier : int {
  kScalar = 0,      // auto-vectorized C++ at baseline x86-64
  kAvx2 = 1,        // AVX2 + FMA
  kAvx512 = 2,      // AVX-512 F/BW/VL (pmaddwd int8 path)
  kAvx512Vnni = 3,  // + AVX-512 VNNI (vpdpbusd int8 path)
};

/// Stable lowercase name ("scalar", "avx2", "avx512", "avx512vnni").
const char* isa_tier_name(IsaTier t);

/// Parses an isa_tier_name-style string. Returns false (and leaves
/// *out untouched) on unknown names.
bool parse_isa_tier(const std::string& name, IsaTier* out);

/// sgemm register microkernel over packed panels:
///   acc[mr][nr] += Ap[kc][mr] x Bp[kc][nr]
/// Ap is [p][mr] row-panel order, Bp is [p][nr] column-panel order,
/// acc is row-major with leading dimension nr. Packing is shared across
/// tiers (gemm.cpp), parameterized by mr/nr.
struct SgemmVariant {
  const char* name;
  std::int64_t mr, nr;
  void (*micro)(const float* ap, const float* bp, std::int64_t kc,
                float* acc);
};

/// igemm microkernel plus its packing: packed formats are variant-
/// private (k-group interleave and element width differ per tier), so
/// the variant owns pack_a/pack_b and the driver only sizes buffers.
///
/// Panels always span the whole K. pack_a/pack_b write ceil(k /
/// k_unroll) k-groups, zero-padding rows beyond mr_actual / columns
/// beyond nr_actual / k positions beyond k (zero A entries make every
/// padded product exactly zero). micro overwrites
/// acc[mr][nr] = sum_p a[p] * b_packed[p][j], where b_packed holds
/// b + b_zp_bias (the VNNI u8 path packs b ^ 0x80, i.e. b + 128); the
/// driver folds b_zp_bias into the hoisted zero-point correction,
/// keeping every tier bit-identical to igemm_reference.
struct IgemmVariant {
  const char* name;
  std::int64_t mr, nr, k_unroll;
  std::int32_t b_zp_bias;
  std::size_t a_elem_bytes, b_elem_bytes;
  void (*pack_a)(const std::int8_t* a, std::int64_t lda, std::int64_t i0,
                 std::int64_t mr_actual, std::int64_t k, void* out);
  void (*pack_b)(const std::int8_t* b, std::int64_t ldb, std::int64_t k,
                 std::int64_t j0, std::int64_t nr_actual, void* out);
  void (*micro)(const void* ap, const void* bp, std::int64_t k,
                std::int32_t* acc);

  std::int64_t padded_k(std::int64_t k) const {
    return (k + k_unroll - 1) / k_unroll * k_unroll;
  }
  std::size_t a_panel_bytes(std::int64_t k) const {
    return static_cast<std::size_t>(padded_k(k) * mr) * a_elem_bytes;
  }
  std::size_t b_panel_bytes(std::int64_t k) const {
    return static_cast<std::size_t>(padded_k(k) * nr) * b_elem_bytes;
  }
};

/// Requantization epilogue row kernel (gemmlowp/TFLite fixed point):
///   out[j] = clamp(mbqm(base + raw[j], mult, shift) + out_zp,
///                  act_min, act_max)              for j in [0, n)
/// Same bit-exactness contract as the igemm microkernels: every tier
/// must match the scalar fixedpoint.h arithmetic for all inputs.
/// act_min/act_max must lie within [-128, 127] (true for every int8
/// layer; the SIMD tiers narrow with saturating packs after the clamp).
struct RequantVariant {
  const char* name;
  void (*row)(const std::int32_t* raw, std::int64_t n, std::int32_t base,
              std::int32_t mult, int shift, std::int32_t out_zp,
              std::int32_t act_min, std::int32_t act_max, std::int8_t* out);
};

/// Upper bounds over all variants' tile shapes, so drivers can keep
/// fixed-size stack accumulators.
inline constexpr std::int64_t kMaxSgemmMr = 8;
inline constexpr std::int64_t kMaxSgemmNr = 32;
inline constexpr std::int64_t kMaxIgemmMr = 4;
inline constexpr std::int64_t kMaxIgemmNr = 32;

struct KernelDispatch {
  IsaTier tier = IsaTier::kScalar;
  SgemmVariant sgemm;
  IgemmVariant igemm;
  RequantVariant requant;
};

/// The active dispatch table, resolved once on first use.
const KernelDispatch& kernel_dispatch();

/// Shorthand for kernel_dispatch().tier — what benches record as
/// isa_tier in their JSON rows.
IsaTier active_isa_tier();

/// Tiers this process can actually execute (compiled in AND supported
/// by the host CPU), ascending. Always contains kScalar.
std::vector<IsaTier> available_isa_tiers();

/// Number of IsaTier values, for tables indexed by tier.
inline constexpr std::size_t kNumIsaTiers =
    static_cast<std::size_t>(IsaTier::kAvx512Vnni) + 1;

/// The igemm variant `tier` dispatches to (must be in
/// available_isa_tiers(); throws otherwise), whatever the active tier:
/// weights are packed ahead of time for every runnable tier.
IgemmVariant igemm_variant_for(IsaTier tier);

/// Forces the dispatch to `tier` (must be in available_isa_tiers();
/// throws otherwise). For per-tier parity tests and interleaved A/B
/// benching. Not thread-safe: call only while no kernels are running.
void force_isa_tier(IsaTier tier);

}  // namespace diva
