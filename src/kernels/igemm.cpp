#include "kernels/igemm.h"

#include <algorithm>
#include <cstddef>

#include "kernels/fixedpoint.h"
#include "kernels/isa_variants.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/kernel_telemetry.h"
#include "kernels/workspace.h"
#include "runtime/check.h"

namespace diva {

namespace {

/// Adds to the igemm counters of `tier` (see kernel_telemetry.h for
/// names/semantics): a packed-A build counts its bytes but no call.
void count_igemm(const char* tier, std::int64_t calls, std::int64_t macs,
                 std::int64_t packed_bytes) {
  if (!telemetry::enabled()) return;
  thread_local const char* t_tier = nullptr;
  thread_local detail::KernelTierCounters t_c;
  if (t_tier != tier) {
    t_c = detail::make_kernel_tier_counters("igemm", tier);
    t_tier = tier;
  }
  t_c.calls->add(static_cast<std::uint64_t>(calls));
  t_c.macs->add(static_cast<std::uint64_t>(macs));
  t_c.packed_bytes->add(static_cast<std::uint64_t>(packed_bytes));
}

// Scalar (baseline x86-64) tier: int8 operands widened to int16 during
// packing so the microkernel is a plain int16 x int16 -> int32
// multiply-add the compiler vectorizes (pmaddwd-shaped). Pinned as the
// kScalar tier; the AVX variants live in igemm_micro_*.cpp.
constexpr std::int64_t kScalarMr = 4;
constexpr std::int64_t kScalarNr = 32;

void pack_a16(const std::int8_t* a, std::int64_t lda, std::int64_t i0,
              std::int64_t mr, std::int64_t kc, void* out_v) {
  auto* out = static_cast<std::int16_t*>(out_v);
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t r = 0; r < kScalarMr; ++r) {
      out[p * kScalarMr + r] =
          r < mr ? static_cast<std::int16_t>(a[(i0 + r) * lda + p]) : 0;
    }
  }
}

void pack_b16(const std::int8_t* b, std::int64_t ldb, std::int64_t kc,
              std::int64_t j0, std::int64_t nr, void* out_v) {
  auto* out = static_cast<std::int16_t*>(out_v);
  for (std::int64_t p = 0; p < kc; ++p) {
    const std::int8_t* src = b + p * ldb + j0;
    std::int16_t* dst = out + p * kScalarNr;
    for (std::int64_t cc = 0; cc < kScalarNr; ++cc) {
      dst[cc] = cc < nr ? static_cast<std::int16_t>(src[cc]) : 0;
    }
  }
}

void micro_kernel_scalar(const void* ap_v, const void* bp_v, std::int64_t kc,
                         std::int32_t* acc) {
  const auto* ap = static_cast<const std::int16_t*>(ap_v);
  const auto* bp = static_cast<const std::int16_t*>(bp_v);
  std::fill(acc, acc + kScalarMr * kScalarNr, 0);
  for (std::int64_t p = 0; p < kc; ++p) {
    const std::int16_t* brow = bp + p * kScalarNr;
    const std::int16_t* arow = ap + p * kScalarMr;
    for (std::int64_t r = 0; r < kScalarMr; ++r) {
      const std::int32_t av = arow[r];
      std::int32_t* accrow = acc + r * kScalarNr;
      for (std::int64_t cc = 0; cc < kScalarNr; ++cc) {
        accrow[cc] += av * static_cast<std::int32_t>(brow[cc]);
      }
    }
  }
}

/// Scalar reference requant row — the pinned fixedpoint.h arithmetic
/// every SIMD requant tier must reproduce bit-for-bit.
void requant_row_scalar(const std::int32_t* raw, std::int64_t n,
                        std::int32_t base, std::int32_t mult, int shift,
                        std::int32_t out_zp, std::int32_t act_min,
                        std::int32_t act_max, std::int8_t* out) {
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int32_t scaled =
        multiply_by_quantized_multiplier(base + raw[j], mult, shift);
    out[j] = static_cast<std::int8_t>(
        std::clamp(scaled + out_zp, act_min, act_max));
  }
}

}  // namespace

namespace detail {

IgemmVariant igemm_variant_scalar() {
  return {"scalar",
          kScalarMr,
          kScalarNr,
          /*k_unroll=*/1,
          /*b_zp_bias=*/0,
          sizeof(std::int16_t),
          sizeof(std::int16_t),
          pack_a16,
          pack_b16,
          micro_kernel_scalar};
}

RequantVariant requant_variant_scalar() {
  return {"scalar", requant_row_scalar};
}

}  // namespace detail

IgemmPackedA igemm_pack_a(IsaTier tier, std::int64_t m, std::int64_t k,
                          const std::int8_t* a, std::int64_t lda,
                          std::int32_t b_zp, const std::int32_t* bias) {
  const IgemmVariant v = igemm_variant_for(tier);
  const std::size_t a_bytes = v.a_panel_bytes(k);
  IgemmPackedA p{tier, m, k, {}, {}};
  p.panels.resize(static_cast<std::size_t>((m + v.mr - 1) / v.mr) * a_bytes);
  count_igemm(v.name, 0, 0, static_cast<std::int64_t>(p.panels.size()));
  // Zero-point correction, hoisted out of the inner product. Packing
  // may shift B onto an offset grid (the VNNI tier packs b ^ 0x80, i.e.
  // b + 128, to feed vpdpbusd's unsigned operand); the variant reports
  // that shift and it folds into the same term, exactly:
  //   sum_p a[i,p] * (b[p,j] + bias - (b_zp + bias))
  //     = acc[i,j] - (b_zp + b_zp_bias) * rowsum_a[i].
  const std::int32_t zp_eff = b_zp + v.b_zp_bias;
  for (std::int64_t i = 0; i < m; ++i) {
    if (i % v.mr == 0) {
      v.pack_a(a, lda, i, std::min(v.mr, m - i), k,
               p.panels.data() + static_cast<std::size_t>(i / v.mr) * a_bytes);
    }
    std::int32_t rowsum = 0;
    for (std::int64_t q = 0; q < k; ++q) rowsum += a[i * lda + q];
    p.base.push_back((bias != nullptr ? bias[i] : 0) - zp_eff * rowsum);
  }
  return p;
}

void igemm_packed(const IgemmPackedA& a, std::int64_t n, const std::int8_t* b,
                  std::int64_t ldb, const IgemmEpilogue& ep, std::int8_t* out,
                  std::int64_t ldo) {
  const KernelDispatch& d = kernel_dispatch();
  DIVA_CHECK(a.tier == d.tier, "igemm_packed: weights packed for "
                                   << isa_tier_name(a.tier) << ", dispatch is "
                                   << isa_tier_name(d.tier));
  DIVA_CHECK(ep.bias == nullptr && ep.multiplier != nullptr &&
                 ep.shift != nullptr,
             "igemm_packed needs a per-row requant epilogue without bias");
  if (a.m <= 0 || n <= 0) return;
  const IgemmVariant& v = d.igemm;
  const std::size_t a_bytes = v.a_panel_bytes(a.k);
  const std::size_t b_bytes = v.b_panel_bytes(a.k);
  count_igemm(v.name, 1, a.m * n * a.k,
              (n + v.nr - 1) / v.nr * static_cast<std::int64_t>(b_bytes));

  // The one tile loop: B is packed one NR-column strip at a time, and
  // each MR x NR tile runs the whole K in the microkernel before its
  // rows are requantized straight from the accumulator.
  auto frame = Workspace::tls().frame();
  auto* bpack = frame.alloc<std::byte>(static_cast<std::int64_t>(b_bytes));
  alignas(64) std::int32_t acc[kMaxIgemmMr * kMaxIgemmNr];
  for (std::int64_t j0 = 0; j0 < n; j0 += v.nr) {
    const std::int64_t nr = std::min(v.nr, n - j0);
    v.pack_b(b, ldb, a.k, j0, nr, bpack);
    for (std::int64_t i0 = 0; i0 < a.m; i0 += v.mr) {
      v.micro(a.panels.data() + static_cast<std::size_t>(i0 / v.mr) * a_bytes,
              bpack, a.k, acc);
      for (std::int64_t i = i0; i < std::min(i0 + v.mr, a.m); ++i) {
        d.requant.row(acc + (i - i0) * v.nr, nr, a.base.data()[i],
                      ep.multiplier[i], ep.shift[i], ep.out_zp, ep.act_min,
                      ep.act_max, out + i * ldo + j0);
      }
    }
  }
}

void igemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
           std::int64_t ldb, std::int32_t b_zp, const IgemmEpilogue& ep,
           std::int8_t* out, std::int64_t ldo) {
  if (m <= 0 || n <= 0) return;
  DIVA_CHECK(ep.multiplier != nullptr && ep.shift != nullptr,
             "igemm needs a per-row requant epilogue");
  if (m > 1) {
    IgemmEpilogue requant = ep;
    requant.bias = nullptr;
    igemm_packed(igemm_pack_a(active_isa_tier(), m, k, a, lda, b_zp, ep.bias),
                 n, b, ldb, requant, out, ldo);
    return;
  }
  // Single-row fast path (depthwise layers call igemm once per
  // channel): B rows stream with unit stride, so packing and the
  // MR-row microkernel would only multiply padding. Same integer
  // sums at every tier, still bit-exact.
  auto frame = Workspace::tls().frame();
  std::int32_t* raw = frame.alloc_zeroed<std::int32_t>(n);
  std::int32_t rowsum = 0;
  for (std::int64_t p = 0; p < k; ++p) {
    const std::int32_t av = a[p];
    rowsum += av;
    if (av == 0) continue;
    const std::int8_t* brow = b + p * ldb;
    for (std::int64_t j = 0; j < n; ++j) {
      raw[j] += av * static_cast<std::int32_t>(brow[j]);
    }
  }
  const std::int32_t base =
      (ep.bias != nullptr ? ep.bias[0] : 0) - b_zp * rowsum;
  kernel_dispatch().requant.row(raw, n, base, ep.multiplier[0], ep.shift[0],
                                ep.out_zp, ep.act_min, ep.act_max, out);
  count_igemm("scalar", 1, n * k, /*packed_bytes=*/0);
}

void igemm_reference(std::int64_t m, std::int64_t n, std::int64_t k,
                     const std::int8_t* a, std::int64_t lda,
                     const std::int8_t* b, std::int64_t ldb, std::int32_t b_zp,
                     const IgemmEpilogue& ep, std::int8_t* out,
                     std::int64_t ldo) {
  if (m <= 0 || n <= 0) return;
  DIVA_CHECK(ep.multiplier != nullptr && ep.shift != nullptr,
             "igemm needs a per-row requant epilogue");
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * lda;
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = ep.bias != nullptr ? ep.bias[i] : 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(arow[p]) *
               (static_cast<std::int32_t>(b[p * ldb + j]) - b_zp);
      }
      const std::int32_t scaled =
          multiply_by_quantized_multiplier(acc, ep.multiplier[i], ep.shift[i]);
      out[i * ldo + j] = static_cast<std::int8_t>(
          std::clamp(scaled + ep.out_zp, ep.act_min, ep.act_max));
    }
  }
}

}  // namespace diva
