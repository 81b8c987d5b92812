// AVX-512 VNNI igemm microkernel: the headline int8 path. vpdpbusd
// multiplies UNSIGNED bytes by signed bytes in groups of four and
// accumulates into int32 lanes without intermediate narrowing, so the
// panels stay 8-bit (half the pack traffic of the int16 tiers) and one
// instruction does four k steps. Activations are signed here, so
// pack_b stores b ^ 0x80 = b + 128 as the unsigned operand and the
// driver folds the +128 into the hoisted zero-point correction
// (b_zp_bias below) — exact integer arithmetic, bit-identical to
// igemm_reference. Weights (A) broadcast as the signed operand.
// 4x32 tile: 8 zmm accumulators, 2 B loads, 1 quad broadcast.
#include "kernels/isa_variants.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)

#include <immintrin.h>

#include <cstring>

namespace diva::detail {
namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 32;
constexpr std::int64_t kKu = 4;

// A panel: [g][mr][4] s8 — one row's k-quad is a 32-bit broadcast lane.
void pack_a(const std::int8_t* a, std::int64_t lda, std::int64_t i0,
            std::int64_t mr, std::int64_t kc, void* out_v) {
  auto* out = static_cast<std::int8_t*>(out_v);
  const std::int64_t groups = (kc + kKu - 1) / kKu;
  for (std::int64_t g = 0; g < groups; ++g) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      for (std::int64_t t = 0; t < kKu; ++t) {
        const std::int64_t p = g * kKu + t;
        out[(g * kMr + r) * kKu + t] =
            (r < mr && p < kc) ? a[(i0 + r) * lda + p] : std::int8_t{0};
      }
    }
  }
}

// B panel: [g][nr][4] u8 holding b + 128 (zero A padding keeps padded
// positions exact regardless of the stored byte; pads store 0).
//
// A full group (four k rows, all 32 columns) is a 4x32 byte transpose:
// interleaving the rows bytewise, then the row pairs wordwise, leaves
// each 128-bit lane holding four columns' k-quads, in the lane order
// [0-3 | 16-19], [4-7 | 20-23], [8-11 | 24-27], [12-15 | 28-31];
// permute2x128 puts the lanes back in column order. The partial
// trailing group and a narrow last strip take the per-byte loop.
void pack_b(const std::int8_t* b, std::int64_t ldb, std::int64_t kc,
            std::int64_t j0, std::int64_t nr, void* out_v) {
  auto* out = static_cast<std::uint8_t*>(out_v);
  const std::int64_t groups = (kc + kKu - 1) / kKu;
  const std::int64_t simd_groups = nr == kNr ? kc / kKu : 0;
  const __m256i flip = _mm256_set1_epi8(static_cast<char>(0x80));
  for (std::int64_t g = 0; g < simd_groups; ++g) {
    const std::int8_t* src = b + g * kKu * ldb + j0;
    __m256i rows[kKu];
    for (std::int64_t t = 0; t < kKu; ++t) {
      rows[t] = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(src + t * ldb)),
          flip);
    }
    const __m256i lo01 = _mm256_unpacklo_epi8(rows[0], rows[1]);
    const __m256i hi01 = _mm256_unpackhi_epi8(rows[0], rows[1]);
    const __m256i lo23 = _mm256_unpacklo_epi8(rows[2], rows[3]);
    const __m256i hi23 = _mm256_unpackhi_epi8(rows[2], rows[3]);
    const __m256i q0 = _mm256_unpacklo_epi16(lo01, lo23);
    const __m256i q1 = _mm256_unpackhi_epi16(lo01, lo23);
    const __m256i q2 = _mm256_unpacklo_epi16(hi01, hi23);
    const __m256i q3 = _mm256_unpackhi_epi16(hi01, hi23);
    auto* dst = reinterpret_cast<__m256i*>(out + g * kNr * kKu);
    _mm256_storeu_si256(dst + 0, _mm256_permute2x128_si256(q0, q1, 0x20));
    _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(q2, q3, 0x20));
    _mm256_storeu_si256(dst + 2, _mm256_permute2x128_si256(q0, q1, 0x31));
    _mm256_storeu_si256(dst + 3, _mm256_permute2x128_si256(q2, q3, 0x31));
  }
  for (std::int64_t g = simd_groups; g < groups; ++g) {
    for (std::int64_t j = 0; j < kNr; ++j) {
      for (std::int64_t t = 0; t < kKu; ++t) {
        const std::int64_t p = g * kKu + t;
        out[(g * kNr + j) * kKu + t] =
            (j < nr && p < kc)
                ? static_cast<std::uint8_t>(b[p * ldb + j0 + j]) ^
                      std::uint8_t{0x80}
                : std::uint8_t{0};
      }
    }
  }
}

void micro(const void* ap_v, const void* bp_v, std::int64_t kc,
           std::int32_t* acc) {
  const auto* ap = static_cast<const std::int8_t*>(ap_v);
  const auto* bp = static_cast<const std::uint8_t*>(bp_v);
  const std::int64_t groups = (kc + kKu - 1) / kKu;
  __m512i c[kMr][2];
  for (std::int64_t r = 0; r < kMr; ++r) {
    c[r][0] = _mm512_setzero_si512();
    c[r][1] = _mm512_setzero_si512();
  }
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::uint8_t* bg = bp + g * kNr * kKu;
    const __m512i b0 = _mm512_loadu_si512(bg);
    const __m512i b1 = _mm512_loadu_si512(bg + 64);
    const std::int8_t* ag = ap + g * kMr * kKu;
    for (std::int64_t r = 0; r < kMr; ++r) {
      std::int32_t quad;
      std::memcpy(&quad, ag + r * kKu, sizeof(quad));
      const __m512i av = _mm512_set1_epi32(quad);
      c[r][0] = _mm512_dpbusd_epi32(c[r][0], b0, av);
      c[r][1] = _mm512_dpbusd_epi32(c[r][1], b1, av);
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    _mm512_storeu_si512(acc + r * kNr, c[r][0]);
    _mm512_storeu_si512(acc + r * kNr + 16, c[r][1]);
  }
}

}  // namespace

IgemmVariant igemm_variant_avx512_vnni() {
  return {"avx512vnni",
          kMr,
          kNr,
          kKu,
          /*b_zp_bias=*/128,
          sizeof(std::int8_t),
          sizeof(std::uint8_t),
          pack_a,
          pack_b,
          micro};
}

}  // namespace diva::detail

#endif  // __AVX512F__ && __AVX512BW__ && __AVX512VNNI__
