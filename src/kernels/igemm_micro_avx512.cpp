// AVX-512 (F/BW/VL, no VNNI) igemm microkernel: the same exact
// k-pair-interleaved int16 vpmaddwd scheme as the AVX2 variant at zmm
// width — 4x32 tile, 8 zmm accumulators, 2 B loads, 1 pair broadcast.
// Deliberately compiled WITHOUT -mavx512vnni in its own TU so the
// compiler cannot peephole vpmaddwd+vpaddd into vpdpwssd and crash a
// non-VNNI AVX-512 host; the vpdpbusd path lives in
// igemm_micro_avx512_vnni.cpp. Bit-identical to igemm_reference.
#include "kernels/isa_variants.h"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "kernels/fixedpoint.h"

namespace diva::detail {
namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 32;
constexpr std::int64_t kKu = 2;

void pack_a(const std::int8_t* a, std::int64_t lda, std::int64_t i0,
            std::int64_t mr, std::int64_t kc, void* out_v) {
  auto* out = static_cast<std::int16_t*>(out_v);
  const std::int64_t groups = (kc + kKu - 1) / kKu;
  for (std::int64_t g = 0; g < groups; ++g) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      for (std::int64_t t = 0; t < kKu; ++t) {
        const std::int64_t p = g * kKu + t;
        out[(g * kMr + r) * kKu + t] =
            (r < mr && p < kc)
                ? static_cast<std::int16_t>(a[(i0 + r) * lda + p])
                : 0;
      }
    }
  }
}

// A full group (a k pair, all 32 columns) interleaves the two rows
// bytewise (each 128-bit lane then holds eight columns' pairs, lanes in
// the order [0-7 | 16-23] and [8-15 | 24-31]), puts the lanes back in
// column order with permute2x128, and sign-extends to int16. The
// trailing odd k and a narrow last strip take the per-element loop.
void pack_b(const std::int8_t* b, std::int64_t ldb, std::int64_t kc,
            std::int64_t j0, std::int64_t nr, void* out_v) {
  auto* out = static_cast<std::int16_t*>(out_v);
  const std::int64_t groups = (kc + kKu - 1) / kKu;
  const std::int64_t simd_groups = nr == kNr ? kc / kKu : 0;
  for (std::int64_t g = 0; g < simd_groups; ++g) {
    const std::int8_t* src = b + g * kKu * ldb + j0;
    const __m256i r0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
    const __m256i r1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + ldb));
    const __m256i lo = _mm256_unpacklo_epi8(r0, r1);
    const __m256i hi = _mm256_unpackhi_epi8(r0, r1);
    std::int16_t* dst = out + g * kNr * kKu;
    _mm512_storeu_si512(dst, _mm512_cvtepi8_epi16(
                                 _mm256_permute2x128_si256(lo, hi, 0x20)));
    _mm512_storeu_si512(dst + 32, _mm512_cvtepi8_epi16(
                                      _mm256_permute2x128_si256(lo, hi, 0x31)));
  }
  for (std::int64_t g = simd_groups; g < groups; ++g) {
    for (std::int64_t j = 0; j < kNr; ++j) {
      for (std::int64_t t = 0; t < kKu; ++t) {
        const std::int64_t p = g * kKu + t;
        out[(g * kNr + j) * kKu + t] =
            (j < nr && p < kc)
                ? static_cast<std::int16_t>(b[p * ldb + j0 + j])
                : 0;
      }
    }
  }
}

void micro(const void* ap_v, const void* bp_v, std::int64_t kc,
           std::int32_t* acc) {
  const auto* ap = static_cast<const std::int16_t*>(ap_v);
  const auto* bp = static_cast<const std::int16_t*>(bp_v);
  const std::int64_t groups = (kc + kKu - 1) / kKu;
  __m512i c[kMr][2];
  for (std::int64_t r = 0; r < kMr; ++r) {
    c[r][0] = _mm512_setzero_si512();
    c[r][1] = _mm512_setzero_si512();
  }
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int16_t* bg = bp + g * kNr * kKu;
    const __m512i b0 = _mm512_loadu_si512(bg);
    const __m512i b1 = _mm512_loadu_si512(bg + 32);
    const std::int16_t* ag = ap + g * kMr * kKu;
    for (std::int64_t r = 0; r < kMr; ++r) {
      std::int32_t pair;
      std::memcpy(&pair, ag + r * kKu, sizeof(pair));
      const __m512i av = _mm512_set1_epi32(pair);
      c[r][0] = _mm512_add_epi32(c[r][0], _mm512_madd_epi16(av, b0));
      c[r][1] = _mm512_add_epi32(c[r][1], _mm512_madd_epi16(av, b1));
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    _mm512_storeu_si512(acc + r * kNr, c[r][0]);
    _mm512_storeu_si512(acc + r * kNr + 16, c[r][1]);
  }
}

// --------------------------------------------------------------------------
// Requantization epilogue, AVX-512 (16 lanes / iteration). Same
// constant-nudge SRDHM construction as the AVX2 variant (see
// igemm_micro_avx2.cpp for the equivalence argument); saturation and
// round-up corrections use mask registers instead of blend vectors.
// --------------------------------------------------------------------------

__m512i srdhm_avx512(__m512i a, __m512i b) {
  const __m512i nudge = _mm512_set1_epi64(1LL << 30);
  __m512i even = _mm512_mul_epi32(a, b);  // even lanes -> 8 x int64
  __m512i odd = _mm512_mul_epi32(_mm512_srli_epi64(a, 32),
                                 _mm512_srli_epi64(b, 32));
  even = _mm512_srli_epi64(_mm512_add_epi64(even, nudge), 31);
  odd = _mm512_srli_epi64(_mm512_add_epi64(odd, nudge), 31);
  __m512i res =
      _mm512_mask_blend_epi32(0xAAAA, even, _mm512_slli_epi64(odd, 32));
  const __m512i i32min = _mm512_set1_epi32(INT32_MIN);
  const __mmask16 sat = _mm512_cmpeq_epi32_mask(a, i32min) &
                        _mm512_cmpeq_epi32_mask(b, i32min);
  return _mm512_mask_mov_epi32(res, sat, _mm512_set1_epi32(INT32_MAX));
}

__m512i rdbpot_avx512(__m512i x, int exponent) {
  if (exponent == 0) return x;
  const std::int32_t mask =
      static_cast<std::int32_t>((1u << exponent) - 1u);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i maskv = _mm512_set1_epi32(mask);
  const __m512i rem = _mm512_and_si512(x, maskv);
  __m512i res = _mm512_sra_epi32(x, _mm_cvtsi32_si128(exponent));
  // threshold = mask >> 1, plus 1 where x < 0.
  __m512i thr = _mm512_set1_epi32(mask >> 1);
  const __mmask16 neg =
      _mm512_cmplt_epi32_mask(x, _mm512_setzero_si512());
  thr = _mm512_mask_add_epi32(thr, neg, thr, one);
  const __mmask16 up = _mm512_cmpgt_epi32_mask(rem, thr);
  return _mm512_mask_add_epi32(res, up, res, one);
}

void requant_row(const std::int32_t* raw, std::int64_t n, std::int32_t base,
                 std::int32_t mult, int shift, std::int32_t out_zp,
                 std::int32_t act_min, std::int32_t act_max,
                 std::int8_t* out) {
  const int left = shift > 0 ? shift : 0;
  const int right = shift > 0 ? 0 : -shift;
  const __m128i left_cnt = _mm_cvtsi32_si128(left);
  const __m512i basev = _mm512_set1_epi32(base);
  const __m512i multv = _mm512_set1_epi32(mult);
  const __m512i zpv = _mm512_set1_epi32(out_zp);
  const __m512i minv = _mm512_set1_epi32(act_min);
  const __m512i maxv = _mm512_set1_epi32(act_max);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m512i x = _mm512_add_epi32(basev, _mm512_loadu_si512(raw + j));
    // Wrapping 32-bit left shift == the scalar int64-widen-then-
    // truncate (low 32 bits agree).
    x = _mm512_sll_epi32(x, left_cnt);
    x = rdbpot_avx512(srdhm_avx512(x, multv), right);
    x = _mm512_add_epi32(x, zpv);
    x = _mm512_min_epi32(_mm512_max_epi32(x, minv), maxv);
    // Post-clamp values fit int8, so the truncating narrow is exact.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j),
                     _mm512_cvtepi32_epi8(x));
  }
  for (; j < n; ++j) {
    const std::int32_t scaled =
        multiply_by_quantized_multiplier(base + raw[j], mult, shift);
    out[j] = static_cast<std::int8_t>(
        std::clamp(scaled + out_zp, act_min, act_max));
  }
}

}  // namespace

RequantVariant requant_variant_avx512() { return {"avx512", requant_row}; }

IgemmVariant igemm_variant_avx512() {
  return {"avx512",
          kMr,
          kNr,
          kKu,
          /*b_zp_bias=*/0,
          sizeof(std::int16_t),
          sizeof(std::int16_t),
          pack_a,
          pack_b,
          micro};
}

}  // namespace diva::detail

#endif  // __AVX512F__ && __AVX512BW__
