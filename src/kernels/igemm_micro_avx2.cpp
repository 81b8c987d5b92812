// AVX2 u8s8-shaped igemm microkernel, widening-multiply flavor: int8
// operands are widened to int16 at pack time in k-PAIR interleaved
// panels, and the inner op is vpmaddwd (s16 x s16 pairs -> s32), which
// is exact here — |widened s8| <= 128, so each pair sum is at most
// 2 * 128^2, far inside int32. 4x16 tile: 8 ymm accumulators, 2 B
// loads, 1 pair broadcast. Compiled with -mavx2 (see CMakeLists.txt);
// called only after CPUID dispatch. Bit-identical to igemm_reference.
#include "kernels/isa_variants.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "kernels/fixedpoint.h"

namespace diva::detail {
namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = 16;
constexpr std::int64_t kKu = 2;

// A panel: [g][mr][2] int16 — a row's k-pair sits adjacent so the
// microkernel broadcasts it as one 32-bit lane.
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

// B panel: [g][nr][2] int16 — a column's k-pair occupies one 32-bit
// lane, so vpmaddwd against the broadcast A pair yields that column's
// two-term dot product. A full group (a k pair, all 16 columns)
// interleaves the two rows bytewise and sign-extends each half to
// int16; the trailing odd k and a narrow last strip take the
// per-element loop.
void pack_b(const std::int8_t* b, std::int64_t ldb, std::int64_t kc,
            std::int64_t j0, std::int64_t nr, void* out_v) {
  auto* out = static_cast<std::int16_t*>(out_v);
  const std::int64_t groups = (kc + kKu - 1) / kKu;
  const std::int64_t simd_groups = nr == kNr ? kc / kKu : 0;
  for (std::int64_t g = 0; g < simd_groups; ++g) {
    const std::int8_t* src = b + g * kKu * ldb + j0;
    const __m128i r0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
    const __m128i r1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + ldb));
    auto* dst = reinterpret_cast<__m256i*>(out + g * kNr * kKu);
    _mm256_storeu_si256(dst, _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(r0, r1)));
    _mm256_storeu_si256(dst + 1,
                        _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(r0, r1)));
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
  __m256i c[kMr][2];
  for (std::int64_t r = 0; r < kMr; ++r) {
    c[r][0] = _mm256_setzero_si256();
    c[r][1] = _mm256_setzero_si256();
  }
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int16_t* bg = bp + g * kNr * kKu;
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 16));
    const std::int16_t* ag = ap + g * kMr * kKu;
    for (std::int64_t r = 0; r < kMr; ++r) {
      std::int32_t pair;
      std::memcpy(&pair, ag + r * kKu, sizeof(pair));
      const __m256i av = _mm256_set1_epi32(pair);
      c[r][0] = _mm256_add_epi32(c[r][0], _mm256_madd_epi16(av, b0));
      c[r][1] = _mm256_add_epi32(c[r][1], _mm256_madd_epi16(av, b1));
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kNr), c[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * kNr + 8),
                        c[r][1]);
  }
}

// --------------------------------------------------------------------------
// Requantization epilogue, AVX2 (8 lanes / iteration).
//
// Must be bit-identical to the scalar fixedpoint.h chain. The SRDHM
// rounding is vectorized with a constant +2^30 nudge and a logical
// 64-bit right shift by 31: for every int64 product ab,
//   trunc((ab + (ab >= 0 ? 2^30 : 1 - 2^30)) / 2^31)
//     == low32((ab + 2^30) >> 31),
// because the negative-half cases the sign-dependent nudge exists for
// land on the same integer under floor division (case analysis over
// remainders; both sides differ only past the truncated bits). The
// INT32_MIN * INT32_MIN saturation case is masked separately.
// --------------------------------------------------------------------------

__m256i srdhm_avx2(__m256i a, __m256i b) {
  const __m256i nudge = _mm256_set1_epi64x(1LL << 30);
  __m256i even = _mm256_mul_epi32(a, b);  // lanes 0,2,4,6 -> 4 x int64
  __m256i odd = _mm256_mul_epi32(_mm256_srli_epi64(a, 32),
                                 _mm256_srli_epi64(b, 32));
  even = _mm256_srli_epi64(_mm256_add_epi64(even, nudge), 31);
  odd = _mm256_srli_epi64(_mm256_add_epi64(odd, nudge), 31);
  __m256i res =
      _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0b10101010);
  const __m256i i32min = _mm256_set1_epi32(INT32_MIN);
  const __m256i sat = _mm256_and_si256(_mm256_cmpeq_epi32(a, i32min),
                                       _mm256_cmpeq_epi32(b, i32min));
  return _mm256_blendv_epi8(res, _mm256_set1_epi32(INT32_MAX), sat);
}

__m256i rdbpot_avx2(__m256i x, int exponent) {
  if (exponent == 0) return x;
  const std::int32_t mask =
      static_cast<std::int32_t>((1u << exponent) - 1u);
  const __m256i maskv = _mm256_set1_epi32(mask);
  const __m256i rem = _mm256_and_si256(x, maskv);
  __m256i res = _mm256_sra_epi32(x, _mm_cvtsi32_si128(exponent));
  // threshold = mask >> 1, plus 1 where x < 0 (cmpgt mask is -1).
  __m256i thr = _mm256_set1_epi32(mask >> 1);
  thr = _mm256_sub_epi32(thr,
                         _mm256_cmpgt_epi32(_mm256_setzero_si256(), x));
  return _mm256_sub_epi32(res, _mm256_cmpgt_epi32(rem, thr));
}

void requant_row(const std::int32_t* raw, std::int64_t n, std::int32_t base,
                 std::int32_t mult, int shift, std::int32_t out_zp,
                 std::int32_t act_min, std::int32_t act_max,
                 std::int8_t* out) {
  const int left = shift > 0 ? shift : 0;
  const int right = shift > 0 ? 0 : -shift;
  const __m128i left_cnt = _mm_cvtsi32_si128(left);
  const __m256i basev = _mm256_set1_epi32(base);
  const __m256i multv = _mm256_set1_epi32(mult);
  const __m256i zpv = _mm256_set1_epi32(out_zp);
  const __m256i minv = _mm256_set1_epi32(act_min);
  const __m256i maxv = _mm256_set1_epi32(act_max);
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256i x = _mm256_add_epi32(
        basev,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + j)));
    // Wrapping 32-bit left shift == the scalar int64-widen-then-
    // truncate (low 32 bits agree).
    x = _mm256_sll_epi32(x, left_cnt);
    x = rdbpot_avx2(srdhm_avx2(x, multv), right);
    x = _mm256_add_epi32(x, zpv);
    x = _mm256_min_epi32(_mm256_max_epi32(x, minv), maxv);
    // Post-clamp values fit int8, so the saturating packs are exact.
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(x),
                                        _mm256_extracti128_si256(x, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j),
                     _mm_packs_epi16(p16, p16));
  }
  for (; j < n; ++j) {
    const std::int32_t scaled =
        multiply_by_quantized_multiplier(base + raw[j], mult, shift);
    out[j] = static_cast<std::int8_t>(
        std::clamp(scaled + out_zp, act_min, act_max));
  }
}

}  // namespace

RequantVariant requant_variant_avx2() { return {"avx2", requant_row}; }

IgemmVariant igemm_variant_avx2() {
  return {"avx2",
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

#endif  // __AVX2__
