// ISA-dispatch tests: the bit-exactness policy from
// kernels/kernel_dispatch.h pinned per tier. igemm is integer
// arithmetic end to end, so every runnable tier must produce output
// bit-identical to igemm_reference for every shape — including the
// degenerate and off-panel shapes that exercise zero-padded packing
// tails. sgemm tiers reorder FMA accumulation, so they agree with the
// naive reference only to tolerance, but a fixed tier must be
// bit-deterministic run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kernels/cpu_features.h"
#include "kernels/fixedpoint.h"
#include "kernels/gemm.h"
#include "kernels/igemm.h"
#include "kernels/kernel_dispatch.h"
#include "runtime/check.h"
#include "runtime/rng.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"

namespace diva {
namespace {

using testing::random_tensor;

// Restores the startup-resolved tier when a per-tier test ends, so
// test order never leaks a forced tier into later tests.
class TierGuard {
 public:
  TierGuard() : orig_(active_isa_tier()) {}
  ~TierGuard() { force_isa_tier(orig_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  IsaTier orig_;
};

TEST(IsaDispatch, TierNamesRoundTripThroughParse) {
  const IsaTier all[] = {IsaTier::kScalar, IsaTier::kAvx2, IsaTier::kAvx512,
                         IsaTier::kAvx512Vnni};
  for (const IsaTier t : all) {
    IsaTier parsed = IsaTier::kScalar;
    ASSERT_TRUE(parse_isa_tier(isa_tier_name(t), &parsed)) << isa_tier_name(t);
    EXPECT_EQ(parsed, t);
  }
  IsaTier sentinel = IsaTier::kAvx512Vnni;
  EXPECT_FALSE(parse_isa_tier("bogus", &sentinel));
  EXPECT_FALSE(parse_isa_tier("", &sentinel));
  EXPECT_FALSE(parse_isa_tier("AVX2", &sentinel));  // names are lowercase
  EXPECT_EQ(sentinel, IsaTier::kAvx512Vnni);        // untouched on failure
}

TEST(IsaDispatch, AvailableTiersAreAscendingAndContainScalarAndActive) {
  const std::vector<IsaTier> tiers = available_isa_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), IsaTier::kScalar);
  for (std::size_t i = 1; i < tiers.size(); ++i) {
    EXPECT_LT(static_cast<int>(tiers[i - 1]), static_cast<int>(tiers[i]));
  }
  const IsaTier active = active_isa_tier();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), active), tiers.end());
  EXPECT_EQ(kernel_dispatch().tier, active);
  EXPECT_STREQ(kernel_dispatch().igemm.name, isa_tier_name(active));
}

TEST(IsaDispatch, CpuFeatureSummaryListsEachDetectedFlag) {
  const CpuFeatures& f = cpu_features();
  const std::string s = cpu_features_summary();
  EXPECT_EQ(s.find("avx2") != std::string::npos, f.avx2);
  EXPECT_EQ(s.find("fma") != std::string::npos, f.fma);
  EXPECT_EQ(s.find("avx512f") != std::string::npos, f.avx512f);
  EXPECT_EQ(s.find("avx512bw") != std::string::npos, f.avx512bw);
  EXPECT_EQ(s.find("avx512vl") != std::string::npos, f.avx512vl);
  EXPECT_EQ(s.find("avx512vnni") != std::string::npos, f.avx512vnni);
}

TEST(IsaDispatch, ForceRejectsUnavailableTiersAndAcceptsAvailableOnes) {
  TierGuard guard;
  const std::vector<IsaTier> tiers = available_isa_tiers();
  for (const IsaTier t : tiers) {
    force_isa_tier(t);
    EXPECT_EQ(active_isa_tier(), t);
    // Variant tile shapes must fit the drivers' stack accumulators.
    const KernelDispatch& d = kernel_dispatch();
    EXPECT_LE(d.sgemm.mr, kMaxSgemmMr);
    EXPECT_LE(d.sgemm.nr, kMaxSgemmNr);
    EXPECT_LE(d.igemm.mr, kMaxIgemmMr);
    EXPECT_LE(d.igemm.nr, kMaxIgemmNr);
  }
  const IsaTier all[] = {IsaTier::kScalar, IsaTier::kAvx2, IsaTier::kAvx512,
                         IsaTier::kAvx512Vnni};
  for (const IsaTier t : all) {
    if (std::find(tiers.begin(), tiers.end(), t) == tiers.end()) {
      EXPECT_THROW(force_isa_tier(t), Error) << isa_tier_name(t);
    }
  }
}

// ---------------------------------------------------------------------------
// igemm: every tier bit-identical to igemm_reference.
// ---------------------------------------------------------------------------

std::vector<std::int8_t> random_int8(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<std::int64_t>(rng.randint(256)) -
                                 128);
  }
  return v;
}

struct IgemmCase {
  std::int64_t m, n, k;
};

TEST(IsaDispatch, IgemmAllTiersBitIdenticalToReferenceAcrossFuzzShapes) {
  TierGuard guard;
  // Degenerate dims, odd K, widths just off the per-tier NR in
  // {16, 32} and MR=4 panels, and K straddling the kKc=512 block and
  // the k_unroll in {1, 2, 4} pad tails.
  const IgemmCase cases[] = {
      {1, 1, 1},    {1, 1, 7},     {1, 33, 513}, {4, 32, 8},  {5, 33, 7},
      {3, 31, 515}, {7, 1, 19},    {2, 130, 1},  {1, 64, 27}, {6, 96, 11},
      {4, 16, 514}, {12, 40, 129}, {33, 65, 17}, {9, 17, 63}, {8, 48, 256},
  };
  const std::vector<IsaTier> tiers = available_isa_tiers();
  int fuzz = 0;
  for (const IgemmCase& c : cases) {
    ++fuzz;
    // Over-wide leading dimensions so row strides are exercised too.
    const std::int64_t lda = c.k + (fuzz % 3);
    const std::int64_t ldb = c.n + (fuzz % 2) * 5;
    const std::int64_t ldo = c.n + (fuzz % 4);
    const auto a = random_int8(c.m * lda, 0xA0 + fuzz);
    const auto b = random_int8(c.k * ldb, 0xB0 + fuzz);

    Rng rng(0xC0 + fuzz);
    const auto b_zp =
        static_cast<std::int32_t>(static_cast<std::int64_t>(rng.randint(256)) -
                                  128);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(c.m));
    std::vector<std::int32_t> multiplier(static_cast<std::size_t>(c.m));
    std::vector<int> shift(static_cast<std::size_t>(c.m));
    for (std::int64_t i = 0; i < c.m; ++i) {
      bias[i] = static_cast<std::int32_t>(rng.randint(1 << 20)) - (1 << 19);
      multiplier[i] =
          (1 << 30) + static_cast<std::int32_t>(rng.randint(1u << 30));
      shift[i] = -static_cast<int>(rng.randint(9));
    }
    IgemmEpilogue ep;
    ep.bias = bias.data();
    ep.multiplier = multiplier.data();
    ep.shift = shift.data();
    ep.out_zp = static_cast<std::int32_t>(rng.randint(17)) - 8;
    if (fuzz % 3 == 0) {  // occasionally a tight activation clamp
      ep.act_min = -20;
      ep.act_max = 40;
    }

    std::vector<std::int8_t> want(static_cast<std::size_t>(c.m * ldo), 99);
    igemm_reference(c.m, c.n, c.k, a.data(), lda, b.data(), ldb, b_zp, ep,
                    want.data(), ldo);
    for (const IsaTier t : tiers) {
      force_isa_tier(t);
      std::vector<std::int8_t> got(static_cast<std::size_t>(c.m * ldo), 99);
      igemm(c.m, c.n, c.k, a.data(), lda, b.data(), ldb, b_zp, ep, got.data(),
            ldo);
      // Compare only in-row elements: the ldo gutter is unspecified.
      for (std::int64_t i = 0; i < c.m; ++i) {
        ASSERT_EQ(0, std::memcmp(got.data() + i * ldo, want.data() + i * ldo,
                                 static_cast<std::size_t>(c.n)))
            << "tier " << isa_tier_name(t) << " shape " << c.m << "x" << c.n
            << "x" << c.k << " row " << i;
      }
    }
  }
}

TEST(IsaDispatch, PrepackedWeightsRunBitIdenticalToReferenceAtEveryTier) {
  // The quantized executor's path: A is packed for every runnable tier
  // up front, then the tier is switched between products. Widths that
  // are whole 32-column strips with K a multiple of 4 take the VNNI
  // tier's SIMD B pack; the rest mix in its per-byte edge loop.
  TierGuard guard;
  const std::vector<IsaTier> tiers = available_isa_tiers();
  std::string covered;
  for (const IsaTier t : tiers) covered += std::string(" ") + isa_tier_name(t);
  std::printf("[ tiers    ] prepacked igemm covered:%s\n", covered.c_str());

  const IgemmCase cases[] = {{8, 64, 72},  {4, 32, 4},  {16, 96, 576},
                             {5, 33, 9},   {3, 160, 6}, {10, 64, 515},
                             {2, 31, 128}, {7, 1, 3}};
  int fuzz = 0;
  for (const IgemmCase& c : cases) {
    ++fuzz;
    const std::int64_t ldb = c.n + (fuzz % 2) * 3;
    const auto a = random_int8(c.m * c.k, 0x1A0 + fuzz);
    const auto b = random_int8(c.k * ldb, 0x1B0 + fuzz);
    Rng rng(0x1C0 + fuzz);
    const auto b_zp =
        static_cast<std::int32_t>(static_cast<std::int64_t>(rng.randint(256)) -
                                  128);
    std::vector<std::int32_t> bias(static_cast<std::size_t>(c.m));
    std::vector<std::int32_t> multiplier(static_cast<std::size_t>(c.m));
    std::vector<int> shift(static_cast<std::size_t>(c.m));
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = static_cast<std::int32_t>(rng.randint(1 << 20)) - (1 << 19);
      multiplier[i] =
          (1 << 30) + static_cast<std::int32_t>(rng.randint(1u << 30));
      shift[i] = -static_cast<int>(rng.randint(9));
    }
    IgemmEpilogue ep;
    ep.bias = bias.data();
    ep.multiplier = multiplier.data();
    ep.shift = shift.data();
    std::vector<std::int8_t> want(static_cast<std::size_t>(c.m * c.n));
    igemm_reference(c.m, c.n, c.k, a.data(), c.k, b.data(), ldb, b_zp, ep,
                    want.data(), c.n);

    std::vector<IgemmPackedA> packed;
    for (const IsaTier t : tiers) {
      packed.push_back(
          igemm_pack_a(t, c.m, c.k, a.data(), c.k, b_zp, bias.data()));
    }
    ep.bias = nullptr;  // folded into the packed rows' epilogue base
    for (std::size_t ti = 0; ti < tiers.size(); ++ti) {
      force_isa_tier(tiers[ti]);
      std::vector<std::int8_t> got(want.size(), 99);
      igemm_packed(packed[ti], c.n, b.data(), ldb, ep, got.data(), c.n);
      EXPECT_EQ(got, want) << "tier " << isa_tier_name(tiers[ti]) << " shape "
                           << c.m << "x" << c.n << "x" << c.k;
      // Weights packed for another tier are refused, not misread.
      const std::size_t other = (ti + 1) % tiers.size();
      if (other != ti) {
        EXPECT_THROW(igemm_packed(packed[other], c.n, b.data(), ldb, ep,
                                  got.data(), c.n),
                     Error);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// requant epilogue: every tier bit-identical to the scalar
// fixedpoint.h chain, including the SRDHM saturation and rounding
// edge cases and every SIMD tail length.
// ---------------------------------------------------------------------------

TEST(IsaDispatch, RequantAllTiersBitIdenticalToScalarAcrossFuzzInputs) {
  TierGuard guard;
  const std::vector<IsaTier> tiers = available_isa_tiers();
  // Lengths straddle the 8-lane (AVX2) and 16-lane (AVX-512) widths
  // plus every tail residue; 1 and 7 are pure-tail rows.
  const std::int64_t lens[] = {1, 7, 8, 9, 15, 16, 17, 31, 33, 64, 257};
  int fuzz = 0;
  for (const std::int64_t n : lens) {
    ++fuzz;
    Rng rng(0xE0 + fuzz);
    std::vector<std::int32_t> raw(static_cast<std::size_t>(n));
    for (auto& x : raw) {
      // |raw| <= 2^30, so base + raw stays inside int32 for the small
      // bases below (the scalar path adds them in 32-bit).
      x = static_cast<std::int32_t>(rng.randint(1u << 31)) - (1 << 30);
    }
    // Rounding-half boundaries and zero, placed at lane 0 and mid-lane.
    raw[0] = 1 << 29;
    if (n > 2) raw[2] = -(1 << 29);
    if (n > 5) raw[5] = 0;
    struct Cfg {
      std::int32_t base, mult;
      int shift;
    };
    const Cfg cfgs[] = {
        // Realistic TFLite range: mult in [2^30, 2^31), right shifts.
        {static_cast<std::int32_t>(rng.randint(1 << 20)) - (1 << 19),
         (1 << 30) + static_cast<std::int32_t>(rng.randint(1u << 30)),
         -static_cast<int>(rng.randint(9))},
        // Left shift branch (shift > 0) with 32-bit wraparound.
        {0, (1 << 30) + 12345, 4},
        // Deep right shift: exponent 30 is the largest UB-free one.
        {7, std::numeric_limits<std::int32_t>::max(), -30},
        // Negative multiplier flips every product's sign/nudge path.
        {-3, -(1 << 30) - 999, -5},
        // SRDHM saturation arm: INT32_MIN * INT32_MIN -> INT32_MAX
        // (raw[0] is overwritten below for this case).
        {0, std::numeric_limits<std::int32_t>::min(), -2},
    };
    int ci = 0;
    for (const Cfg& cfg : cfgs) {
      ++ci;
      std::vector<std::int32_t> vals = raw;
      if (cfg.mult == std::numeric_limits<std::int32_t>::min()) {
        vals[0] = std::numeric_limits<std::int32_t>::min();
      }
      const std::int32_t out_zp =
          static_cast<std::int32_t>(rng.randint(17)) - 8;
      const std::int32_t act_min = ci % 2 == 0 ? -20 : -128;
      const std::int32_t act_max = ci % 2 == 0 ? 40 : 127;
      std::vector<std::int8_t> want(static_cast<std::size_t>(n));
      for (std::int64_t j = 0; j < n; ++j) {
        const std::int32_t scaled = multiply_by_quantized_multiplier(
            cfg.base + vals[static_cast<std::size_t>(j)], cfg.mult,
            cfg.shift);
        want[static_cast<std::size_t>(j)] = static_cast<std::int8_t>(
            std::clamp(scaled + out_zp, act_min, act_max));
      }
      for (const IsaTier t : tiers) {
        force_isa_tier(t);
        std::vector<std::int8_t> got(static_cast<std::size_t>(n), 99);
        kernel_dispatch().requant.row(vals.data(), n, cfg.base, cfg.mult,
                                      cfg.shift, out_zp, act_min, act_max,
                                      got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 static_cast<std::size_t>(n)))
            << "tier " << isa_tier_name(t) << " ("
            << kernel_dispatch().requant.name << ") n=" << n
            << " cfg=" << ci;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// sgemm: tolerance parity across tiers, bit-determinism within a tier.
// ---------------------------------------------------------------------------

TEST(IsaDispatch, SgemmTiersMatchReferenceToToleranceAndAreDeterministic) {
  TierGuard guard;
  const std::int64_t shapes[][3] = {
      {1, 1, 5}, {5, 33, 7}, {33, 65, 17}, {64, 64, 288}, {70, 130, 260},
  };
  const std::vector<IsaTier> tiers = available_isa_tiers();
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const Tensor a = random_tensor(Shape{m, k}, 31 * m + n);
    const Tensor b = random_tensor(Shape{k, n}, 37 * n + k);
    const Tensor want = matmul_reference(a, b);
    for (const IsaTier t : tiers) {
      force_isa_tier(t);
      Tensor got(Shape{m, n});
      sgemm(m, n, k, a.raw(), k, false, b.raw(), n, false, got.raw(), n, {});
      for (std::int64_t i = 0; i < got.numel(); ++i) {
        ASSERT_NEAR(got[i], want[i], 1e-4f)
            << "tier " << isa_tier_name(t) << " flat index " << i;
      }
      // Same tier, same inputs: bit-identical (per-tier determinism).
      Tensor again(Shape{m, n});
      sgemm(m, n, k, a.raw(), k, false, b.raw(), n, false, again.raw(), n,
            {});
      ASSERT_EQ(0, std::memcmp(got.raw(), again.raw(),
                               static_cast<std::size_t>(got.numel()) *
                                   sizeof(float)))
          << "tier " << isa_tier_name(t) << " not deterministic";
    }
  }
}

}  // namespace
}  // namespace diva
