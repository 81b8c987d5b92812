// Kernel-runtime tests: the blocked sgemm pinned against the naive
// matmul reference, the igemm-backed int8 kernels pinned bit-exactly
// against the retained scalar references, workspace arena behavior, and
// batched gradchecks for the GEMM-backed Conv2d/Dense backward.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/igemm.h"
#include "kernels/im2col.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/workspace.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/init.h"
#include "quant/int8_kernels.h"
#include "test_helpers.h"

namespace diva {
namespace {

using testing::check_gradients;
using testing::random_tensor;

// ---------------------------------------------------------------------------
// sgemm vs the naive reference.
// ---------------------------------------------------------------------------

void expect_close(const Tensor& got, const Tensor& want, float tol,
                  const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << what << " at flat index " << i;
  }
}

TEST(Sgemm, MatchesNaiveReferenceAcrossShapes) {
  // Shapes straddle the small-problem cutoff, the MR/NR tile edges, and
  // the KC/MC/NC block boundaries.
  const std::int64_t shapes[][3] = {
      {1, 1, 1},    {3, 5, 2},     {4, 32, 8},    {5, 33, 7},
      {16, 1024, 27}, {33, 65, 17}, {64, 64, 288}, {70, 130, 260},
      {128, 31, 515},
  };
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const Tensor a = random_tensor(Shape{m, k}, 7 * m + n);
    const Tensor b = random_tensor(Shape{k, n}, 13 * n + k);
    const Tensor want = matmul_reference(a, b);
    Tensor got(Shape{m, n});
    sgemm(m, n, k, a.raw(), k, false, b.raw(), n, false, got.raw(), n, {});
    // Accumulation order differs from the reference, so exact equality
    // is not guaranteed — 1e-4 absolute on O(1) inputs is ample.
    expect_close(got, want, 1e-4f, "sgemm");
  }
}

TEST(Sgemm, DegenerateAndTailShapesMatchReference) {
  // Microkernel tail paths: single-row/column/depth problems, odd K,
  // and N just off the NR=32 panel and MR=4 tile boundaries.
  const std::int64_t shapes[][3] = {
      {1, 1, 1},   {1, 1, 7},   {1, 9, 1},    {7, 1, 1},    {1, 32, 5},
      {1, 33, 17}, {4, 1, 129}, {2, 130, 1},  {1, 1, 515},  {3, 31, 3},
      {5, 63, 9},  {6, 96, 11}, {31, 1, 255}, {1, 257, 64},
  };
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    const Tensor a = random_tensor(Shape{m, k}, 1000 + 7 * m + n);
    const Tensor b = random_tensor(Shape{k, n}, 2000 + 13 * n + k);
    Tensor got(Shape{m, n});
    sgemm(m, n, k, a.raw(), k, false, b.raw(), n, false, got.raw(), n, {});
    expect_close(got, matmul_reference(a, b), 1e-4f, "sgemm tail");

    // The same degenerate shape through both packing transposes.
    const Tensor at = transpose2d(a);
    const Tensor bt = transpose2d(b);
    got.fill(0.0f);
    sgemm(m, n, k, at.raw(), m, true, bt.raw(), k, true, got.raw(), n, {});
    expect_close(got, matmul_reference(a, b), 1e-4f, "sgemm tail transposed");
  }
}

TEST(Sgemm, TransposedOperandsMatchMaterializedTranspose) {
  const std::int64_t m = 37, n = 41, k = 23;
  const Tensor a = random_tensor(Shape{m, k}, 1);
  const Tensor b = random_tensor(Shape{k, n}, 2);
  const Tensor want = matmul_reference(a, b);
  const Tensor at = transpose2d(a);  // stored [k, m]
  const Tensor bt = transpose2d(b);  // stored [n, k]

  Tensor got(Shape{m, n});
  sgemm(m, n, k, at.raw(), m, true, b.raw(), n, false, got.raw(), n, {});
  expect_close(got, want, 1e-4f, "sgemm trans_a");

  got.fill(0.0f);
  sgemm(m, n, k, a.raw(), k, false, bt.raw(), k, true, got.raw(), n, {});
  expect_close(got, want, 1e-4f, "sgemm trans_b");

  got.fill(0.0f);
  sgemm(m, n, k, at.raw(), m, true, bt.raw(), k, true, got.raw(), n, {});
  expect_close(got, want, 1e-4f, "sgemm trans_a trans_b");
}

TEST(Sgemm, AccumulateAndBiasEpilogues) {
  const std::int64_t m = 19, n = 35, k = 29;
  const Tensor a = random_tensor(Shape{m, k}, 3);
  const Tensor b = random_tensor(Shape{k, n}, 4);
  const Tensor c0 = random_tensor(Shape{m, n}, 5);
  const Tensor prod = matmul_reference(a, b);

  // beta = 1 accumulates into existing C.
  Tensor got = c0;
  sgemm(m, n, k, a.raw(), k, false, b.raw(), n, false, got.raw(), n,
        {.beta = 1.0f});
  Tensor want = add(c0, prod);
  expect_close(got, want, 1e-4f, "sgemm beta=1");

  // Row bias adds bias[i] to every element of row i.
  const Tensor row_bias = random_tensor(Shape{m}, 6);
  got = Tensor(Shape{m, n});
  sgemm(m, n, k, a.raw(), k, false, b.raw(), n, false, got.raw(), n,
        {.bias_row = row_bias.raw()});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      ASSERT_NEAR(got.at(i, j), prod.at(i, j) + row_bias[i], 1e-4f);
    }
  }

  // Column bias adds bias[j] to every element of column j.
  const Tensor col_bias = random_tensor(Shape{n}, 7);
  got = Tensor(Shape{m, n});
  sgemm(m, n, k, a.raw(), k, false, b.raw(), n, false, got.raw(), n,
        {.bias_col = col_bias.raw()});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      ASSERT_NEAR(got.at(i, j), prod.at(i, j) + col_bias[j], 1e-4f);
    }
  }
}

TEST(Sgemm, MatmulEntryPointsAgreeWithReference) {
  const Tensor a = random_tensor(Shape{45, 120}, 8);
  const Tensor b = random_tensor(Shape{120, 33}, 9);
  expect_close(matmul(a, b), matmul_reference(a, b), 1e-4f, "matmul");

  Tensor acc = random_tensor(Shape{45, 33}, 10);
  const Tensor want = add(acc, matmul_reference(a, b));
  matmul_acc(a, b, acc);
  expect_close(acc, want, 1e-4f, "matmul_acc");
}

// ---------------------------------------------------------------------------
// igemm-backed int8 kernels vs the scalar references (bit-exact).
// ---------------------------------------------------------------------------

std::vector<std::int8_t> random_int8(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<std::int8_t>(
        std::lround(rng.uniform(-128.0f, 127.0f)));
  }
  return v;
}

// ---------------------------------------------------------------------------
// im2col / col2im vs naive per-tap loops over every small geometry.
// ---------------------------------------------------------------------------

/// Patch-matrix index of tap (c, kh, kw) at output (y, x).
std::size_t patch_index(const ConvGeom& g, std::int64_t c, std::int64_t kh,
                        std::int64_t kw, std::int64_t y, std::int64_t x) {
  const std::int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
  return static_cast<std::size_t>((row * g.out_h() + y) * g.out_w() + x);
}

/// Calls fn(patch_index, image_index or -1 for a padded tap) per tap.
template <typename Fn>
void for_each_tap(const ConvGeom& g, Fn fn) {
  for (std::int64_t c = 0; c < g.in_c; ++c)
    for (std::int64_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::int64_t kw = 0; kw < g.kernel_w; ++kw)
        for (std::int64_t y = 0; y < g.out_h(); ++y)
          for (std::int64_t x = 0; x < g.out_w(); ++x) {
            const std::int64_t iy = y * g.stride - g.pad + kh;
            const std::int64_t ix = x * g.stride - g.pad + kw;
            const bool inside =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            fn(patch_index(g, c, kh, kw, y, x),
               inside ? (c * g.in_h + iy) * g.in_w + ix : -1);
          }
}

template <typename T>
std::vector<T> naive_im2col(const std::vector<T>& image, const ConvGeom& g,
                            T pad) {
  std::vector<T> cols(static_cast<std::size_t>(
      g.in_c * g.kernel_h * g.kernel_w * g.out_h() * g.out_w()));
  for_each_tap(g, [&](std::size_t p, std::int64_t i) {
    cols[p] = i < 0 ? pad : image[static_cast<std::size_t>(i)];
  });
  return cols;
}

std::vector<float> float_vector(std::int64_t n, std::uint64_t seed) {
  const Tensor t = random_tensor(Shape{n}, seed);
  return {t.raw(), t.raw() + n};
}

/// Every geometry with kernel 1-5 (each side), stride 1-3, pad 0-3 and
/// input 1-9 (each side) that yields at least one output. Covers pad >=
/// input, stride > kernel and single-column outputs.
std::vector<ConvGeom> small_conv_geoms() {
  std::vector<ConvGeom> geoms;
  for (std::int64_t kh = 1; kh <= 5; ++kh)
    for (std::int64_t kw = 1; kw <= 5; ++kw)
      for (std::int64_t stride = 1; stride <= 3; ++stride)
        for (std::int64_t pad = 0; pad <= 3; ++pad)
          for (std::int64_t h = 1; h <= 9; ++h)
            for (std::int64_t w = 1; w <= 9; ++w) {
              const ConvGeom g{2, h, w, kh, kw, stride, pad};
              if (h + 2 * pad >= kh && w + 2 * pad >= kw) geoms.push_back(g);
            }
  return geoms;
}

TEST(Im2col, SweepMatchesNaivePerTapReference) {
  std::uint64_t seed = 0;
  for (const ConvGeom& g : small_conv_geoms()) {
    const std::int64_t in_n = g.in_c * g.in_h * g.in_w;
    const auto img8 = random_int8(in_n, ++seed);
    const auto zp =
        static_cast<std::int8_t>(static_cast<int>(seed % 256) - 128);
    const auto want8 = naive_im2col(img8, g, zp);
    // Sentinel-filled, exactly sized: a missed or stray write shows up
    // as a mismatch, an overrun as an ASan report.
    std::vector<std::int8_t> got8(want8.size(), static_cast<std::int8_t>(~zp));
    im2col<std::int8_t>(img8.data(), g, zp, got8.data());
    ASSERT_EQ(got8, want8) << "int8 c" << g.in_c << " " << g.in_h << "x"
                           << g.in_w << " k" << g.kernel_h << "x"
                           << g.kernel_w << " s" << g.stride << " p" << g.pad;

    const auto imgf = float_vector(in_n, seed);
    const auto wantf = naive_im2col(imgf, g, 0.0f);
    std::vector<float> gotf(wantf.size(), -7.0f);
    im2col<float>(imgf.data(), g, 0.0f, gotf.data());
    ASSERT_EQ(gotf, wantf) << "float " << g.in_h << "x" << g.in_w << " k"
                           << g.kernel_h << "x" << g.kernel_w << " s"
                           << g.stride << " p" << g.pad;
  }
}

TEST(Col2im, SweepBitIdenticalToNaiveAccumulate) {
  // Overlapping windows add several taps into one pixel, so any change
  // in summation order would show up in the low bits.
  std::uint64_t seed = 50000;
  for (const ConvGeom& g : small_conv_geoms()) {
    const auto cols = float_vector(
        g.in_c * g.kernel_h * g.kernel_w * g.out_h() * g.out_w(), ++seed);
    const auto base = float_vector(g.in_c * g.in_h * g.in_w, ++seed);
    std::vector<float> want = base;
    for_each_tap(g, [&](std::size_t p, std::int64_t i) {
      if (i >= 0) want[static_cast<std::size_t>(i)] += cols[p];
    });
    std::vector<float> got = base;
    col2im(cols.data(), g, got.data());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << g.in_h << "x" << g.in_w << " k" << g.kernel_h << "x" << g.kernel_w
        << " s" << g.stride << " p" << g.pad;
  }
}

RequantChannel random_requant(std::int64_t channels, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w_scales(static_cast<std::size_t>(channels));
  for (auto& s : w_scales) s = rng.uniform(0.001f, 0.05f);
  return make_requant(rng.uniform(0.005f, 0.05f), w_scales,
                      rng.uniform(0.05f, 0.3f));
}

std::vector<std::int32_t> random_bias(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = static_cast<std::int32_t>(std::lround(rng.uniform(-4000.f, 4000.f)));
  }
  return v;
}

TEST(Igemm, QconvBitExactVsScalarReference) {
  struct Case {
    ConvGeom g;
    std::int64_t out_c;
  };
  const Case cases[] = {
      {{1, 5, 5, 1, 1, 1, 0}, 1},   {{3, 8, 8, 3, 3, 1, 1}, 16},
      {{8, 9, 7, 3, 3, 2, 1}, 5},   {{4, 16, 16, 5, 5, 1, 2}, 17},
      {{2, 6, 6, 3, 3, 3, 0}, 33},
  };
  int idx = 0;
  for (const auto& c : cases) {
    ++idx;
    const std::int64_t k2 = c.g.in_c * c.g.kernel_h * c.g.kernel_w;
    const std::int64_t ohw = c.g.out_h() * c.g.out_w();
    const auto in = random_int8(c.g.in_c * c.g.in_h * c.g.in_w, 100u + idx);
    const auto w = random_int8(c.out_c * k2, 200u + idx);
    const auto bias = random_bias(c.out_c, 300u + idx);
    const RequantChannel rq = random_requant(c.out_c, 400u + idx);
    const std::int32_t in_zp = -3 + idx, out_zp = 5 - idx;

    std::vector<std::int8_t> got(static_cast<std::size_t>(c.out_c * ohw));
    std::vector<std::int8_t> want(got.size());
    qconv2d(in.data(), c.g, in_zp, w.data(), c.out_c, bias.data(), rq, out_zp,
            kQmin, kQmax, got.data());
    qconv2d_reference(in.data(), c.g, in_zp, w.data(), c.out_c, bias.data(),
                      rq, out_zp, kQmin, kQmax, want.data());
    EXPECT_EQ(got, want) << "qconv2d case " << idx;
  }
}

TEST(Igemm, QdepthwiseBitExactVsScalarReference) {
  const ConvGeom geoms[] = {
      {4, 8, 8, 3, 3, 1, 1}, {7, 9, 9, 3, 3, 2, 1}, {16, 5, 5, 5, 5, 1, 2}};
  int idx = 0;
  for (const auto& g : geoms) {
    ++idx;
    const std::int64_t k2 = g.kernel_h * g.kernel_w;
    const std::int64_t ohw = g.out_h() * g.out_w();
    const auto in = random_int8(g.in_c * g.in_h * g.in_w, 500u + idx);
    const auto w = random_int8(g.in_c * k2, 600u + idx);
    const auto bias = random_bias(g.in_c, 700u + idx);
    const RequantChannel rq = random_requant(g.in_c, 800u + idx);

    std::vector<std::int8_t> got(static_cast<std::size_t>(g.in_c * ohw));
    std::vector<std::int8_t> want(got.size());
    qdepthwise_conv2d(in.data(), g, 2, w.data(), bias.data(), rq, -4, kQmin,
                      kQmax, got.data());
    qdepthwise_conv2d_reference(in.data(), g, 2, w.data(), bias.data(), rq,
                                -4, kQmin, kQmax, want.data());
    EXPECT_EQ(got, want) << "qdepthwise case " << idx;
  }
}

TEST(Igemm, QdenseAndBatchedBitExactVsScalarReference) {
  const std::int64_t in_f = 190, out_f = 33, n = 9;
  const auto w = random_int8(out_f * in_f, 900);
  const auto bias = random_bias(out_f, 901);
  const RequantChannel rq = random_requant(out_f, 902);
  const auto in = random_int8(n * in_f, 903);
  const std::int32_t in_zp = -7, out_zp = 11;

  std::vector<std::int8_t> want(static_cast<std::size_t>(n * out_f));
  for (std::int64_t i = 0; i < n; ++i) {
    qdense_reference(in.data() + i * in_f, in_f, in_zp, w.data(), out_f,
                     bias.data(), rq, out_zp, kQmin, kQmax,
                     want.data() + i * out_f);
  }

  // Single-row GEMM path.
  std::vector<std::int8_t> got_single(want.size());
  for (std::int64_t i = 0; i < n; ++i) {
    qdense(in.data() + i * in_f, in_f, in_zp, w.data(), out_f, bias.data(),
           rq, out_zp, kQmin, kQmax, got_single.data() + i * out_f);
  }
  EXPECT_EQ(got_single, want);

  // Whole-batch GEMM path.
  std::vector<std::int8_t> got_batched(want.size());
  qdense_batched(in.data(), n, in_f, in_zp, w.data(), out_f, bias.data(), rq,
                 out_zp, kQmin, kQmax, got_batched.data());
  EXPECT_EQ(got_batched, want);
}

TEST(Igemm, DegenerateAndTailShapesBitExactVsScalarReference) {
  // igemm tail paths through the qdense entry points: M (out_f), N
  // (batch), and K (in_f) each driven to 1, odd K, and widths just off
  // the packing-panel boundaries.
  const std::int64_t shapes[][3] = {
      // {out_f, in_f, batch}
      {1, 1, 1},  {1, 7, 3},  {9, 1, 2},   {1, 129, 1}, {33, 3, 1},
      {5, 31, 4}, {2, 257, 2}, {65, 17, 5}, {3, 96, 7},
  };
  int idx = 0;
  for (const auto& s : shapes) {
    ++idx;
    const std::int64_t out_f = s[0], in_f = s[1], n = s[2];
    const auto w = random_int8(out_f * in_f, 1100u + idx);
    const auto bias = random_bias(out_f, 1200u + idx);
    const RequantChannel rq = random_requant(out_f, 1300u + idx);
    const auto in = random_int8(n * in_f, 1400u + idx);
    const std::int32_t in_zp = idx - 5, out_zp = 3 - idx;

    std::vector<std::int8_t> want(static_cast<std::size_t>(n * out_f));
    for (std::int64_t i = 0; i < n; ++i) {
      qdense_reference(in.data() + i * in_f, in_f, in_zp, w.data(), out_f,
                       bias.data(), rq, out_zp, kQmin, kQmax,
                       want.data() + i * out_f);
    }
    std::vector<std::int8_t> got(want.size());
    qdense_batched(in.data(), n, in_f, in_zp, w.data(), out_f, bias.data(),
                   rq, out_zp, kQmin, kQmax, got.data());
    EXPECT_EQ(got, want) << "qdense_batched shape case " << idx;
  }
}

TEST(Igemm, QconvSinglePixelAndSingleChannelTails) {
  // Conv geometries whose im2col panels degenerate to K=1 / N=1 GEMMs.
  struct Case {
    ConvGeom g;
    std::int64_t out_c;
  };
  const Case cases[] = {
      {{1, 1, 1, 1, 1, 1, 0}, 1},   // 1x1 image, 1x1 kernel: M=N=K=1
      {{1, 3, 3, 3, 3, 1, 0}, 1},   // single output pixel, odd K=9
      {{5, 1, 1, 1, 1, 1, 0}, 33},  // channel-only contraction, M=33 tail
      {{2, 4, 1, 3, 1, 1, 1}, 3},   // width-1 input, asymmetric kernel
  };
  int idx = 100;
  for (const auto& c : cases) {
    ++idx;
    const std::int64_t ohw = c.g.out_h() * c.g.out_w();
    const auto in = random_int8(c.g.in_c * c.g.in_h * c.g.in_w, 10u + idx);
    const auto w =
        random_int8(c.out_c * c.g.in_c * c.g.kernel_h * c.g.kernel_w,
                    20u + idx);
    const auto bias = random_bias(c.out_c, 30u + idx);
    const RequantChannel rq = random_requant(c.out_c, 40u + idx);

    std::vector<std::int8_t> got(static_cast<std::size_t>(c.out_c * ohw));
    std::vector<std::int8_t> want(got.size());
    qconv2d(in.data(), c.g, 1, w.data(), c.out_c, bias.data(), rq, -2, kQmin,
            kQmax, got.data());
    qconv2d_reference(in.data(), c.g, 1, w.data(), c.out_c, bias.data(), rq,
                      -2, kQmin, kQmax, want.data());
    EXPECT_EQ(got, want) << "qconv2d tail case " << idx;
  }
}

TEST(Igemm, ActivationClampIsHonored) {
  const std::int64_t in_f = 64, out_f = 8;
  const auto w = random_int8(out_f * in_f, 950);
  const auto in = random_int8(in_f, 951);
  const RequantChannel rq = random_requant(out_f, 952);
  std::vector<std::int8_t> out(static_cast<std::size_t>(out_f));
  qdense(in.data(), in_f, 0, w.data(), out_f, nullptr, rq, 3, 3, 40,
         out.data());
  for (const std::int8_t v : out) {
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 40);
  }
}

// ---------------------------------------------------------------------------
// Elementwise / pooling quantized op catalog: bit-exact pins.
// ---------------------------------------------------------------------------

/// Restores the startup-resolved ISA tier when a per-tier test ends.
class TierGuard {
 public:
  TierGuard() : orig_(active_isa_tier()) {}
  ~TierGuard() { force_isa_tier(orig_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  IsaTier orig_;
};

QuantParams random_qparams(std::uint64_t seed) {
  Rng rng(seed);
  return {rng.uniform(0.005f, 0.08f),
          static_cast<std::int32_t>(std::lround(rng.uniform(-30.f, 30.f)))};
}

TEST(QuantOps, QlutBitExactVsFloatReferenceAtEveryIsaTier) {
  // Every representable int8 input once (exhaustive: the table has no
  // untested entries), then a fuzz buffer, for each activation kind and
  // each runnable tier. The reference recomputes per element through
  // float math, so this pins table construction AND application.
  std::vector<std::int8_t> exhaustive(256);
  for (int q = kQmin; q <= kQmax; ++q) {
    exhaustive[static_cast<std::size_t>(q - kQmin)] =
        static_cast<std::int8_t>(q);
  }
  const LutKind kinds[] = {LutKind::kSigmoid, LutKind::kHardSigmoid,
                           LutKind::kLeakyRelu};
  TierGuard guard;
  for (const IsaTier tier : available_isa_tiers()) {
    force_isa_tier(tier);
    int idx = 0;
    for (const LutKind kind : kinds) {
      ++idx;
      const QuantParams qp_in = random_qparams(3000u + idx);
      const QuantParams qp_out = kind == LutKind::kLeakyRelu
                                     ? random_qparams(3100u + idx)
                                     : QuantParams{1.0f / 256.0f, -128};
      const float slope = 0.1f;
      const auto lut = build_activation_lut(kind, qp_in, qp_out, slope);
      ASSERT_EQ(lut.size(), 256u);

      for (const std::int64_t n : {std::int64_t{256}, std::int64_t{1000}}) {
        const std::vector<std::int8_t> in =
            n == 256 ? exhaustive : random_int8(n, 3200u + idx);
        std::vector<std::int8_t> got(in.size()), want(in.size());
        qlut({in.data(), in.size()}, {lut.data(), lut.size()},
             {got.data(), got.size()});
        qlut_reference({in.data(), in.size()}, kind, qp_in, qp_out, slope,
                       {want.data(), want.size()});
        EXPECT_EQ(got, want) << "qlut kind " << idx << " n=" << n << " tier "
                             << isa_tier_name(tier);
      }
    }
  }
}

TEST(QuantOps, QaddDoubleRescaleStaysWithinOneLsbOfFloatMath) {
  // qadd's TFLite double-rescale (shift-by-20 then fixed-point
  // multiply) must agree with exact float addition to one output LSB
  // for every operand combination — fuzzed over mismatched input grids.
  for (int round = 0; round < 4; ++round) {
    const QuantParams qp_a = random_qparams(4000u + round);
    const QuantParams qp_b = random_qparams(4100u + round);
    const QuantParams qp_out = random_qparams(4200u + round);
    const auto a = random_int8(512, 4300u + round);
    const auto b = random_int8(512, 4400u + round);
    std::vector<std::int8_t> out(a.size());
    qadd({a.data(), a.size()}, qp_a, {b.data(), b.size()}, qp_b, qp_out,
         kQmin, kQmax, {out.data(), out.size()});
    for (std::size_t i = 0; i < out.size(); ++i) {
      const float real = qp_a.dequantize(a[i]) + qp_b.dequantize(b[i]);
      const std::int8_t want = qp_out.quantize(real);
      ASSERT_NEAR(static_cast<int>(out[i]), static_cast<int>(want), 1)
          << "qadd round " << round << " element " << i;
    }
  }
}

// Every int8 value once, ascending.
std::vector<std::int8_t> all_int8() {
  std::vector<std::int8_t> v;
  for (int q = kQmin; q <= kQmax; ++q) v.push_back(static_cast<std::int8_t>(q));
  return v;
}

TEST(QuantOps, QaddTableBitExactVsReferenceOverAllPairs) {
  struct Case {
    QuantParams a, b, out;
    std::int32_t act_min, act_max;
  };
  const Case cases[] = {
      // Extreme zero points, ratios 0.67 and 1.67.
      {{0.02f, -128}, {0.05f, 127}, {0.03f, 0}, kQmin, kQmax},
      // Ratios 10 and 0.4 with a narrowed clamp.
      {{0.1f, 5}, {0.004f, -3}, {0.01f, -7}, -20, 90},
      // All three grids equal.
      {{0.05f, 12}, {0.05f, 12}, {0.05f, 12}, kQmin, kQmax},
      // Ratio far below 1 and far above 1, ReLU-style clamp.
      {{0.003f, 127}, {0.2f, -128}, {0.05f, 127}, 0, kQmax},
  };
  const auto values = all_int8();
  std::vector<std::int8_t> a, b;
  for (const std::int8_t x : values)
    for (const std::int8_t y : values) {
      a.push_back(x);
      b.push_back(y);
    }
  int idx = 0;
  for (const Case& c : cases) {
    std::vector<std::int8_t> got(a.size()), want(a.size());
    qadd(a, c.a, b, c.b, c.out, c.act_min, c.act_max, got);
    qadd_reference(a, c.a, b, c.b, c.out, c.act_min, c.act_max, want);
    EXPECT_EQ(got, want) << "qadd case " << idx++;
  }
}

TEST(QuantOps, QrequantizeTableBitExactVsReferenceOverAllInputs) {
  const std::pair<QuantParams, QuantParams> cases[] = {
      {{0.02f, -128}, {0.05f, 127}},   // ratio 0.4
      {{0.05f, 127}, {0.02f, -128}},   // ratio 2.5
      {{0.1f, 3}, {0.1f, 3}},          // identical grids
      {{0.003f, 0}, {0.3f, -128}},     // ratio 0.01
      {{0.7f, -5}, {0.01f, 9}},        // ratio 70, saturates both ends
  };
  const auto in = all_int8();
  int idx = 0;
  for (const auto& [from, to] : cases) {
    std::vector<std::int8_t> got(in.size()), want(in.size());
    qrequantize(in, from, to, got);
    qrequantize_reference(in, from, to, want);
    EXPECT_EQ(got, want) << "qrequantize case " << idx++;
  }
}

TEST(QuantOps, ElementwiseOpsBitIdenticalAcrossIsaTiers) {
  // qadd / qavgpool2d / qglobal_avgpool / qlut are part of the executor
  // op catalog: whatever tier dispatch resolves, their output bytes
  // must match the scalar tier's. (They are scalar today, so this pins
  // the policy any future vectorization must keep.)
  const ConvGeom pool_g{6, 12, 12, 2, 2, 2, 0};
  const auto in = random_int8(pool_g.in_c * pool_g.in_h * pool_g.in_w, 5000);
  const auto b = random_int8(in.size(), 5001);
  const QuantParams qp_a = random_qparams(5002);
  const QuantParams qp_b = random_qparams(5003);
  const QuantParams qp_out = random_qparams(5004);
  const auto lut =
      build_activation_lut(LutKind::kSigmoid, qp_a, {1.0f / 256.0f, -128});
  const std::int64_t pooled =
      pool_g.in_c * pool_g.out_h() * pool_g.out_w();

  struct Baselines {
    std::vector<std::int8_t> add, avg, gavg, lut;
  };
  const auto run_all = [&](Baselines* r) {
    r->add.resize(in.size());
    qadd({in.data(), in.size()}, qp_a, {b.data(), b.size()}, qp_b, qp_out,
         kQmin, kQmax, {r->add.data(), r->add.size()});
    r->avg.resize(static_cast<std::size_t>(pooled));
    qavgpool2d(in.data(), pool_g, r->avg.data());
    r->gavg.resize(static_cast<std::size_t>(pool_g.in_c));
    qglobal_avgpool(in.data(), pool_g.in_c, pool_g.in_h * pool_g.in_w,
                    r->gavg.data());
    r->lut.resize(in.size());
    qlut({in.data(), in.size()}, {lut.data(), lut.size()},
         {r->lut.data(), r->lut.size()});
  };

  TierGuard guard;
  force_isa_tier(IsaTier::kScalar);
  Baselines scalar;
  run_all(&scalar);
  for (const IsaTier tier : available_isa_tiers()) {
    force_isa_tier(tier);
    Baselines got;
    run_all(&got);
    EXPECT_EQ(got.add, scalar.add) << isa_tier_name(tier);
    EXPECT_EQ(got.avg, scalar.avg) << isa_tier_name(tier);
    EXPECT_EQ(got.gavg, scalar.gavg) << isa_tier_name(tier);
    EXPECT_EQ(got.lut, scalar.lut) << isa_tier_name(tier);
  }
}

// ---------------------------------------------------------------------------
// Workspace arena.
// ---------------------------------------------------------------------------

TEST(QuantOps, RangeBasedPoolsBitIdenticalToPerTapReferenceSweep) {
  // Kernel 1-5 x stride 1-3 x input 1-9 per side, max pool also over
  // pad 0-2 (windows wholly inside the padding included); every
  // geometry whose window fits the padded input.
  std::uint64_t seed = 7000;
  int geometries = 0;
  for (std::int64_t k = 1; k <= 5; ++k) {
    for (std::int64_t s = 1; s <= 3; ++s) {
      for (std::int64_t pad = 0; pad <= 2; ++pad) {
        for (std::int64_t h = 1; h <= 9; ++h) {
          for (std::int64_t w = 1; w <= 9; ++w) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            const ConvGeom g{2, h, w, k, k, s, pad};
            ++geometries;
            const auto in = random_int8(g.in_c * h * w, ++seed);
            const auto out_n =
                static_cast<std::size_t>(g.in_c * g.out_h() * g.out_w());
            std::vector<std::int8_t> got(out_n, 99), want(out_n, 98);
            qmaxpool2d(in.data(), g, got.data());
            qmaxpool2d_reference(in.data(), g, want.data());
            ASSERT_EQ(got, want) << "max k" << k << " s" << s << " p" << pad
                                 << " " << h << "x" << w;
            if (pad != 0) continue;
            std::fill(got.begin(), got.end(), 99);
            std::fill(want.begin(), want.end(), 98);
            qavgpool2d(in.data(), g, got.data());
            qavgpool2d_reference(in.data(), g, want.data());
            ASSERT_EQ(got, want) << "avg k" << k << " s" << s << " " << h
                                 << "x" << w;
          }
        }
      }
    }
  }
  EXPECT_GT(geometries, 1000);
}

TEST(QuantOps, RoundingDividerExactOverEveryWindowSum) {
  // Every sum of d int8 values, every window size 1-25 (3x3 = 9, 5x5 =
  // 25 and the other non-powers of two included), against the rounding
  // division the reference pools apply.
  for (std::int32_t d = 1; d <= 25; ++d) {
    const RoundingDivider div(d);
    for (std::int32_t x = -128 * d; x <= 127 * d; ++x) {
      const std::int32_t want =
          x >= 0 ? (x + d / 2) / d : -((-x + d / 2) / d);
      ASSERT_EQ(div(x), want) << x << " / " << d;
    }
  }
  EXPECT_THROW(RoundingDivider(0), Error);
}

TEST(QuantOps, AvgPoolRejectsPadding) {
  const ConvGeom g{1, 4, 4, 2, 2, 2, 1};
  std::vector<std::int8_t> in(16, 1), out(9);
  EXPECT_THROW(qavgpool2d(in.data(), g, out.data()), Error);
}

TEST(Workspace, PointersSurviveGrowthWithinFrame) {
  Workspace ws;
  auto frame = ws.frame();
  float* small = frame.alloc<float>(16);
  for (int i = 0; i < 16; ++i) small[i] = static_cast<float>(i);
  // Force several new blocks; earlier allocations must stay intact.
  for (int round = 0; round < 4; ++round) {
    std::int8_t* big = frame.alloc<std::int8_t>(1 << 20);
    big[0] = 1;
    big[(1 << 20) - 1] = 2;
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(small[i], static_cast<float>(i));
  }
}

TEST(Workspace, CoalescesToOneBlockAfterOutermostFrame) {
  Workspace ws;
  {
    auto frame = ws.frame();
    (void)frame.alloc<float>(1000);
    {
      auto inner = ws.frame();
      (void)inner.alloc<double>(100000);
      (void)inner.alloc<std::int32_t>(300000);
    }
    (void)frame.alloc<float>(200000);
  }
  EXPECT_EQ(ws.block_count(), 1u);
  const std::size_t cap = ws.capacity();
  // Steady state: a same-shaped frame allocates no new blocks.
  {
    auto frame = ws.frame();
    (void)frame.alloc<float>(1000);
    (void)frame.alloc<float>(200000);
  }
  EXPECT_EQ(ws.block_count(), 1u);
  EXPECT_EQ(ws.capacity(), cap);
}

TEST(Workspace, AllocZeroedReturnsZeros) {
  auto frame = Workspace::tls().frame();
  const std::int32_t* p = frame.alloc_zeroed<std::int32_t>(4096);
  for (int i = 0; i < 4096; ++i) ASSERT_EQ(p[i], 0);
}

// ---------------------------------------------------------------------------
// GEMM-backed layer backward: batched gradient checks.
// ---------------------------------------------------------------------------

TEST(KernelBackward, Conv2dBatchedGradcheck) {
  Conv2d conv("conv", 3, 5, 3, /*stride=*/1, /*pad=*/1);
  init_parameters(conv, 21);
  check_gradients(conv, random_tensor(Shape{3, 3, 7, 7}, 22), 23);
}

TEST(KernelBackward, Conv2dStridedNoPadGradcheck) {
  Conv2d conv("conv", 2, 4, 3, /*stride=*/2, /*pad=*/0);
  init_parameters(conv, 31);
  check_gradients(conv, random_tensor(Shape{2, 2, 9, 9}, 32), 33);
}

TEST(KernelBackward, DenseBatchedGradcheck) {
  Dense dense("fc", 26, 11);
  init_parameters(dense, 41);
  check_gradients(dense, random_tensor(Shape{4, 26}, 42), 43);
}

TEST(KernelBackward, CachesReleasedAfterBackward) {
  // backward() without a fresh forward() must fail loudly instead of
  // silently reusing stale caches (they are released at step end).
  Conv2d conv("conv", 2, 3, 3, 1, 1);
  init_parameters(conv, 51);
  const Tensor x = random_tensor(Shape{2, 2, 6, 6}, 52);
  const Tensor y = conv.forward(x);
  Tensor gy(y.shape(), 1.0f);
  (void)conv.backward(gy);
  EXPECT_THROW(conv.backward(gy), Error);

  Dense dense("fc", 12, 7);
  init_parameters(dense, 53);
  const Tensor xd = random_tensor(Shape{3, 12}, 54);
  const Tensor yd = dense.forward(xd);
  Tensor gyd(yd.shape(), 1.0f);
  (void)dense.backward(gyd);
  EXPECT_THROW(dense.backward(gyd), Error);
}

}  // namespace
}  // namespace diva
