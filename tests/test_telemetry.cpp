// Telemetry subsystem tests (labels: tier1, telemetry).
//
// Covers the accounting the paper's query-budget story depends on:
// counters stay exact under thread contention, the runtime kill switch
// is a true no-op, histogram quantiles stay inside the log-linear
// bucket error bound, snapshots merge/diff exactly, the chrome-trace
// exporter emits valid JSON, kernel MAC/packed-byte counters match
// analytic counts at every compiled ISA tier, and FD/SPSA probe
// counters match the configured query budget exactly (the Table 2
// cost axis).
#include <algorithm>
#include <cctype>
#include <cstring>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "attack/engine.h"
#include "attack/registry.h"
#include "kernels/gemm.h"
#include "kernels/igemm.h"
#include "kernels/kernel_dispatch.h"
#include "models/factory.h"
#include "nn/init.h"
#include "quant/qat.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "test_helpers.h"

namespace diva {
namespace {

using telemetry::Snapshot;
using testing::random_tensor;

/// Re-enables telemetry even when an assertion fails mid-test.
struct EnabledGuard {
  explicit EnabledGuard(bool on) { telemetry::set_enabled(on); }
  ~EnabledGuard() { telemetry::set_enabled(true); }
};

std::uint64_t counter_delta(const Snapshot& now, const Snapshot& base,
                            const std::string& name) {
  const auto get = [&](const Snapshot& s) -> std::uint64_t {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(now) - get(base);
}

std::uint64_t hist_count_delta(const Snapshot& now, const Snapshot& base,
                               const std::string& name) {
  const auto get = [&](const Snapshot& s) -> std::uint64_t {
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0 : it->second.count;
  };
  return get(now) - get(base);
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (structure only, no DOM):
// enough to certify the exporter output parses, without a JSON dep.
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST(Telemetry, CounterExactUnderContention) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::Counter& c = telemetry::counter("test.contended_counter");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(3);
    });
  }
  for (auto& t : threads) t.join();
  // Shard-local relaxed adds must still sum exactly — no lost updates.
  EXPECT_EQ(c.value() - before, kThreads * kPerThread * 3);
}

TEST(Telemetry, DisabledModeIsATrueNoOp) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::Counter& c = telemetry::counter("test.disabled_counter");
  telemetry::Histogram& h = telemetry::histogram("test.disabled_hist_us");
  const std::uint64_t c_before = c.value();
  const std::uint64_t h_before = h.data().count;
  {
    EnabledGuard off(false);
    EXPECT_FALSE(telemetry::enabled());
    c.add(100);
    h.record(42);
    DIVA_TELEM_COUNT("test.disabled_counter", 5);
    DIVA_TELEM_RECORD("test.disabled_hist_us", 7);
    EXPECT_EQ(c.value(), c_before);
    EXPECT_EQ(h.data().count, h_before);
  }
  EXPECT_TRUE(telemetry::enabled());
  c.add(1);  // re-enabled updates land again
  EXPECT_EQ(c.value(), c_before + 1);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(Telemetry, HistBucketMonotoneWithConsistentBounds) {
  int prev = -1;
  for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                          123456ull, 1ull << 40, ~0ull}) {
    const int b = telemetry::hist_bucket(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, telemetry::kHistBuckets);
    EXPECT_GE(b, prev) << "bucket index must be monotone in v (v=" << v << ")";
    prev = b;
    std::uint64_t lo = 0, hi = 0;
    telemetry::hist_bucket_bounds(b, &lo, &hi);
    EXPECT_LE(lo, v);
    EXPECT_GE(hi, v);
    // The bounds themselves must land back in the same bucket.
    EXPECT_EQ(telemetry::hist_bucket(lo), b);
    EXPECT_EQ(telemetry::hist_bucket(hi), b);
  }
}

TEST(Telemetry, HistogramQuantileSanity) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::Histogram& h = telemetry::histogram("test.quantile_hist_us");
  h.reset();
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const telemetry::HistogramData d = h.data();
  EXPECT_EQ(d.count, 1000u);
  EXPECT_EQ(d.sum, 500'500u);
  EXPECT_DOUBLE_EQ(d.mean(), 500.5);  // count/sum are exact integers
  // Log-linear buckets guarantee <= ~25% value error per bucket.
  const double p50 = d.quantile(0.50);
  const double p90 = d.quantile(0.90);
  const double p99 = d.quantile(0.99);
  EXPECT_NEAR(p50, 500.0, 125.0);
  EXPECT_NEAR(p90, 900.0, 225.0);
  EXPECT_NEAR(p99, 990.0, 250.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_EQ(telemetry::histogram("test.quantile_hist_us").data().count, 1000u)
      << "histogram() must return the same registered instance";
}

// ---------------------------------------------------------------------------
// Snapshots: merge / diff / JSON
// ---------------------------------------------------------------------------

TEST(Telemetry, SnapshotMergeAndDiffAreExact) {
  Snapshot a, b;
  a.counters["x"] = 10;
  a.counters["only_a"] = 1;
  b.counters["x"] = 32;
  b.counters["only_b"] = 7;
  telemetry::HistogramData ha, hb;
  ha.buckets.assign(telemetry::kHistBuckets, 0);
  hb.buckets.assign(telemetry::kHistBuckets, 0);
  ha.buckets[3] = 2;
  ha.count = 2;
  ha.sum = 6;
  hb.buckets[3] = 1;
  hb.buckets[20] = 4;
  hb.count = 5;
  hb.sum = 100;
  a.histograms["h"] = ha;
  b.histograms["h"] = hb;

  Snapshot merged = a;
  telemetry::merge(&merged, b);
  EXPECT_EQ(merged.counters["x"], 42u);
  EXPECT_EQ(merged.counters["only_a"], 1u);
  EXPECT_EQ(merged.counters["only_b"], 7u);
  EXPECT_EQ(merged.histograms["h"].count, 7u);
  EXPECT_EQ(merged.histograms["h"].sum, 106u);
  EXPECT_EQ(merged.histograms["h"].buckets[3], 3u);
  EXPECT_EQ(merged.histograms["h"].buckets[20], 4u);

  const Snapshot delta = telemetry::diff(merged, a);
  EXPECT_EQ(delta.counters.at("x"), 32u);
  EXPECT_EQ(delta.counters.at("only_a"), 0u);
  EXPECT_EQ(delta.counters.at("only_b"), 7u);
  EXPECT_EQ(delta.histograms.at("h").count, 5u);
  EXPECT_EQ(delta.histograms.at("h").buckets[3], 1u);
  EXPECT_EQ(delta.histograms.at("h").buckets[20], 4u);

  // diff clamps at zero instead of wrapping.
  const Snapshot clamped = telemetry::diff(a, merged);
  EXPECT_EQ(clamped.counters.at("x"), 0u);
  EXPECT_EQ(clamped.histograms.at("h").count, 0u);
}

TEST(Telemetry, SnapshotJsonIsValid) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  (void)telemetry::counter("test.json \"quoted\"\\name");  // escaping path
  DIVA_TELEM_RECORD("test.json_hist_us", 12345);
  const std::string json = telemetry::to_json(telemetry::snapshot());
  EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.json_hist_us"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(Telemetry, ChromeTraceExportsValidJson) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::clear_trace();
  telemetry::set_trace_enabled(true);
  {
    DIVA_TRACE_SPAN("test.trace.outer");
    DIVA_TRACE_SPAN("test.trace.inner");
    std::thread worker([] { DIVA_TRACE_SPAN("test.trace.worker"); });
    worker.join();
  }
  telemetry::set_trace_enabled(false);
  EXPECT_GE(telemetry::trace_span_count(), 3u);

  std::ostringstream os;
  telemetry::write_trace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.trace.outer"), std::string::npos);
  EXPECT_NE(json.find("test.trace.worker"), std::string::npos);
  // Spans from different threads carry different tids.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  telemetry::clear_trace();
  EXPECT_EQ(telemetry::trace_span_count(), 0u);
  std::ostringstream empty;
  telemetry::write_trace(empty);
  EXPECT_TRUE(JsonValidator(empty.str()).valid());
}

TEST(Telemetry, DisabledTraceRecordsNothing) {
  telemetry::clear_trace();
  telemetry::set_trace_enabled(false);
  {
    DIVA_TRACE_SPAN("test.trace.should_not_appear");
  }
  EXPECT_EQ(telemetry::trace_span_count(), 0u);
}

// ---------------------------------------------------------------------------
// Kernel counters vs analytic counts, at every available ISA tier
// ---------------------------------------------------------------------------

class KernelTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    initial_tier_ = active_isa_tier();
  }
  void TearDown() override {
    if (telemetry::kCompiledIn) force_isa_tier(initial_tier_);
  }
  IsaTier initial_tier_ = IsaTier::kScalar;
};

TEST_F(KernelTelemetryTest, SgemmCountsMatchAnalyticPerTier) {
  // One-block shape (m <= MC, n <= NC, k <= KC) above the small-path
  // threshold, so the analytic formula has a single term per dimension.
  const std::int64_t m = 8, n = 64, k = 32;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.5f);
  std::vector<float> b(static_cast<std::size_t>(k * n), 0.25f);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);

  for (const IsaTier tier : available_isa_tiers()) {
    force_isa_tier(tier);
    const SgemmVariant& v = kernel_dispatch().sgemm;
    const std::string suffix = std::string(".") + v.name;
    const Snapshot before = telemetry::snapshot();
    sgemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n);
    const Snapshot after = telemetry::snapshot();

    EXPECT_EQ(counter_delta(after, before, "kernels.sgemm.calls" + suffix), 1u)
        << v.name;
    // MACs are logical m*n*k — padding excluded, so this is exact.
    EXPECT_EQ(counter_delta(after, before, "kernels.sgemm.macs" + suffix),
              static_cast<std::uint64_t>(m * n * k))
        << v.name;
    // Packed bytes include MR/NR padding: one A block padded to MR rows,
    // one B block padded to NR columns, each spanning all of k.
    const std::int64_t a_rows = (m + v.mr - 1) / v.mr * v.mr;
    const std::int64_t b_cols = (n + v.nr - 1) / v.nr * v.nr;
    const std::uint64_t expected_bytes =
        sizeof(float) * static_cast<std::uint64_t>(a_rows * k + b_cols * k);
    EXPECT_EQ(
        counter_delta(after, before, "kernels.sgemm.packed_bytes" + suffix),
        expected_bytes)
        << v.name;
  }
}

TEST_F(KernelTelemetryTest, SgemmSmallPathAttributesToScalar) {
  // m*n*k below the 2^13 threshold takes the tier-invariant small path.
  const std::int64_t m = 4, n = 4, k = 4;
  std::vector<float> a(16, 1.0f), b(16, 1.0f), c(16, 0.0f);
  const Snapshot before = telemetry::snapshot();
  sgemm(m, n, k, a.data(), k, false, b.data(), n, false, c.data(), n);
  const Snapshot after = telemetry::snapshot();
  EXPECT_EQ(counter_delta(after, before, "kernels.sgemm.calls.scalar"), 1u);
  EXPECT_EQ(counter_delta(after, before, "kernels.sgemm.macs.scalar"), 64u);
  EXPECT_EQ(
      counter_delta(after, before, "kernels.sgemm.packed_bytes.scalar"), 0u);
}

TEST_F(KernelTelemetryTest, IgemmCountsMatchAnalyticPerTier) {
  const std::int64_t m = 4, n = 40, k = 64;  // single K block (k <= 512)
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int8_t>(i % 7 - 3);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::int8_t>(i % 11 - 5);
  }
  std::vector<std::int32_t> bias(static_cast<std::size_t>(m), 0);
  std::vector<std::int32_t> multiplier(static_cast<std::size_t>(m), 1 << 30);
  std::vector<int> shift(static_cast<std::size_t>(m), 0);
  IgemmEpilogue ep;
  ep.bias = bias.data();
  ep.multiplier = multiplier.data();
  ep.shift = shift.data();
  std::vector<std::int8_t> out(static_cast<std::size_t>(m * n));

  for (const IsaTier tier : available_isa_tiers()) {
    force_isa_tier(tier);
    const IgemmVariant& v = kernel_dispatch().igemm;
    const std::string suffix = std::string(".") + v.name;
    const Snapshot before = telemetry::snapshot();
    igemm(m, n, k, a.data(), k, b.data(), n, /*b_zp=*/3, ep, out.data(), n);
    const Snapshot after = telemetry::snapshot();

    EXPECT_EQ(counter_delta(after, before, "kernels.igemm.calls" + suffix), 1u)
        << v.name;
    EXPECT_EQ(counter_delta(after, before, "kernels.igemm.macs" + suffix),
              static_cast<std::uint64_t>(m * n * k))
        << v.name;
    // Panel bytes straight from the variant's own geometry accessors.
    const std::uint64_t expected_bytes =
        static_cast<std::uint64_t>((m + v.mr - 1) / v.mr) *
            v.a_panel_bytes(k) +
        static_cast<std::uint64_t>((n + v.nr - 1) / v.nr) *
            v.b_panel_bytes(k);
    EXPECT_EQ(
        counter_delta(after, before, "kernels.igemm.packed_bytes" + suffix),
        expected_bytes)
        << v.name;
  }
}

TEST_F(KernelTelemetryTest, PrepackedIgemmCountsOnlyBPanels) {
  // The executor packs weights once per model, so a prepacked product
  // packs (and counts) only its B panels; the A panels were counted
  // once, when igemm_pack_a built them.
  const std::int64_t m = 6, n = 70, k = 36;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), 3);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), -2);
  std::vector<std::int32_t> multiplier(static_cast<std::size_t>(m), 1 << 30);
  std::vector<int> shift(static_cast<std::size_t>(m), 0);
  IgemmEpilogue ep;
  ep.multiplier = multiplier.data();
  ep.shift = shift.data();
  std::vector<std::int8_t> out(static_cast<std::size_t>(m * n));

  for (const IsaTier tier : available_isa_tiers()) {
    force_isa_tier(tier);
    const IgemmVariant& v = kernel_dispatch().igemm;
    const std::string suffix = std::string(".") + v.name;
    const Snapshot before_pack = telemetry::snapshot();
    const IgemmPackedA packed =
        igemm_pack_a(tier, m, k, a.data(), k, /*b_zp=*/1, nullptr);
    const Snapshot before = telemetry::snapshot();
    EXPECT_EQ(
        counter_delta(before, before_pack, "kernels.igemm.packed_bytes" + suffix),
        static_cast<std::uint64_t>((m + v.mr - 1) / v.mr) * v.a_panel_bytes(k))
        << v.name;
    EXPECT_EQ(counter_delta(before, before_pack, "kernels.igemm.calls" + suffix),
              0u)
        << v.name;

    igemm_packed(packed, n, b.data(), n, ep, out.data(), n);
    const Snapshot after = telemetry::snapshot();
    EXPECT_EQ(counter_delta(after, before, "kernels.igemm.calls" + suffix), 1u)
        << v.name;
    EXPECT_EQ(counter_delta(after, before, "kernels.igemm.macs" + suffix),
              static_cast<std::uint64_t>(m * n * k))
        << v.name;
    EXPECT_EQ(
        counter_delta(after, before, "kernels.igemm.packed_bytes" + suffix),
        static_cast<std::uint64_t>((n + v.nr - 1) / v.nr) * v.b_panel_bytes(k))
        << v.name;
  }
}

TEST_F(KernelTelemetryTest, IgemmSingleRowPathAttributesToScalar) {
  const std::int64_t n = 8, k = 16;
  std::vector<std::int8_t> a(static_cast<std::size_t>(k), 1);
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), 2);
  std::int32_t bias = 0, multiplier = 1 << 30;
  int shift = 0;
  IgemmEpilogue ep;
  ep.bias = &bias;
  ep.multiplier = &multiplier;
  ep.shift = &shift;
  std::vector<std::int8_t> out(static_cast<std::size_t>(n));
  const Snapshot before = telemetry::snapshot();
  igemm(1, n, k, a.data(), k, b.data(), n, 0, ep, out.data(), n);
  const Snapshot after = telemetry::snapshot();
  EXPECT_EQ(counter_delta(after, before, "kernels.igemm.calls.scalar"), 1u);
  EXPECT_EQ(counter_delta(after, before, "kernels.igemm.macs.scalar"),
            static_cast<std::uint64_t>(n * k));
  EXPECT_EQ(
      counter_delta(after, before, "kernels.igemm.packed_bytes.scalar"), 0u);
}

// ---------------------------------------------------------------------------
// Attack-layer query accounting: FD/SPSA probe budgets, engine shards
// ---------------------------------------------------------------------------

class AttackTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
    float_net_ = make_digit_net(NetMode::kFloat);
    init_parameters(*float_net_, 501);
    qat_ = make_digit_net(NetMode::kQat);
    init_parameters(*qat_, 502);
    calibrate(*qat_, {random_tensor(Shape{4, 1, 28, 28}, 503, 0.0f, 1.0f)});
    quantized_ = std::make_unique<QuantizedModel>(
        QuantizedModel::compile(*qat_, Shape{1, 28, 28}));
  }

  std::unique_ptr<Sequential> float_net_, qat_;
  std::unique_ptr<QuantizedModel> quantized_;
};

TEST_F(AttackTelemetryTest, SpsaProbeCountMatchesConfiguredBudgetExactly) {
  const std::int64_t n = 2;
  const int steps = 3, samples = 4;
  const Tensor x = random_tensor(Shape{n, 1, 28, 28}, 601, 0.0f, 1.0f);
  const std::vector<int> y = {0, 1};

  AttackSpec spec;
  spec.cfg.epsilon = 0.05f;
  spec.cfg.alpha = 0.01f;
  spec.cfg.steps = steps;
  FdConfig fd;
  fd.samples = samples;
  auto attack = make_attack("pgd", {nullptr, fd_source(*quantized_, fd)},
                            spec);

  const Snapshot before = telemetry::snapshot();
  (void)attack->perturb(x, y);
  const Snapshot after = telemetry::snapshot();

  // The paper's query-budget invariant: SPSA spends exactly
  // n * steps * 2 * samples deployed-artifact probes, no hidden extras.
  EXPECT_EQ(counter_delta(after, before, "attack.fd.spsa_probes"),
            static_cast<std::uint64_t>(n * steps * 2 * samples));
  // Probe rows all pass through the deployed artifact's query counter.
  EXPECT_GE(counter_delta(after, before, "quant.forward.rows"),
            static_cast<std::uint64_t>(n * steps * 2 * samples));
  EXPECT_EQ(counter_delta(after, before, "attack.PGD.perturb_calls"), 1u);
  EXPECT_EQ(counter_delta(after, before, "attack.PGD.samples"),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(counter_delta(after, before, "attack.PGD.grad_evals"),
            static_cast<std::uint64_t>(steps));  // one FD source
}

TEST_F(AttackTelemetryTest, CompressedVariantsPinProbeBudgetsExactly) {
  // Every probe-compression lever must keep the paper's query-budget
  // invariant — spsa_probes == n * steps * 2 * samples — while moving
  // only the per-forward packing (probe_forwards) and the touched
  // degrees of freedom (probe_dof).
  const std::int64_t n = 2;
  const int steps = 2, samples = 4;
  const std::int64_t d = 28 * 28;
  const Tensor x = random_tensor(Shape{n, 1, 28, 28}, 604, 0.0f, 1.0f);
  const std::vector<int> y = {0, 1};

  AttackSpec spec;
  spec.cfg.epsilon = 0.05f;
  spec.cfg.alpha = 0.01f;
  spec.cfg.steps = steps;

  struct Case {
    FdConfig fd;
    std::uint64_t nnz;       // probed degrees of freedom per probe
    std::uint64_t forwards;  // probe forwards per step
  };
  const Case cases[] = {
      // Dense unbatched: one 2*samples-row forward per sample per step.
      {{.samples = samples},
       static_cast<std::uint64_t>(d),
       static_cast<std::uint64_t>(n)},
      // Subspace: probes span k coefficients instead of d pixels.
      {{.samples = samples, .subspace_dim = 8}, 8,
       static_cast<std::uint64_t>(n)},
      // Sign-sparse: each probe touches round(0.25 * d) pixels.
      {{.samples = samples, .sparsity = 0.25f}, 196,
       static_cast<std::uint64_t>(n)},
      // Batched: n * samples = 8 pairs packed 3 per forward (cap 6
      // rows), so ceil(8 / 3) = 3 forwards per step instead of n.
      {{.samples = samples, .batch_probes = true, .max_probe_rows = 6},
       static_cast<std::uint64_t>(d), 3},
      // All levers at once: nnz = round(0.5 * k).
      {{.samples = samples,
        .subspace_dim = 8,
        .sparsity = 0.5f,
        .batch_probes = true,
        .max_probe_rows = 6},
       4, 3},
  };
  const auto budget = static_cast<std::uint64_t>(n * steps * 2 * samples);
  for (const Case& c : cases) {
    auto attack =
        make_attack("pgd", {nullptr, fd_source(*quantized_, c.fd)}, spec);
    const Snapshot before = telemetry::snapshot();
    (void)attack->perturb(x, y);
    const Snapshot after = telemetry::snapshot();
    const std::string label = fd_label(c.fd);
    EXPECT_EQ(counter_delta(after, before, "attack.fd.spsa_probes"), budget)
        << label;
    EXPECT_EQ(counter_delta(after, before, "attack.fd.probe_forwards"),
              c.forwards * static_cast<std::uint64_t>(steps))
        << label;
    EXPECT_EQ(counter_delta(after, before, "attack.fd.probe_dof"),
              budget * c.nnz)
        << label;
    // Probe rows all hit the deployed artifact's query counter.
    EXPECT_GE(counter_delta(after, before, "quant.forward.rows"), budget)
        << label;
  }
}

TEST_F(AttackTelemetryTest, CoordinateProbeCountMatchesPixelBudget) {
  const std::int64_t n = 1;
  const Tensor x = random_tensor(Shape{n, 1, 28, 28}, 602, 0.0f, 1.0f);
  const std::vector<int> y = {0};

  AttackSpec spec;
  spec.cfg.epsilon = 0.05f;
  spec.cfg.alpha = 0.01f;
  spec.cfg.steps = 1;
  FdConfig fd;
  fd.coordinate = true;
  auto attack = make_attack("pgd", {nullptr, fd_source(*quantized_, fd)},
                            spec);

  const Snapshot before = telemetry::snapshot();
  (void)attack->perturb(x, y);
  const Snapshot after = telemetry::snapshot();
  // Exact central differences: one +h/-h probe pair per pixel per step.
  EXPECT_EQ(counter_delta(after, before, "attack.fd.coordinate_probes"),
            static_cast<std::uint64_t>(2 * 28 * 28));
}

TEST_F(AttackTelemetryTest, EngineCountsRunsSamplesAndShards) {
  const std::int64_t n = 8;
  const std::int64_t shard_size = 2;
  const Tensor x = random_tensor(Shape{n, 1, 28, 28}, 603, 0.0f, 1.0f);
  std::vector<int> y(static_cast<std::size_t>(n), 0);

  AttackSpec spec;
  spec.cfg.epsilon = 0.05f;
  spec.cfg.alpha = 0.01f;
  spec.cfg.steps = 1;
  auto attack = make_attack("pgd", {nullptr, source(*float_net_)}, spec);
  const AttackEngine engine({.threads = 2, .shard_size = shard_size});

  const Snapshot before = telemetry::snapshot();
  (void)engine.run(*attack, x, y);
  const Snapshot after = telemetry::snapshot();

  EXPECT_EQ(counter_delta(after, before, "engine.runs"), 1u);
  EXPECT_EQ(counter_delta(after, before, "engine.samples"),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(counter_delta(after, before, "engine.shards"),
            static_cast<std::uint64_t>(n / shard_size));
  EXPECT_EQ(hist_count_delta(after, before, "engine.shard_us"),
            static_cast<std::uint64_t>(n / shard_size));
}

}  // namespace
}  // namespace diva
