// Tests for the three-layer attack API: registry round-trips, engine
// sharding determinism, objective/source composition, and the
// quantized-model gradient sources (STE and finite differences).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "attack/engine.h"
#include "attack/probe_compression.h"
#include "attack/registry.h"
#include "core/trainer.h"
#include "data/synth_digits.h"
#include "metrics/metrics.h"
#include "models/factory.h"
#include "nn/fold_bn.h"
#include "nn/init.h"
#include "quant/qat.h"
#include "quant/quantized_model.h"
#include "test_helpers.h"

namespace diva {
namespace {

/// Tiny trained digit pair + a compiled int8 artifact, shared by all
/// tests in this file.
struct ApiFixture {
  Dataset train, val;
  std::unique_ptr<Sequential> model;  // "original"
  std::unique_ptr<Sequential> twin;   // "adapted" float stand-in
  std::unique_ptr<Sequential> qat;    // calibrated QAT twin
  std::unique_ptr<QuantizedModel> quantized;

  ApiFixture() {
    SynthDigits gen(77);
    train = gen.generate(40, 0);
    val = gen.generate(8, 4000);

    model = make_digit_net(NetMode::kFloat);
    init_parameters(*model, 11);
    TrainConfig cfg;
    cfg.epochs = 8;
    cfg.seed = 12;
    train_classifier(*model, train, cfg);

    twin = make_digit_net(NetMode::kFloat);
    init_parameters(*twin, 13);
    TrainConfig cfg2 = cfg;
    cfg2.seed = 14;
    cfg2.epochs = 6;
    train_classifier(*twin, train, cfg2);

    // Fold the trained float weights into the QAT skeleton (the
    // standard fold-then-quantize flow), so the int8 artifact has a
    // meaningful decision surface rather than random-weight noise.
    qat = make_digit_net(NetMode::kQat);
    fold_batchnorm_into(*model, *qat);
    calibrate(*qat, {train.images});
    quantized = std::make_unique<QuantizedModel>(QuantizedModel::compile(
        *qat, Shape{SynthDigits::kChannels, SynthDigits::kHeight,
                    SynthDigits::kWidth}));
  }
};

ApiFixture& fixture() {
  static ApiFixture f;
  return f;
}

Dataset small_eval(int n) {
  std::vector<int> idx;
  for (int i = 0; i < n; ++i) idx.push_back(i);
  return fixture().val.subset(idx);
}

AttackSpec quick_spec(int steps = 4) {
  AttackSpec spec;
  spec.cfg.epsilon = 8.0f / 255.0f;
  spec.cfg.alpha = 2.0f / 255.0f;
  spec.cfg.steps = steps;
  spec.target = 3;
  return spec;
}

AttackTargets float_targets() {
  auto& f = fixture();
  return {source(*f.model), source(*f.twin)};
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(AttackRegistry, ListsAllBuiltinKinds) {
  for (const char* kind : {"pgd", "cw", "fgsm", "momentum-pgd", "diva",
                           "targeted-diva"}) {
    EXPECT_TRUE(attack_registered(kind)) << kind;
  }
  EXPECT_GE(registered_attack_names().size(), 6u);
}

TEST(AttackRegistry, RoundTripEveryKind) {
  const Dataset eval = small_eval(4);
  const AttackSpec spec = quick_spec();
  for (const std::string& kind : registered_attack_names()) {
    auto attack = make_attack(kind, float_targets(), spec);
    ASSERT_NE(attack, nullptr) << kind;
    EXPECT_FALSE(attack->name().empty()) << kind;
    const Tensor adv = attack->perturb(eval.images, eval.labels);
    ASSERT_EQ(adv.shape(), eval.images.shape()) << kind;
    EXPECT_LE(max_abs(sub(adv, eval.images)), spec.cfg.epsilon + 1e-5f)
        << kind;
    EXPECT_GE(min_value(adv), -1e-6f) << kind;
    EXPECT_LE(max_value(adv), 1.0f + 1e-6f) << kind;
  }
}

/// Runs `fn`, expecting diva::Error whose message contains `needle`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected diva::Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(AttackRegistry, UnknownKindThrowsAndNamesTheKind) {
  expect_error_containing(
      [] { (void)make_attack("no-such-attack", float_targets(), quick_spec()); },
      "unknown attack kind 'no-such-attack'");
  expect_error_containing([] { (void)attack_traits("no-such-attack"); },
                          "unknown attack kind 'no-such-attack'");
}

TEST(AttackRegistry, MissingAdaptedSourceThrowsWithClearMessage) {
  AttackTargets empty;
  expect_error_containing(
      [&] { (void)make_attack("pgd", empty, quick_spec()); },
      "needs an adapted-model source");
  expect_error_containing(
      [&] { (void)make_attack("diva", empty, quick_spec()); },
      "needs an adapted-model source");
}

TEST(AttackRegistry, DivaWithSingleSourceThrowsWithClearMessage) {
  // Adapted side only: the DIVA family must demand its original source.
  AttackTargets only_adapted{nullptr, source(*fixture().twin)};
  EXPECT_NO_THROW(make_attack("pgd", only_adapted, quick_spec()));
  expect_error_containing(
      [&] { (void)make_attack("diva", only_adapted, quick_spec()); },
      "needs an original-model source");
  expect_error_containing(
      [&] { (void)make_attack("targeted-diva", only_adapted, quick_spec()); },
      "needs an original-model source");
}

TEST(AttackRegistry, TraitsDescribeSourceRequirements) {
  for (const char* kind : {"pgd", "cw", "fgsm", "momentum-pgd"}) {
    EXPECT_FALSE(attack_traits(kind).needs_original) << kind;
    EXPECT_TRUE(attack_traits(kind).needs_adapted) << kind;
  }
  for (const char* kind : {"diva", "targeted-diva"}) {
    EXPECT_TRUE(attack_traits(kind).needs_original) << kind;
    EXPECT_TRUE(attack_traits(kind).needs_adapted) << kind;
  }
}

TEST(AttackRegistry, ValidateTargetsMirrorsMakeAttackErrors) {
  AttackTargets empty;
  AttackTargets only_adapted{nullptr, source(*fixture().twin)};
  EXPECT_EQ(validate_attack_targets("pgd", only_adapted), "");
  EXPECT_EQ(validate_attack_targets("diva", float_targets()), "");
  EXPECT_NE(validate_attack_targets("pgd", empty).find(
                "needs an adapted-model source"),
            std::string::npos);
  EXPECT_NE(validate_attack_targets("diva", only_adapted)
                .find("needs an original-model source"),
            std::string::npos);
  EXPECT_THROW((void)validate_attack_targets("no-such-attack", empty), Error);
}

TEST(AttackRegistry, CustomKindsCanBeRegistered) {
  register_attack("test-custom-pgd",
                  [](const AttackTargets& t, const AttackSpec& s) {
                    return std::make_unique<IteratedAttack>(
                        "CustomPGD",
                        std::vector<std::shared_ptr<GradSource>>{t.adapted},
                        std::make_shared<CrossEntropyObjective>(), s.cfg);
                  });
  ASSERT_TRUE(attack_registered("test-custom-pgd"));
  auto attack = make_attack("test-custom-pgd", float_targets(), quick_spec());
  EXPECT_EQ(attack->name(), "CustomPGD");
  // Kinds registered without traits declare no requirements: make_attack
  // must not pre-reject their targets (the factory decides).
  EXPECT_FALSE(attack_traits("test-custom-pgd").needs_adapted);
  EXPECT_EQ(validate_attack_targets("test-custom-pgd", AttackTargets{}), "");
}

TEST(AttackRegistry, KindsMatchDirectlyComposedIteratedAttacks) {
  // Pin the registry wiring (kind -> objective, source order, spec
  // plumbing) against attacks composed by hand from the primitives,
  // bit-for-bit. Successor of the removed wrapper-parity test: a bug in
  // the factory mapping cannot cancel out here because the right-hand
  // side never goes through the registry.
  const Dataset eval = small_eval(5);
  const AttackSpec spec = quick_spec();
  auto& f = fixture();

  IteratedAttack direct_pgd(
      "PGD", {source(*f.twin)}, std::make_shared<CrossEntropyObjective>(),
      spec.cfg);
  auto pgd = make_attack("pgd", float_targets(), spec);
  EXPECT_EQ(max_abs(sub(direct_pgd.perturb(eval.images, eval.labels),
                        pgd->perturb(eval.images, eval.labels))),
            0.0f);

  IteratedAttack direct_diva(
      "DIVA", {source(*f.model), source(*f.twin)},
      std::make_shared<DivaObjective>(spec.c), spec.cfg);
  auto diva = make_attack("diva", float_targets(), spec);
  EXPECT_EQ(max_abs(sub(direct_diva.perturb(eval.images, eval.labels),
                        diva->perturb(eval.images, eval.labels))),
            0.0f);
}

// ---------------------------------------------------------------------------
// AttackEngine determinism.
// ---------------------------------------------------------------------------

TEST(AttackEngine2, ShardedEqualsSequentialAcrossThreadCounts) {
  const Dataset eval = small_eval(8);
  for (const char* kind : {"pgd", "diva", "momentum-pgd"}) {
    auto attack = make_attack(kind, float_targets(), quick_spec(3));
    const Tensor sequential =
        attack->perturb(eval.images, eval.labels);
    for (const unsigned threads : {1u, 2u, 4u, 8u, 16u}) {
      const AttackEngine engine({.threads = threads, .shard_size = 3});
      const Tensor sharded = engine.run(*attack, eval.images, eval.labels);
      EXPECT_EQ(max_abs(sub(sequential, sharded)), 0.0f)
          << kind << " with " << threads << " threads";
    }
  }
}

TEST(AttackEngine2, FdSourceShardedEqualsSequentialUpTo16Threads) {
  // Derivative-free sources run probe batches fully concurrently (no
  // module mutex), so thread counts beyond the shard count genuinely
  // interleave — the SPSA streams keyed on (seed, global sample, step)
  // must still reproduce the sequential result bit-for-bit.
  auto& f = fixture();
  const Dataset eval = small_eval(8);
  AttackSpec spec = quick_spec(2);
  auto fd_pgd = make_attack(
      "pgd", {nullptr, fd_source(*f.quantized, {.samples = 4})}, spec);
  const Tensor sequential = fd_pgd->perturb(eval.images, eval.labels);
  for (const unsigned threads : {2u, 8u, 16u}) {
    const AttackEngine engine({.threads = threads, .shard_size = 2});
    const Tensor sharded = engine.run(*fd_pgd, eval.images, eval.labels);
    EXPECT_EQ(max_abs(sub(sequential, sharded)), 0.0f)
        << threads << " threads";
  }
}

TEST(AttackEngine2, CompressedFdVariantsShardedEqualSequential) {
  // The probe-compression levers (subspace, sparsity, batching) keep
  // the per-sample (seed, global sample, step) stream keying, so every
  // compressed estimator must stay bit-identical under engine sharding
  // — the same determinism contract the dense estimator pins above.
  auto& f = fixture();
  const Dataset eval = small_eval(6);
  AttackSpec spec = quick_spec(2);
  const FdConfig variants[] = {
      {.samples = 4, .subspace_dim = 8},
      {.samples = 4, .sparsity = 0.25f},
      {.samples = 4, .batch_probes = true, .max_probe_rows = 6},
      {.samples = 4,
       .subspace_dim = 8,
       .sparsity = 0.5f,
       .batch_probes = true,
       .max_probe_rows = 10},
  };
  for (const FdConfig& cfg : variants) {
    auto attack =
        make_attack("pgd", {nullptr, fd_source(*f.quantized, cfg)}, spec);
    const Tensor sequential = attack->perturb(eval.images, eval.labels);
    for (const unsigned threads : {2u, 8u}) {
      const AttackEngine engine({.threads = threads, .shard_size = 2});
      const Tensor sharded = engine.run(*attack, eval.images, eval.labels);
      EXPECT_EQ(max_abs(sub(sequential, sharded)), 0.0f)
          << fd_label(cfg) << " with " << threads << " threads";
    }
  }
}

TEST(AttackEngine2, RandomStartIsShardInvariant) {
  const Dataset eval = small_eval(8);
  AttackSpec spec = quick_spec(2);
  spec.cfg.random_start = true;
  spec.cfg.seed = 99;
  auto attack = make_attack("diva", float_targets(), spec);
  const Tensor sequential = attack->perturb(eval.images, eval.labels);
  for (const unsigned threads : {2u, 4u}) {
    const AttackEngine engine({.threads = threads, .shard_size = 3});
    EXPECT_EQ(max_abs(sub(sequential,
                          engine.run(*attack, eval.images, eval.labels))),
              0.0f)
        << threads << " threads";
  }
}

TEST(AttackEngine2, CallbackAttacksFallBackToSequential) {
  const Dataset eval = small_eval(6);
  AttackSpec spec = quick_spec(3);
  int calls = 0;
  spec.cfg.step_callback = [&calls](int, const Tensor& batch) {
    // Whole-batch iterates: sharding would hand the callback fragments.
    EXPECT_EQ(batch.dim(0), 6);
    ++calls;
  };
  auto attack = make_attack("pgd", float_targets(), spec);
  EXPECT_FALSE(attack->shardable());
  const AttackEngine engine({.threads = 2, .shard_size = 2});
  (void)engine.run(*attack, eval.images, eval.labels);
  EXPECT_EQ(calls, 3);
}

/// Shardable attack whose shard starting at sample `bad_first` throws at
/// once, while every other shard sleeps before it finishes.
class ThrowingShardAttack : public Attack {
 public:
  explicit ThrowingShardAttack(std::int64_t bad_first) : bad_first_(bad_first) {}
  Tensor perturb(const Tensor& x, const std::vector<int>& labels) override {
    return perturb_indexed(x, labels, 0);
  }
  Tensor perturb_indexed(const Tensor& x, const std::vector<int>&,
                         std::int64_t first_sample) override {
    if (first_sample == bad_first_) throw Error("shard failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    finished++;
    return x;
  }
  bool shardable() const override { return true; }
  std::string name() const override { return "throwing-shard"; }

  std::atomic<int> finished{0};

 private:
  std::int64_t bad_first_;
};

TEST(AttackEngine2, ShardErrorIsRethrownAfterEveryOtherShardFinished) {
  const Tensor x(Shape{8, 1, 2, 2});
  const std::vector<int> labels(8, 0);
  ThrowingShardAttack attack(/*bad_first=*/2);
  const AttackEngine engine({.threads = 4, .shard_size = 2});
  try {
    (void)engine.run(attack, x, labels);
    FAIL() << "the failing shard's error was swallowed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shard failed"), std::string::npos);
  }
  // Shards 0, 4 and 6 were still sleeping when shard 2 threw.
  EXPECT_EQ(attack.finished.load(), 3);
}

// ---------------------------------------------------------------------------
// Quantized-model gradient sources: the edge artifact as attack target.
// ---------------------------------------------------------------------------

TEST(QuantTarget, SteDivaCompletesEndToEnd) {
  auto& f = fixture();
  const Dataset eval = small_eval(3);
  AttackSpec spec = quick_spec(4);
  // Adapted side: int8 forward, STE backward through the QAT shadow.
  const AttackTargets targets{source(*f.model),
                              source(*f.quantized, *f.qat)};
  auto diva = make_attack("diva", targets, spec);
  const Tensor adv = diva->perturb(eval.images, eval.labels);
  ASSERT_EQ(adv.shape(), eval.images.shape());
  EXPECT_LE(max_abs(sub(adv, eval.images)), spec.cfg.epsilon + 1e-5f);
  EXPECT_GE(min_value(adv), -1e-6f);
  EXPECT_LE(max_value(adv), 1.0f + 1e-6f);
}

TEST(QuantTarget, FiniteDifferenceDivaCompletesEndToEnd) {
  auto& f = fixture();
  const Dataset eval = small_eval(2);
  AttackSpec spec = quick_spec(2);
  // Adapted side: derivative-free probing of the int8 artifact alone.
  const AttackTargets targets{source(*f.model), fd_source(*f.quantized)};
  auto diva = make_attack("diva", targets, spec);
  const Tensor adv = diva->perturb(eval.images, eval.labels);
  ASSERT_EQ(adv.shape(), eval.images.shape());
  EXPECT_LE(max_abs(sub(adv, eval.images)), spec.cfg.epsilon + 1e-5f);
  EXPECT_GE(min_value(adv), -1e-6f);
  EXPECT_LE(max_value(adv), 1.0f + 1e-6f);
}

TEST(QuantTarget, SpsaGradientDescendsTheIntegerSurface) {
  // Functional check of the derivative-free estimator: one full-budget
  // descent step along -sign(g_fd) must reduce the int8 model's label
  // probability well beyond staircase noise.
  auto& f = fixture();
  const Dataset eval = small_eval(1);
  const int y = eval.labels[0];
  FdConfig fd_cfg;
  fd_cfg.samples = 256;
  auto fd = fd_source(*f.quantized, fd_cfg);

  DivaObjective obj(1.0f);
  GradRequest req;
  req.values = [&](const Tensor& l, const std::vector<std::int64_t>& rows) {
    std::vector<int> labels;
    labels.reserve(rows.size());
    for (auto r : rows) {
      labels.push_back(eval.labels[static_cast<std::size_t>(r)]);
    }
    return obj.term_values(1, l, labels);
  };
  const Tensor g = fd->input_grad(eval.images, req);

  auto label_prob = [&](const Tensor& x) {
    return softmax_rows(f.quantized->forward(x)).at(0, y);
  };
  Tensor stepped = eval.images;
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    const float s = g[i] > 0 ? 1.0f : (g[i] < 0 ? -1.0f : 0.0f);
    stepped[i] = std::min(1.0f, std::max(0.0f, stepped[i] - 8.0f / 255.0f * s));
  }
  EXPECT_LT(label_prob(stepped), label_prob(eval.images) - 0.02f);
}

TEST(QuantTarget, FdProbesAreShardAndReplayInvariant) {
  // The SPSA probe stream is keyed by (seed, global sample, step), so
  // the same sample produces the same gradient whether it enters as
  // batch row 0 with first_sample=2 or as row 2 of the full batch.
  auto& f = fixture();
  const Dataset eval = small_eval(3);
  auto fd = fd_source(*f.quantized, {.samples = 8});
  DivaObjective obj(1.0f);
  auto values_for = [&](const std::vector<int>& labels) {
    return [&obj, labels](const Tensor& l,
                          const std::vector<std::int64_t>& rows) {
      std::vector<int> row_labels;
      row_labels.reserve(rows.size());
      for (auto r : rows) {
        row_labels.push_back(labels[static_cast<std::size_t>(r)]);
      }
      return obj.term_values(1, l, row_labels);
    };
  };

  GradRequest full;
  full.first_sample = 0;
  full.values = values_for(eval.labels);
  const Tensor g_full = fd->input_grad(eval.images, full);

  const Dataset last = eval.subset({2});
  GradRequest shard;
  shard.first_sample = 2;
  shard.values = values_for(last.labels);
  const Tensor g_shard = fd->input_grad(last.images, shard);

  const std::int64_t per = g_full.numel() / 3;
  float diff = 0.0f;
  for (std::int64_t i = 0; i < per; ++i) {
    diff = std::max(diff, std::fabs(g_full[2 * per + i] - g_shard[i]));
  }
  EXPECT_EQ(diff, 0.0f);
}

TEST(QuantTarget, BatchedProbeSchedulingIsBitIdenticalToUnbatched) {
  // Cross-sample probe batching only reschedules forwards — same probe
  // directions, same accumulation order per sample — so switching it on
  // (at any row cap) must not move a single output bit.
  auto& f = fixture();
  const Dataset eval = small_eval(5);
  const AttackSpec spec = quick_spec(2);
  const FdConfig bases[] = {
      {.samples = 4},
      {.samples = 4, .subspace_dim = 8},
      {.samples = 4, .sparsity = 0.25f},
  };
  for (const FdConfig& base : bases) {
    auto plain =
        make_attack("pgd", {nullptr, fd_source(*f.quantized, base)}, spec);
    const Tensor want = plain->perturb(eval.images, eval.labels);
    for (const std::int64_t rows : {2, 6, 64}) {
      FdConfig batched = base;
      batched.batch_probes = true;
      batched.max_probe_rows = rows;
      auto attack = make_attack(
          "pgd", {nullptr, fd_source(*f.quantized, batched)}, spec);
      const Tensor got = attack->perturb(eval.images, eval.labels);
      EXPECT_EQ(max_abs(sub(want, got)), 0.0f)
          << fd_label(base) << " rows_cap=" << rows;
    }
  }
}

TEST(QuantTarget, FdLabelsEncodeCompressionLevers) {
  EXPECT_EQ(fd_label({}), "int8+fd");
  EXPECT_EQ(fd_label({.coordinate = true}), "int8+fd+coord");
  EXPECT_EQ(fd_label({.subspace_dim = 16}), "int8+fd+sub16");
  EXPECT_EQ(fd_label({.sparsity = 0.25f}), "int8+fd+sp25");
  EXPECT_EQ(fd_label({.batch_probes = true}), "int8+fd+batch");
  EXPECT_EQ(fd_label({.subspace_dim = 8, .sparsity = 0.5f,
                      .batch_probes = true}),
            "int8+fd+sub8+sp50+batch");
  // An explicit basis reports its kind (and the registry's default
  // source label is exactly this string).
  auto& f = fixture();
  FdConfig with_basis;
  with_basis.subspace = make_random_subspace(
      SynthDigits::kChannels * SynthDigits::kHeight * SynthDigits::kWidth, 4,
      1);
  EXPECT_EQ(fd_label(with_basis), "int8+fd+rand4");
  EXPECT_EQ(fd_source(*f.quantized, with_basis)->name(), "int8+fd+rand4");
}

TEST(QuantTarget, SteLogitsComeFromIntegerModel) {
  auto& f = fixture();
  const Dataset eval = small_eval(2);
  auto ste = source(*f.quantized, *f.qat);
  const Tensor expected = f.quantized->forward(eval.images);
  EXPECT_EQ(max_abs(sub(ste->logits(eval.images), expected)), 0.0f);
}

}  // namespace
}  // namespace diva
