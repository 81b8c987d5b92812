// Pruning and distillation tests.
#include <gtest/gtest.h>

#include <string>

#include "core/trainer.h"
#include "data/synth_digits.h"
#include "distill/distill.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "metrics/metrics.h"
#include "models/factory.h"
#include "nn/init.h"
#include "prune/prune.h"
#include "test_helpers.h"

namespace diva {
namespace {

TEST(Prune, PruneToReachesRequestedSparsityPerLayer) {
  auto m = make_digit_net(NetMode::kFloat);
  init_parameters(*m, 1);
  MagnitudePruner pruner(*m, PruneConfig{.target_sparsity = 0.5f});
  pruner.prune_to(0.5f);
  EXPECT_NEAR(pruner.actual_sparsity(), 0.5f, 0.02f);
}

TEST(Prune, KeepsLargestMagnitudes) {
  Sequential net("net");
  auto& fc = net.emplace<Dense>("fc", 4, 2);
  float vals[8] = {0.9f, -0.1f, 0.5f, -0.05f, 0.01f, 0.8f, -0.3f, 0.02f};
  for (int i = 0; i < 8; ++i) fc.weight().value[i] = vals[i];
  MagnitudePruner pruner(net, PruneConfig{.target_sparsity = 0.5f});
  pruner.prune_to(0.5f);
  // Survivors should be the four largest |w|: 0.9, 0.8, 0.5, -0.3.
  EXPECT_EQ(fc.weight().value[0], 0.9f);
  EXPECT_EQ(fc.weight().value[5], 0.8f);
  EXPECT_EQ(fc.weight().value[2], 0.5f);
  EXPECT_EQ(fc.weight().value[6], -0.3f);
  EXPECT_EQ(fc.weight().value[1], 0.0f);
  EXPECT_EQ(fc.weight().value[3], 0.0f);
  EXPECT_EQ(fc.weight().value[4], 0.0f);
  EXPECT_EQ(fc.weight().value[7], 0.0f);
}

TEST(Prune, ScheduleIsMonotoneAndReachesTarget) {
  auto m = make_digit_net(NetMode::kFloat);
  init_parameters(*m, 2);
  PruneConfig cfg;
  cfg.target_sparsity = 0.7f;
  cfg.ramp_steps = 100;
  cfg.update_every = 5;
  MagnitudePruner pruner(*m, cfg);
  float prev = -1.0f;
  for (int step = 0; step < 120; ++step) {
    pruner.step();
    const float s = pruner.scheduled_sparsity();
    EXPECT_GE(s, prev - 1e-6f);
    prev = s;
  }
  EXPECT_NEAR(pruner.scheduled_sparsity(), 0.7f, 1e-5f);
  EXPECT_NEAR(pruner.actual_sparsity(), 0.7f, 0.02f);
}

TEST(Prune, MasksPersistThroughTrainingSteps) {
  SynthDigits gen(5);
  const Dataset train = gen.generate(10, 0);
  auto m = make_digit_net(NetMode::kFloat);
  init_parameters(*m, 3);
  MagnitudePruner pruner(*m, PruneConfig{.target_sparsity = 0.5f});
  pruner.prune_to(0.5f);

  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.lr = 0.05f;
  cfg.post_step = [&pruner] { pruner.apply_masks(); };
  train_classifier(*m, train, cfg);
  // Gradient updates would densify without the post-step mask.
  EXPECT_NEAR(pruner.actual_sparsity(), 0.5f, 0.02f);
}

TEST(Prune, FromExistingZerosFreezesPattern) {
  auto m = make_digit_net(NetMode::kFolded);
  init_parameters(*m, 4);
  MagnitudePruner first(*m, PruneConfig{.target_sparsity = 0.6f});
  first.prune_to(0.6f);

  MagnitudePruner frozen = MagnitudePruner::from_existing_zeros(*m);
  EXPECT_NEAR(frozen.actual_sparsity(), 0.6f, 0.02f);
  // Perturb all weights, re-apply: zeros return exactly.
  for (auto& np : m->named_parameters()) {
    if (np.param->trainable) {
      for (std::int64_t i = 0; i < np.param->value.numel(); ++i) {
        np.param->value[i] += 0.01f;
      }
    }
  }
  frozen.apply_masks();
  EXPECT_NEAR(frozen.actual_sparsity(), 0.6f, 0.02f);
}

TEST(Prune, RejectsInvalidConfig) {
  auto m = make_digit_net(NetMode::kFloat);
  EXPECT_THROW(MagnitudePruner(*m, PruneConfig{.target_sparsity = 1.0f}),
               Error);
  PruneConfig bad;
  bad.ramp_steps = 0;
  EXPECT_THROW(MagnitudePruner(*m, bad), Error);
}

// ---------------------------------------------------------------------------

struct DistillFixture {
  Dataset train, pool, val;
  std::unique_ptr<Sequential> teacher;

  DistillFixture() {
    SynthDigits gen(31);
    train = gen.generate(40, 0);
    pool = gen.generate(40, 10000);  // attacker's disjoint pool
    val = gen.generate(10, 20000);
    teacher = make_digit_net(NetMode::kFloat);
    init_parameters(*teacher, 5);
    TrainConfig cfg;
    cfg.epochs = 6;
    cfg.seed = 6;
    train_classifier(*teacher, train, cfg);
  }
};

DistillFixture& dfix() {
  static DistillFixture f;
  return f;
}

TEST(Distill, StudentLearnsToAgreeWithTeacher) {
  auto& f = dfix();
  const TeacherFn teacher_fn = [&](const Tensor& x) {
    f.teacher->set_training(false);
    return f.teacher->forward(x);
  };

  auto student = make_digit_net(NetMode::kFolded);
  init_parameters(*student, 99);
  const float before = agreement(*student, teacher_fn, f.val.images);

  DistillConfig cfg;
  cfg.epochs = 10;
  cfg.seed = 7;
  distill(*student, teacher_fn, f.pool.images, cfg);
  const float after = agreement(*student, teacher_fn, f.val.images);
  RecordProperty("agreement", std::to_string(after));
  EXPECT_GT(after, before + 0.3f);
  EXPECT_GT(after, 0.7f);
}

TEST(Distill, KlDivergenceDropsAfterDistillation) {
  auto& f = dfix();
  const TeacherFn teacher_fn = [&](const Tensor& x) {
    f.teacher->set_training(false);
    return f.teacher->forward(x);
  };
  auto student = make_digit_net(NetMode::kFolded);
  init_parameters(*student, 123);
  student->set_training(false);
  const Tensor t_logits = teacher_fn(f.val.images);
  const float kl_before =
      kl_divergence(t_logits, student->forward(f.val.images));
  DistillConfig cfg;
  cfg.epochs = 8;
  distill(*student, teacher_fn, f.pool.images, cfg);
  student->set_training(false);
  const float kl_after =
      kl_divergence(t_logits, student->forward(f.val.images));
  EXPECT_LT(kl_after, kl_before * 0.5f);
}

TEST(Distill, WorksWithPredictionOnlyTeacher) {
  // Blackbox condition: teacher callback may be any function — here a
  // deliberately quantized-logit teacher (coarse outputs).
  auto& f = dfix();
  const TeacherFn coarse_teacher = [&](const Tensor& x) {
    f.teacher->set_training(false);
    Tensor logits = f.teacher->forward(x);
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      logits[i] = std::round(logits[i] * 2.0f) / 2.0f;
    }
    return logits;
  };
  auto student = make_digit_net(NetMode::kFolded);
  init_parameters(*student, 321);
  DistillConfig cfg;
  cfg.epochs = 8;
  distill(*student, coarse_teacher, f.pool.images, cfg);
  EXPECT_GT(agreement(*student, coarse_teacher, f.val.images), 0.6f);
}

}  // namespace
}  // namespace diva
