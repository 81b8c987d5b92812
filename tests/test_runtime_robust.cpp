// Thread-pool/parallel_for tests plus robust-training behavior.
#include <gtest/gtest.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "core/trainer.h"
#include "data/synth_digits.h"
#include "metrics/metrics.h"
#include "models/factory.h"
#include "nn/init.h"
#include "robust/robust.h"
#include "runtime/thread_pool.h"

namespace diva {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  int count = 0;
  parallel_for(5, 5, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(3, 4, [&](std::int64_t i) {
    EXPECT_EQ(i, 3);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::int64_t i) {
                     if (i == 37) throw Error("boom");
                   }),
      Error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::int64_t) {
    parallel_for(0, 8, [&](std::int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ChunkedPartitionIsDisjointAndComplete) {
  std::vector<std::atomic<int>> hits(503);
  parallel_for_chunked(0, 503, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  }, /*grain=*/7);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ChunkPlanMatchesTheChunksParallelForRuns) {
  for (const std::int64_t grain : {1, 7}) {
    const ChunkPlan plan = plan_chunks(503, grain);
    std::vector<std::atomic<int>> seen(static_cast<std::size_t>(plan.count));
    parallel_for_chunked(3, 506, [&](std::int64_t lo, std::int64_t hi) {
      EXPECT_EQ((lo - 3) % plan.size, 0);
      EXPECT_LE(hi - lo, plan.size);
      seen[static_cast<std::size_t>((lo - 3) / plan.size)]++;
    }, grain);
    for (auto& s : seen) EXPECT_EQ(s.load(), 1);
  }
}

TEST(ThreadPool, DefaultWidthFollowsTheCallersAffinityMask) {
  // A thread narrowed to k CPUs (as a pinned serve worker is) builds a
  // k-wide default pool, whatever the machine's core count.
  cpu_set_t all;
  CPU_ZERO(&all);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(all), &all), 0);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  for (std::size_t k = 1; k <= cpus.size(); ++k) {
    unsigned width = 0;
    std::thread([&] {
      cpu_set_t narrow;
      CPU_ZERO(&narrow);
      for (std::size_t i = 0; i < k; ++i) CPU_SET(cpus[i], &narrow);
      ASSERT_EQ(::sched_setaffinity(0, sizeof(narrow), &narrow), 0);
      width = ThreadPool{}.size();
    }).join();
    EXPECT_EQ(width, k);
  }
}

TEST(ThreadPool, RunsSubmittedJobs) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) pool.submit([&] { done++; });
  }  // ~ThreadPool runs every queued job, then joins the workers.
  EXPECT_EQ(done.load(), 16);
}

// Many tiny fan-outs back to back. Each call's completion state sits in
// the same stack slot as the previous call's, so a task that touches
// that state after its waiter returned shows up under TSan
// (-DDIVA_SANITIZE=thread) as a race; the plain build checks counts.
constexpr int kStressCalls = 50000;
constexpr int kStressWidth = 8;

TEST(ForkJoin, StressParallelForRunsEachChunkExactlyOnce) {
  int bad_calls = 0;
  for (int call = 0; call < kStressCalls; ++call) {
    std::array<int, kStressWidth> hits{};
    parallel_for_chunked(0, kStressWidth, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (const int h : hits) bad_calls += h != 1;
  }
  EXPECT_EQ(bad_calls, 0);
}

TEST(ForkJoin, StressPrivatePoolRunsEachTaskExactlyOnce) {
  ThreadPool pool(4);
  int bad_calls = 0;
  for (int call = 0; call < kStressCalls; ++call) {
    std::array<int, kStressWidth> hits{};
    fork_join(&pool, kStressWidth,
              [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (const int h : hits) bad_calls += h != 1;
  }
  EXPECT_EQ(bad_calls, 0);
}

TEST(ForkJoin, RethrowsOnlyAfterEveryTaskFinished) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(fork_join(&pool, 6,
                         [&](std::int64_t i) {
                           if (i == 0) throw Error("boom");
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                           finished++;
                         }),
               Error);
  EXPECT_EQ(finished.load(), 5);
}

TEST(ForkJoin, InlineForNullPoolAndNestedCallOnOwnPool) {
  std::vector<std::int64_t> order;
  fork_join(nullptr, 3, [&](std::int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2}));

  // On a 1-thread pool a nested fork_join that queued work would wait
  // on its own (only) worker forever; it must run inline instead.
  ThreadPool one(1);
  std::atomic<int> total{0};
  fork_join(&one, 2, [&](std::int64_t) {
    fork_join(&one, 4, [&](std::int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 8);
}

// ---------------------------------------------------------------------------

TEST(Robust, AdversarialTrainingImprovesRobustAccuracy) {
  SynthDigits gen(51);
  const Dataset train = gen.generate(30, 0);
  const Dataset val = gen.generate(8, 9000);

  AttackConfig eval_attack;
  eval_attack.epsilon = 16.0f / 255.0f;
  eval_attack.alpha = 4.0f / 255.0f;
  eval_attack.steps = 5;

  // Standard training.
  auto plain = make_digit_net(NetMode::kFloat);
  init_parameters(*plain, 1);
  TrainConfig tcfg;
  tcfg.epochs = 6;
  tcfg.seed = 2;
  train_classifier(*plain, train, tcfg);
  const float plain_robust = robust_accuracy(*plain, val, eval_attack);

  // Adversarial training with the same budget.
  auto robust = make_digit_net(NetMode::kFloat);
  init_parameters(*robust, 1);
  RobustTrainConfig rcfg;
  rcfg.train = tcfg;
  rcfg.inner_attack.steps = 3;
  rcfg.inner_attack.alpha = 6.0f / 255.0f;
  rcfg.inner_attack.epsilon = 16.0f / 255.0f;
  adversarial_train(*robust, train, rcfg);
  const float robust_robust = robust_accuracy(*robust, val, eval_attack);

  EXPECT_GT(robust_robust, plain_robust + 0.1f)
      << "adversarial training failed to improve robustness ("
      << plain_robust << " -> " << robust_robust << ")";

  // Clean accuracy remains usable.
  robust->set_training(false);
  const float clean =
      accuracy([&](const Tensor& x) { return robust->forward(x); }, val);
  EXPECT_GT(clean, 0.5f);
}

}  // namespace
}  // namespace diva
