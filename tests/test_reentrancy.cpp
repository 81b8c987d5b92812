// Reentrant float modules: forward state lives on a per-call activation
// tape (nn/tape.h), so threads share one network without a lock. Pins:
// concurrent input_grad calls through shared nets are bit-identical to
// the same calls run one at a time, and multi-threaded training is
// reproducible (parameter gradients are reduced in chunk order).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attack/grad_source.h"
#include "core/trainer.h"
#include "data/synth_digits.h"
#include "models/factory.h"
#include "nn/activations.h"
#include "nn/init.h"
#include "nn/tape.h"
#include "quant/qat.h"
#include "quant/quantized_model.h"
#include "runtime/thread_pool.h"
#include "test_helpers.h"

namespace diva {
namespace {

using testing::random_tensor;

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) ==
             0;
}

/// d(0.5 * ||logits||^2 + logits[:, 0])/d(logits): depends on the
/// logits, so a corrupted forward shows up in the input gradient.
GradRequest probe_request() {
  GradRequest req;
  req.dlogits = [](const Tensor& logits) {
    Tensor g = logits;
    for (std::int64_t r = 0; r < logits.dim(0); ++r) g.at(r, 0) += 1.0f;
    return g;
  };
  return req;
}

/// Inputs of different batch sizes, so threads that mixed up each
/// other's shapes or activations would fail.
std::vector<Tensor> probe_inputs(const Shape& image, std::uint64_t seed) {
  std::vector<Tensor> out;
  for (std::int64_t n : {1, 2, 3, 2, 1, 3}) {
    Rng rng(seed + static_cast<std::uint64_t>(out.size()));
    Tensor x(Shape{n, image[0], image[1], image[2]});
    x.fill_uniform(rng, 0.0f, 1.0f);
    out.push_back(std::move(x));
  }
  return out;
}

/// Runs `source.input_grad` on every input sequentially, then from four
/// threads at once for many rounds (each thread preparing the source
/// like an engine shard), and requires every concurrent result to equal
/// the sequential one bit for bit.
void expect_concurrent_matches_sequential(GradSource& source,
                                          const std::vector<Tensor>& inputs,
                                          int rounds = 25) {
  const GradRequest req = probe_request();
  std::vector<Tensor> expected;
  source.prepare();
  for (const Tensor& x : inputs) expected.push_back(source.input_grad(x, req));
  source.restore();

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        source.prepare();
        for (int r = 0; r < rounds; ++r) {
          const std::size_t i =
              static_cast<std::size_t>(t + r) % inputs.size();
          if (!bit_identical(source.input_grad(inputs[i], req),
                             expected[i])) {
            ++mismatches;
          }
        }
        source.restore();
      } catch (...) {
        ++errors;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0) << source.name();
  EXPECT_EQ(mismatches.load(), 0) << source.name();
}

// ---------------------------------------------------------------------------
// The tape itself.
// ---------------------------------------------------------------------------

TEST(Tape, ScopeHoldsItsOwnRecordsAndRestoresThePreviousTape) {
  Relu relu("relu");
  const Tensor x = random_tensor(Shape{1, 4}, 1);
  const Tensor g(Shape{1, 4}, 1.0f);
  (void)relu.forward(x);  // on the thread's default tape
  {
    TapeScope scope;
    EXPECT_EQ(current_tape().size(), 0u);
    EXPECT_THROW(relu.backward(g), Error);  // the record is not here
    (void)relu.forward(x);
    EXPECT_EQ(current_tape().size(), 1u);
  }
  // The default tape's record survived the scope; backward consumes it.
  (void)relu.backward(g);
  EXPECT_THROW(relu.backward(g), Error);
}

TEST(Tape, DestroyedModuleLeavesNoRecord) {
  const std::size_t before = current_tape().size();
  {
    Relu relu("relu");
    (void)relu.forward(random_tensor(Shape{2, 3}, 2));
    EXPECT_EQ(current_tape().size(), before + 1);
  }
  EXPECT_EQ(current_tape().size(), before);
}

TEST(Tape, ModuleDestroyedOnAnotherThreadFreesItsRecord) {
  // A net run on a set-up thread and freed elsewhere must not leave its
  // activations on the set-up thread's default tape.
  auto relu = std::make_unique<Relu>("relu");
  std::mutex mu;
  std::condition_variable cv;
  int stage = 0;
  std::size_t recorded = 0, after_free = 0;
  std::thread worker([&] {
    (void)relu->forward(random_tensor(Shape{2, 3}, 3));
    std::unique_lock<std::mutex> lock(mu);
    recorded = current_tape().size();
    stage = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return stage == 2; });
    after_free = current_tape().size();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return stage == 1; });
    relu.reset();
    stage = 2;
    cv.notify_all();
  }
  worker.join();
  EXPECT_EQ(recorded, 1u);
  EXPECT_EQ(after_free, 0u);
}

TEST(Tape, GradSourceCallsLeaveNothingOnTheCallersTape) {
  auto net = make_digit_net(NetMode::kFloat);
  init_parameters(*net, 3);
  ModuleGradSource src(*net);
  const std::size_t before = current_tape().size();
  src.prepare();
  const Tensor x = probe_inputs(Shape{1, 28, 28}, 4).front();
  (void)src.logits(x);
  (void)src.input_grad(x, probe_request());
  src.restore();
  EXPECT_EQ(current_tape().size(), before);
}

// ---------------------------------------------------------------------------
// Concurrency pins: shared nets, four threads, bit-identical results.
// ---------------------------------------------------------------------------

TEST(Reentrancy, FloatArchitecturesMatchSequential) {
  // Residual, DenseBranch, BatchNorm, depthwise conv and every pool.
  for (const Arch arch : {Arch::kResNet, Arch::kMobileNet, Arch::kDenseNet}) {
    auto net = make_model(arch, 10, NetMode::kFloat);
    init_parameters(*net, 21);
    ModuleGradSource src(*net, arch_name(arch));
    expect_concurrent_matches_sequential(src,
                                         probe_inputs(Shape{3, 32, 32}, 22));
  }
}

TEST(Reentrancy, EdgeResidualActivationsMatchSequential) {
  // Sigmoid, hard-sigmoid, leaky-relu, relu6 and average pooling.
  auto net = make_edge_residual_net(10, NetMode::kFloat);
  init_parameters(*net, 23);
  ModuleGradSource src(*net, "edge");
  expect_concurrent_matches_sequential(src, probe_inputs(Shape{1, 28, 28}, 24));
}

/// A calibrated QAT digit twin and the int8 artifact compiled from it.
struct QatDigitPair {
  std::unique_ptr<Sequential> qat = make_digit_net(NetMode::kQat);
  std::unique_ptr<QuantizedModel> quantized;

  QatDigitPair() {
    init_parameters(*qat, 31);
    calibrate(*qat, {SynthDigits(32).generate(4, 0).images});
    quantized = std::make_unique<QuantizedModel>(QuantizedModel::compile(
        *qat, Shape{SynthDigits::kChannels, SynthDigits::kHeight,
                    SynthDigits::kWidth}));
  }
};

TEST(Reentrancy, QatTwinMatchesSequential) {
  // ActFakeQuant masks and per-forward fake-quantized conv/dense weights.
  QatDigitPair pair;
  ModuleGradSource src(*pair.qat, "qat");
  expect_concurrent_matches_sequential(src, probe_inputs(Shape{1, 28, 28}, 33));
}

TEST(Reentrancy, QuantSteSourceMatchesSequential) {
  QatDigitPair pair;
  QuantSteGradSource src(*pair.quantized, *pair.qat);
  expect_concurrent_matches_sequential(src, probe_inputs(Shape{1, 28, 28}, 34));
}

// ---------------------------------------------------------------------------
// Multi-threaded training is reproducible.
// ---------------------------------------------------------------------------

std::vector<Tensor> train_digit_weights(const Dataset& train) {
  auto net = make_digit_net(NetMode::kFloat);
  init_parameters(*net, 41);
  TrainConfig cfg;
  cfg.epochs = 2;
  cfg.seed = 42;
  train_classifier(*net, train, cfg);
  std::vector<Tensor> weights;
  for (auto& np : net->named_parameters()) weights.push_back(np.param->value);
  return weights;
}

TEST(TrainingDeterminism, TwoPoolTrainingRunsGiveBitIdenticalWeights) {
  // Conv backward fans each batch out over the global pool (4 threads on
  // a 4-core machine); per-chunk weight gradients are summed in chunk
  // order, not in the order the chunks finish.
  const Dataset train = SynthDigits(43).generate(12, 0);
  const std::vector<Tensor> a = train_digit_weights(train);
  const std::vector<Tensor> b = train_digit_weights(train);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bit_identical(a[i], b[i])) << "parameter " << i;
  }
  RecordProperty("pool_threads", static_cast<int>(global_pool().size()));
}

}  // namespace
}  // namespace diva
