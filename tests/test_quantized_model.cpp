// QuantizedModel compiler/executor tests: graph structure per
// architecture, batch consistency, artifact serialization round-trip,
// and error handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <thread>

#include "kernels/kernel_dispatch.h"
#include "models/factory.h"
#include "nn/init.h"
#include "nn/tape.h"
#include "quant/qat.h"
#include "quant/qmodel_io.h"
#include "tensor/serialize.h"
#include "quant/quantized_model.h"
#include "runtime/thread_pool.h"
#include "test_helpers.h"

namespace diva {
namespace {

using testing::random_tensor;

/// Calibrated QAT model of the given arch with random weights.
std::unique_ptr<Sequential> calibrated_qat(Arch arch, std::uint64_t seed) {
  auto qat = make_model(arch, 8, NetMode::kQat);
  init_parameters(*qat, seed);
  calibrate(*qat, {random_tensor(Shape{8, 3, 32, 32}, seed + 1, 0.0f, 1.0f)});
  return qat;
}

bool has_op(const QuantizedModel& m, QOp::Kind kind) {
  for (const QOp& op : m.ops()) {
    if (op.kind == kind) return true;
  }
  return false;
}

TEST(QuantizedModel, ResNetGraphContainsAddOps) {
  auto qat = calibrated_qat(Arch::kResNet, 1);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  EXPECT_TRUE(has_op(m, QOp::Kind::kConv));
  EXPECT_TRUE(has_op(m, QOp::Kind::kAdd)) << "residual adds missing";
  EXPECT_TRUE(has_op(m, QOp::Kind::kGlobalAvgPool));
  EXPECT_TRUE(has_op(m, QOp::Kind::kDense));
  EXPECT_FALSE(has_op(m, QOp::Kind::kDepthwiseConv));
}

TEST(QuantizedModel, MobileNetGraphContainsDepthwiseOps) {
  auto qat = calibrated_qat(Arch::kMobileNet, 2);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  EXPECT_TRUE(has_op(m, QOp::Kind::kDepthwiseConv));
  EXPECT_FALSE(has_op(m, QOp::Kind::kAdd));
  EXPECT_FALSE(has_op(m, QOp::Kind::kConcat));
}

TEST(QuantizedModel, DenseNetGraphContainsConcatOps) {
  auto qat = calibrated_qat(Arch::kDenseNet, 3);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  EXPECT_TRUE(has_op(m, QOp::Kind::kConcat));
  EXPECT_TRUE(has_op(m, QOp::Kind::kAvgPool));
}

TEST(QuantizedModel, EdgeResidualGraphLowersLutAddAndAvgPool) {
  auto qat = make_edge_residual_net(10, NetMode::kQat);
  init_parameters(*qat, 20);
  calibrate(*qat, {random_tensor(Shape{6, 1, 28, 28}, 21, 0.0f, 1.0f)});
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{1, 28, 28});

  // The fixture exists to exercise the extended op catalog end to end.
  EXPECT_TRUE(has_op(m, QOp::Kind::kLut)) << "LUT activations missing";
  EXPECT_TRUE(has_op(m, QOp::Kind::kAvgPool));
  EXPECT_TRUE(has_op(m, QOp::Kind::kAdd)) << "residual add missing";
  EXPECT_TRUE(has_op(m, QOp::Kind::kDepthwiseConv));

  // Three LUT activation kinds in the graph (stem hard-sigmoid, two
  // leaky-relus, head sigmoid), each carrying a complete 256-entry
  // table in its weights payload.
  int luts = 0;
  for (const QOp& op : m.ops()) {
    if (op.kind != QOp::Kind::kLut) continue;
    ++luts;
    EXPECT_EQ(op.weights.size(), 256u);
  }
  EXPECT_GE(luts, 4);

  // The executor runs it: batch forward consistent with per-image int8.
  const Tensor x = random_tensor(Shape{3, 1, 28, 28}, 22, 0.0f, 1.0f);
  const Tensor logits = m.forward(x);
  ASSERT_EQ(logits.dim(0), 3);
  ASSERT_EQ(logits.dim(1), 10);
  const QuantParams out_qp = m.output_slot().qp;
  for (std::int64_t i = 0; i < 3; ++i) {
    const auto q = m.forward_single_int8(x.raw() + i * 28 * 28);
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_EQ(logits.at(i, j),
                out_qp.dequantize(q[static_cast<std::size_t>(j)]));
    }
  }
}

TEST(QuantizedModelIo, EdgeResidualLutGraphRoundTripsBitIdentical) {
  // kLut was appended to the serialized op-kind enum; the artifact
  // format must carry its table and replay bit-identically.
  auto qat = make_edge_residual_net(10, NetMode::kQat);
  init_parameters(*qat, 23);
  calibrate(*qat, {random_tensor(Shape{6, 1, 28, 28}, 24, 0.0f, 1.0f)});
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{1, 28, 28});

  std::stringstream ss;
  save_quantized_model(m, ss);
  const QuantizedModel loaded = load_quantized_model(ss);
  EXPECT_EQ(loaded.num_ops(), m.num_ops());

  const Tensor x = random_tensor(Shape{4, 1, 28, 28}, 25, 0.0f, 1.0f);
  EXPECT_EQ(max_abs(sub(m.forward(x), loaded.forward(x))), 0.0f);
}

TEST(QuantizedModel, EveryOpReferencesValidSlots) {
  auto qat = calibrated_qat(Arch::kResNet, 4);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  const int n = static_cast<int>(m.num_slots());
  for (const QOp& op : m.ops()) {
    EXPECT_GE(op.in0, 0);
    EXPECT_LT(op.in0, n);
    EXPECT_GE(op.out, 0);
    EXPECT_LT(op.out, n);
    if (op.kind == QOp::Kind::kAdd || op.kind == QOp::Kind::kConcat) {
      EXPECT_GE(op.in1, 0);
      EXPECT_LT(op.in1, n);
    }
  }
}

TEST(QuantizedModel, BatchForwardMatchesSingleImageForward) {
  auto qat = calibrated_qat(Arch::kMobileNet, 5);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  const Tensor x = random_tensor(Shape{4, 3, 32, 32}, 6, 0.0f, 1.0f);
  const Tensor batch_logits = m.forward(x);
  const QuantParams out_qp = m.output_slot().qp;
  for (std::int64_t i = 0; i < 4; ++i) {
    const auto q = m.forward_single_int8(x.raw() + i * 3 * 32 * 32);
    for (std::int64_t j = 0; j < batch_logits.dim(1); ++j) {
      EXPECT_EQ(batch_logits.at(i, j),
                out_qp.dequantize(q[static_cast<std::size_t>(j)]));
    }
  }
}

TEST(QuantizedModel, ParallelElementwiseMatchesInlineAndPerRowForwards) {
  // requant / add / lut split a batch-64 span into chunks across the
  // global pool. The same forward inside a pool worker runs every op
  // inline, and single-image forwards never split at all; all three
  // must give the same bytes.
  auto densenet = calibrated_qat(Arch::kDenseNet, 30);
  auto edge = make_edge_residual_net(10, NetMode::kQat);
  init_parameters(*edge, 31);
  calibrate(*edge, {random_tensor(Shape{6, 1, 28, 28}, 32, 0.0f, 1.0f)});
  const QuantizedModel models[] = {
      QuantizedModel::compile(*densenet, Shape{3, 32, 32}),
      QuantizedModel::compile(*edge, Shape{1, 28, 28})};
  EXPECT_TRUE(has_op(models[0], QOp::Kind::kRequantize));
  EXPECT_TRUE(has_op(models[1], QOp::Kind::kAdd));
  EXPECT_TRUE(has_op(models[1], QOp::Kind::kLut));

  constexpr std::int64_t kBatch = 64;
  std::uint64_t seed = 33;
  for (const QuantizedModel& m : models) {
    const Shape& img = m.slots()[static_cast<std::size_t>(
                                     m.input_slot_index())].shape;
    const Tensor x =
        random_tensor(Shape{kBatch, img[0], img[1], img[2]}, ++seed, 0.0f,
                      1.0f);
    const Tensor parallel = m.forward(x);
    Tensor inline_run;
    {
      ThreadPool pool(1);
      pool.submit([&] { inline_run = m.forward(x); });
    }  // the destructor runs the queued forward, then joins
    ASSERT_EQ(parallel.shape(), inline_run.shape());
    EXPECT_EQ(std::memcmp(parallel.raw(), inline_run.raw(),
                          sizeof(float) *
                              static_cast<std::size_t>(parallel.numel())),
              0);

    const QuantParams out_qp = m.output_slot().qp;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      const auto q = m.forward_single_int8(x.raw() + i * img.numel());
      for (std::int64_t j = 0; j < parallel.dim(1); ++j) {
        ASSERT_EQ(parallel.at(i, j),
                  out_qp.dequantize(q[static_cast<std::size_t>(j)]))
            << "row " << i << " logit " << j;
      }
    }
  }
}

TEST(QuantizedModel, ForwardIsDeterministic) {
  auto qat = calibrated_qat(Arch::kDenseNet, 7);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  const Tensor x = random_tensor(Shape{2, 3, 32, 32}, 8, 0.0f, 1.0f);
  const Tensor a = m.forward(x);
  const Tensor b = m.forward(x);
  EXPECT_EQ(max_abs(sub(a, b)), 0.0f);
}

TEST(QuantizedModel, CompileRejectsUncalibratedModel) {
  auto qat = make_model(Arch::kResNet, 8, NetMode::kQat);
  init_parameters(*qat, 9);
  EXPECT_THROW(QuantizedModel::compile(*qat, Shape{3, 32, 32}), Error);
}

TEST(QuantizedModel, CompileRejectsFloatModel) {
  auto fl = make_model(Arch::kResNet, 8, NetMode::kFloat);
  init_parameters(*fl, 10);
  EXPECT_THROW(QuantizedModel::compile(*fl, Shape{3, 32, 32}), Error);
}

TEST(QuantizedModelIo, RoundTripIsBitIdentical) {
  auto qat = calibrated_qat(Arch::kResNet, 11);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});

  std::stringstream ss;
  save_quantized_model(m, ss);
  const QuantizedModel loaded = load_quantized_model(ss);

  EXPECT_EQ(loaded.num_ops(), m.num_ops());
  EXPECT_EQ(loaded.num_slots(), m.num_slots());
  EXPECT_EQ(loaded.input_qparams(), m.input_qparams());

  const Tensor x = random_tensor(Shape{3, 3, 32, 32}, 12, 0.0f, 1.0f);
  const Tensor a = m.forward(x);
  const Tensor b = loaded.forward(x);
  EXPECT_EQ(max_abs(sub(a, b)), 0.0f)
      << "deployed artifact must run bit-identically";
}

TEST(QuantizedModelIo, FileRoundTripAndWeightBytes) {
  auto qat = calibrated_qat(Arch::kMobileNet, 13);
  const QuantizedModel m = QuantizedModel::compile(*qat, Shape{3, 32, 32});
  const std::string path = ::testing::TempDir() + "/model.dq8";
  save_quantized_model_file(m, path);
  const QuantizedModel loaded = load_quantized_model_file(path);
  EXPECT_EQ(loaded.weight_bytes(), m.weight_bytes());
  // The int8 artifact is small: weights are 1 byte each.
  EXPECT_LT(m.weight_bytes(), 200000);
}

TEST(QuantizedModelIo, RejectsCorruptStream) {
  std::stringstream ss;
  write_i64(ss, 12345);  // wrong magic
  EXPECT_THROW(load_quantized_model(ss), Error);
}

TEST(QuantizedModel, FromPartsValidatesIndices) {
  std::vector<QSlot> slots(1);
  slots[0].shape = Shape{4};
  std::vector<QOp> ops(1);
  ops[0].in0 = 0;
  ops[0].out = 5;  // out of range
  EXPECT_THROW(
      QuantizedModel::from_parts(std::move(slots), std::move(ops), 0, 0),
      Error);
}

/// Compiled edge-residual graph (digit-shaped) for the mutation tests.
QuantizedModel edge_residual_model(std::uint64_t seed) {
  auto qat = make_edge_residual_net(10, NetMode::kQat);
  init_parameters(*qat, seed);
  calibrate(*qat, {random_tensor(Shape{6, 1, 28, 28}, seed + 1, 0.0f, 1.0f)});
  return QuantizedModel::compile(*qat, Shape{1, 28, 28});
}

/// Index of the first op of `kind`.
std::size_t first_op(const QuantizedModel& m, QOp::Kind kind) {
  for (std::size_t i = 0; i < m.ops().size(); ++i) {
    if (m.ops()[i].kind == kind) return i;
  }
  ADD_FAILURE() << "graph has no op of kind " << static_cast<int>(kind);
  return 0;
}

/// Rebuilds `m` from its parts after `mutate` edits one op; returns the
/// diva::Error message, or "" when from_parts accepted the graph.
std::string from_parts_error(const QuantizedModel& m, QOp::Kind kind,
                             const std::function<void(QOp&)>& mutate) {
  std::vector<QOp> ops = m.ops();
  mutate(ops[first_op(m, kind)]);
  try {
    (void)QuantizedModel::from_parts(m.slots(), std::move(ops),
                                     m.input_slot_index(),
                                     m.output_slot_index());
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(QuantizedModel, FromPartsRejectsMalformedOpsBeforePacking) {
  const QuantizedModel m = edge_residual_model(40);
  // The unmutated parts load.
  EXPECT_EQ(from_parts_error(m, QOp::Kind::kConv, [](QOp&) {}), "");

  const struct {
    const char* name;
    QOp::Kind kind;
    std::function<void(QOp&)> mutate;
    const char* message;
  } cases[] = {
      {"rq cut to one entry", QOp::Kind::kConv,
       [](QOp& op) {
         op.rq.multiplier.resize(1);
         op.rq.shift.resize(1);
       },
       "requant vectors"},
      {"bias cut to one entry", QOp::Kind::kConv,
       [](QOp& op) { op.bias.resize(1); }, "biases"},
      {"pool kind 77", QOp::Kind::kAvgPool,
       [](QOp& op) { op.kind = static_cast<QOp::Kind>(77); }, "unknown kind"},
      {"avgpool pad 1", QOp::Kind::kAvgPool, [](QOp& op) { op.geom.pad = 1; },
       "padded average pool"},
      {"conv weights one byte short", QOp::Kind::kConv,
       [](QOp& op) { op.weights.pop_back(); }, "weights"},
      {"dense rq cut to one entry", QOp::Kind::kDense,
       [](QOp& op) { op.rq.shift.resize(1); }, "requant vectors"},
      {"depthwise weights one byte short", QOp::Kind::kDepthwiseConv,
       [](QOp& op) { op.weights.pop_back(); }, "weights"},
      {"avgpool stride 0", QOp::Kind::kAvgPool,
       [](QOp& op) { op.geom.stride = 0; }, "pool geometry"},
      {"conv geometry off its slots", QOp::Kind::kConv,
       [](QOp& op) { op.geom.in_h += 1; }, "does not match"},
  };
  for (const auto& c : cases) {
    const std::string msg = from_parts_error(m, c.kind, c.mutate);
    EXPECT_NE(msg.find(c.message), std::string::npos)
        << c.name << ": " << (msg.empty() ? "accepted" : msg);
  }
}

TEST(QuantizedModel, EveryIsaTierRunsTheSamePlanBitIdenticalToScalar) {
  // One compiled model per perfbench graph; its weight plan is built
  // once, then the dispatch switches tiers between forwards.
  struct Graph {
    const char* name;
    std::unique_ptr<Sequential> qat;
    Shape shape;
  };
  std::vector<Graph> graphs;
  graphs.push_back({"digit", make_digit_net(NetMode::kQat), Shape{1, 28, 28}});
  graphs.push_back({"resnet", make_model(Arch::kResNet, 10, NetMode::kQat),
                    Shape{3, 32, 32}});
  graphs.push_back({"mobilenet",
                    make_model(Arch::kMobileNet, 10, NetMode::kQat),
                    Shape{3, 32, 32}});
  graphs.push_back({"densenet", make_model(Arch::kDenseNet, 10, NetMode::kQat),
                    Shape{3, 32, 32}});
  graphs.push_back({"edge_residual",
                    make_edge_residual_net(10, NetMode::kQat, 3),
                    Shape{3, 32, 32}});
  const IsaTier startup = active_isa_tier();
  const std::vector<IsaTier> tiers = available_isa_tiers();
  std::string covered;
  for (const IsaTier t : tiers) covered += std::string(" ") + isa_tier_name(t);
  std::printf("[ tiers    ] compiled-model forwards covered:%s\n",
              covered.c_str());

  std::uint64_t seed = 50;
  for (Graph& g : graphs) {
    init_parameters(*g.qat, ++seed);
    const Shape batch{8, g.shape[0], g.shape[1], g.shape[2]};
    calibrate(*g.qat, {random_tensor(batch, ++seed, 0.0f, 1.0f)});
    const QuantizedModel m = QuantizedModel::compile(*g.qat, g.shape);
    const Tensor x64 = random_tensor(
        Shape{64, g.shape[0], g.shape[1], g.shape[2]}, ++seed, 0.0f, 1.0f);
    const Tensor x1 = random_tensor(
        Shape{1, g.shape[0], g.shape[1], g.shape[2]}, ++seed, 0.0f, 1.0f);

    force_isa_tier(IsaTier::kScalar);
    const Tensor want64 = m.forward(x64);
    const Tensor want1 = m.forward(x1);
    for (const IsaTier t : tiers) {
      force_isa_tier(t);
      const Tensor got64 = m.forward(x64);
      const Tensor got1 = m.forward(x1);
      EXPECT_EQ(std::memcmp(got64.raw(), want64.raw(),
                            sizeof(float) *
                                static_cast<std::size_t>(want64.numel())),
                0)
          << g.name << " batch 64 at " << isa_tier_name(t);
      EXPECT_EQ(std::memcmp(got1.raw(), want1.raw(),
                            sizeof(float) *
                                static_cast<std::size_t>(want1.numel())),
                0)
          << g.name << " batch 1 at " << isa_tier_name(t);
    }
    force_isa_tier(startup);
  }
}

TEST(QuantizedModel, ConcurrentForwardsShareOneWeightPlan) {
  // Four threads run forwards through one model (and so one packed
  // weight plan) at once; each must get the single-threaded answer.
  const QuantizedModel m = edge_residual_model(60);
  std::vector<Tensor> inputs, want;
  for (std::uint64_t i = 0; i < 4; ++i) {
    inputs.push_back(random_tensor(Shape{3, 1, 28, 28}, 61 + i, 0.0f, 1.0f));
    want.push_back(m.forward(inputs.back()));
  }
  std::vector<Tensor> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 5; ++rep) got[t] = m.forward(inputs[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(max_abs(sub(got[t], want[t])), 0.0f) << "thread " << t;
  }
}

TEST(Calibrate, LeavesTheThreadsTapeAsItFoundIt) {
  // calibrate() runs forwards that no backward follows; what they
  // record must not stay on the thread's default tape.
  auto qat = make_model(Arch::kResNet, 8, NetMode::kQat);
  init_parameters(*qat, 70);
  const std::size_t before = current_tape().size();
  calibrate(*qat, {random_tensor(Shape{4, 3, 32, 32}, 71, 0.0f, 1.0f)});
  EXPECT_EQ(current_tape().size(), before);
  EXPECT_TRUE(fully_calibrated(*qat));
}

}  // namespace
}  // namespace diva
