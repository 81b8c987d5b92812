// QuantizedModel: the deployed integer-only edge model.
//
// This is the reproduction's stand-in for a TFLite int8 flatbuffer: a
// small static IR (ops over int8 slot buffers) compiled from a trained
// QAT graph. Weights are quantized per output channel with exactly the
// same grid the QAT fake-quant layers simulated; activation grids come
// from the frozen ActFakeQuant observers; ReLU/ReLU6 are fused into the
// requantization clamp. Inference is integer-only (int32 accumulators,
// fixed-point requantization) — only the final logits are dequantized.
//
// The converter understands the module patterns emitted by the model
// factories in src/models:
//   [ActFakeQuant] input stub
//   [QatConv2d|QatDepthwiseConv2d] (+ Relu|Relu6)? + ActFakeQuant
//   [QatDense] + ActFakeQuant
//   [MaxPool2d|AvgPool2d|GlobalAvgPool|Flatten]    (scale preserving)
//   [Sigmoid|HardSigmoid|LeakyRelu] + ActFakeQuant -> QLut
//   [Residual] (+ Relu)? + ActFakeQuant            -> QAdd
//   [DenseBranch] + ActFakeQuant                   -> QConcat
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "quant/int8_kernels.h"

namespace diva {

class Sequential;

/// One intermediate tensor of the int8 graph.
struct QSlot {
  Shape shape;      // per-image shape (no batch dim), e.g. [C,H,W] or [D]
  QuantParams qp;
};

/// One operation of the int8 graph.
struct QOp {
  enum class Kind {
    kConv,
    kDepthwiseConv,
    kDense,
    kMaxPool,
    kAvgPool,
    kGlobalAvgPool,
    kFlatten,
    kAdd,
    kConcat,
    kRequantize,
    // LUT-lowered pointwise activation (sigmoid / hard-sigmoid /
    // leaky-relu). Appended last so serialized op kinds stay stable.
    kLut,
  };

  Kind kind;
  int in0 = -1, in1 = -1;  // input slot ids (in1 only for kAdd/kConcat)
  int out = -1;

  // Conv / dense payload. kLut reuses `weights` for its 256-entry table.
  ConvGeom geom;
  std::int64_t out_c = 0;
  std::vector<std::int8_t> weights;  // conv: [OC,IC,K,K]; dense: [out][in]
  std::vector<std::int32_t> bias;
  RequantChannel rq;
  std::int32_t act_min = kQmin;
  std::int32_t act_max = kQmax;
};

class QuantizedModel {
 public:
  /// Compiles a calibrated QAT model (eval mode, observers initialized)
  /// into an integer-only graph. `image_shape` is the per-image input
  /// shape [C, H, W]. Throws diva::Error on unsupported patterns.
  static QuantizedModel compile(Sequential& qat_model,
                                const Shape& image_shape);

  /// Runs float [N,C,H,W] inputs through the int8 graph and returns
  /// dequantized float logits [N, classes]. True batched execution: the
  /// graph runs layer by layer over the whole batch (slot buffers sized
  /// N x slot in workspace scratch, convs batch-parallel over the
  /// thread pool, the dense head one whole-batch GEMM) — this is the
  /// path the AttackEngine and the FD/SPSA gradient probes drive.
  Tensor forward(const Tensor& x) const;

  /// Integer-only path for one image (CHW floats are quantized at the
  /// input grid first). Returns raw int8 logits. Thin wrapper over the
  /// batched executor with N = 1.
  std::vector<std::int8_t> forward_single_int8(const float* image) const;

  /// Integer-only batched executor: `images` holds n contiguous CHW
  /// float images; writes n x classes raw int8 logits.
  void run_batch_int8(const float* images, std::int64_t n,
                      std::int8_t* out_logits) const;

  const QuantParams& input_qparams() const { return slots_[0].qp; }
  const QSlot& output_slot() const { return slots_[output_slot_]; }
  std::size_t num_ops() const { return ops_.size(); }
  std::size_t num_slots() const { return slots_.size(); }
  const std::vector<QOp>& ops() const { return ops_; }
  const std::vector<QSlot>& slots() const { return slots_; }
  int input_slot_index() const { return input_slot_; }
  int output_slot_index() const { return output_slot_; }

  /// Reassembles a model from its serialized parts (quant/qmodel_io.h).
  /// Throws diva::Error on a malformed graph: slot indices out of range,
  /// an unknown op kind, a weight, bias or requant vector whose length
  /// does not match the op's geometry and out_c, a conv or pool whose
  /// geometry does not match its input and output slots, or a padded
  /// average pool.
  static QuantizedModel from_parts(std::vector<QSlot> slots,
                                   std::vector<QOp> ops, int input_slot,
                                   int output_slot);

  /// Approximate serialized size in bytes (weights + biases), the
  /// "model size" statistic quoted when comparing edge adaptations.
  std::int64_t weight_bytes() const;

 private:
  /// The one constructor path of compile() and from_parts(): verifies
  /// the graph, then builds the weight plan.
  static QuantizedModel assemble(std::vector<QSlot> slots,
                                 std::vector<QOp> ops, int input_slot,
                                 int output_slot);

  std::vector<QSlot> slots_;
  std::vector<QOp> ops_;
  int input_slot_ = 0;
  int output_slot_ = 0;
  // The weight plan: packed_[op][tier] holds a conv or dense op's
  // weights packed for that ISA tier, with bias and zero-point
  // correction folded in, for every tier this process can run (so
  // force_isa_tier() may switch tiers between forwards). Other entries
  // are empty. Read-only after assemble(), so concurrent forwards share
  // it without a lock.
  std::vector<std::array<IgemmPackedA, kNumIsaTiers>> packed_;
};

}  // namespace diva
