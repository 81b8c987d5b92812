#include "quant/quantized_model.h"

#include <algorithm>
#include <cmath>

#include "kernels/workspace.h"
#include "nn/activations.h"
#include "nn/composite.h"
#include "nn/flatten.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "quant/qat_layers.h"
#include "runtime/thread_pool.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "tensor/tensor_ops.h"

namespace diva {

namespace {

enum class ReluKind { kNone, kRelu, kRelu6 };

/// Incremental graph state while compiling.
struct Builder {
  std::vector<QSlot> slots;
  std::vector<QOp> ops;

  int add_slot(Shape shape, QuantParams qp) {
    slots.push_back({std::move(shape), qp});
    return static_cast<int>(slots.size() - 1);
  }

  /// Activation clamp bounds in the int8 domain for a fused activation.
  std::pair<std::int32_t, std::int32_t> act_bounds(ReluKind relu,
                                                   const QuantParams& qp) {
    std::int32_t lo = kQmin, hi = kQmax;
    if (relu == ReluKind::kRelu || relu == ReluKind::kRelu6) {
      lo = std::clamp<std::int32_t>(qp.zero_point, kQmin, kQmax);
    }
    if (relu == ReluKind::kRelu6) {
      hi = std::clamp<std::int32_t>(
          qp.zero_point + static_cast<std::int32_t>(std::lround(6.0f / qp.scale)),
          kQmin, kQmax);
    }
    return {lo, hi};
  }

  int emit_conv(QatConv2d& conv, ReluKind relu, const QuantParams& out_qp,
                int in_slot) {
    const QSlot& in = slots[static_cast<std::size_t>(in_slot)];
    DIVA_CHECK(in.shape.rank() == 3, "conv input must be CHW");
    QOp op;
    op.kind = QOp::Kind::kConv;
    op.in0 = in_slot;
    op.geom = ConvGeom{in.shape[0], in.shape[1], in.shape[2], conv.kernel(),
                       conv.kernel(), conv.stride(), conv.pad()};
    op.out_c = conv.out_channels();
    const auto scales = conv.effective_scales();
    op.weights = quantize_per_channel(conv.weight().value, scales);
    op.bias.resize(static_cast<std::size_t>(op.out_c), 0);
    for (std::int64_t c = 0; c < op.out_c; ++c) {
      const float b = conv.has_bias() ? conv.bias().value[c] : 0.0f;
      op.bias[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(
          std::lround(b / (in.qp.scale * scales[static_cast<std::size_t>(c)])));
    }
    op.rq = make_requant(in.qp.scale, scales, out_qp.scale);
    std::tie(op.act_min, op.act_max) = act_bounds(relu, out_qp);
    op.out = add_slot(Shape{op.out_c, op.geom.out_h(), op.geom.out_w()},
                      out_qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int emit_depthwise(QatDepthwiseConv2d& conv, ReluKind relu,
                     const QuantParams& out_qp, int in_slot) {
    const QSlot& in = slots[static_cast<std::size_t>(in_slot)];
    DIVA_CHECK(in.shape.rank() == 3 && in.shape[0] == conv.channels(),
               "depthwise input mismatch");
    QOp op;
    op.kind = QOp::Kind::kDepthwiseConv;
    op.in0 = in_slot;
    op.geom = ConvGeom{conv.channels(), in.shape[1], in.shape[2],
                       conv.kernel(), conv.kernel(), conv.stride(),
                       conv.pad()};
    op.out_c = conv.channels();
    const auto scales = conv.weight_scales();
    op.weights = quantize_per_channel(conv.weight().value, scales);
    op.bias.resize(static_cast<std::size_t>(op.out_c), 0);
    for (std::int64_t c = 0; c < op.out_c; ++c) {
      const float b = conv.has_bias() ? conv.bias().value[c] : 0.0f;
      op.bias[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(
          std::lround(b / (in.qp.scale * scales[static_cast<std::size_t>(c)])));
    }
    op.rq = make_requant(in.qp.scale, scales, out_qp.scale);
    std::tie(op.act_min, op.act_max) = act_bounds(relu, out_qp);
    op.out = add_slot(Shape{op.out_c, op.geom.out_h(), op.geom.out_w()},
                      out_qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int emit_dense(QatDense& dense, ReluKind relu, const QuantParams& out_qp,
                 int in_slot) {
    const QSlot& in = slots[static_cast<std::size_t>(in_slot)];
    DIVA_CHECK(in.shape.rank() == 1 && in.shape[0] == dense.in_features(),
               "dense input mismatch: slot " << in.shape.str());
    QOp op;
    op.kind = QOp::Kind::kDense;
    op.in0 = in_slot;
    op.out_c = dense.out_features();
    const auto scales = dense.weight_scales();
    // Transpose [in, out] float weights into output-major int8 rows.
    const Tensor& w = dense.weight().value;
    const std::int64_t in_f = w.dim(0), out_f = w.dim(1);
    op.weights.resize(static_cast<std::size_t>(in_f * out_f));
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float s = scales[static_cast<std::size_t>(o)];
      for (std::int64_t i = 0; i < in_f; ++i) {
        const auto q =
            static_cast<std::int32_t>(std::lround(w.at(i, o) / s));
        op.weights[static_cast<std::size_t>(o * in_f + i)] =
            static_cast<std::int8_t>(std::clamp<std::int32_t>(q, kQmin, kQmax));
      }
    }
    op.bias.resize(static_cast<std::size_t>(out_f), 0);
    for (std::int64_t o = 0; o < out_f; ++o) {
      const float b = dense.has_bias() ? dense.bias().value[o] : 0.0f;
      op.bias[static_cast<std::size_t>(o)] = static_cast<std::int32_t>(
          std::lround(b / (in.qp.scale * scales[static_cast<std::size_t>(o)])));
    }
    op.rq = make_requant(in.qp.scale, scales, out_qp.scale);
    std::tie(op.act_min, op.act_max) = act_bounds(relu, out_qp);
    op.geom.in_c = in_f;  // stashes in_features for the executor
    op.out = add_slot(Shape{out_f}, out_qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int emit_simple(QOp::Kind kind, int in_slot, Shape out_shape,
                  const ConvGeom& geom = {}) {
    const QSlot& in = slots[static_cast<std::size_t>(in_slot)];
    QOp op;
    op.kind = kind;
    op.in0 = in_slot;
    op.geom = geom;
    op.out = add_slot(std::move(out_shape), in.qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int emit_requantize(int in_slot, const QuantParams& out_qp) {
    const QSlot& in = slots[static_cast<std::size_t>(in_slot)];
    if (in.qp == out_qp) return in_slot;
    QOp op;
    op.kind = QOp::Kind::kRequantize;
    op.in0 = in_slot;
    op.out = add_slot(in.shape, out_qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int emit_lut(LutKind kind, float slope, const QuantParams& out_qp,
               int in_slot) {
    const QSlot& in = slots[static_cast<std::size_t>(in_slot)];
    QOp op;
    op.kind = QOp::Kind::kLut;
    op.in0 = in_slot;
    op.weights = build_activation_lut(kind, in.qp, out_qp, slope);
    op.out = add_slot(in.shape, out_qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int emit_add(int a, int b, ReluKind relu, const QuantParams& out_qp) {
    const QSlot& sa = slots[static_cast<std::size_t>(a)];
    DIVA_CHECK(sa.shape == slots[static_cast<std::size_t>(b)].shape,
               "qadd operand shape mismatch");
    QOp op;
    op.kind = QOp::Kind::kAdd;
    op.in0 = a;
    op.in1 = b;
    std::tie(op.act_min, op.act_max) = act_bounds(relu, out_qp);
    op.out = add_slot(sa.shape, out_qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int emit_concat(int a, int b, const QuantParams& out_qp) {
    const QSlot& sa = slots[static_cast<std::size_t>(a)];
    const QSlot& sb = slots[static_cast<std::size_t>(b)];
    DIVA_CHECK(sa.shape.rank() == 3 && sb.shape.rank() == 3 &&
                   sa.shape[1] == sb.shape[1] && sa.shape[2] == sb.shape[2],
               "qconcat operand shape mismatch");
    QOp op;
    op.kind = QOp::Kind::kConcat;
    op.in0 = a;
    op.in1 = b;
    op.out = add_slot(
        Shape{sa.shape[0] + sb.shape[0], sa.shape[1], sa.shape[2]}, out_qp);
    ops.push_back(std::move(op));
    return ops.back().out;
  }

  int build_sequential(Sequential& seq, int in_slot);
};

ReluKind relu_kind_of(Module* m) {
  if (dynamic_cast<Relu6*>(m) != nullptr) return ReluKind::kRelu6;
  if (dynamic_cast<Relu*>(m) != nullptr) return ReluKind::kRelu;
  return ReluKind::kNone;
}

/// Activations that lower to a 256-entry LUT instead of a fused clamp.
struct LutMatch {
  bool matched = false;
  LutKind kind = LutKind::kSigmoid;
  float slope = 0.0f;
};

LutMatch lut_kind_of(Module* m) {
  if (dynamic_cast<Sigmoid*>(m) != nullptr) {
    return {true, LutKind::kSigmoid, 0.0f};
  }
  if (dynamic_cast<HardSigmoid*>(m) != nullptr) {
    return {true, LutKind::kHardSigmoid, 0.0f};
  }
  if (auto* lr = dynamic_cast<LeakyRelu*>(m)) {
    return {true, LutKind::kLeakyRelu, lr->slope()};
  }
  return {};
}

/// Looks ahead from position i+1 for "(Relu)? ActFakeQuant"; returns the
/// fake-quant node, the relu kind, and how many modules were consumed.
struct Lookahead {
  ActFakeQuant* fq = nullptr;
  ReluKind relu = ReluKind::kNone;
  std::size_t consumed = 0;
};

Lookahead lookahead_act(const std::vector<Module*>& kids, std::size_t i) {
  Lookahead la;
  std::size_t j = i + 1;
  if (j < kids.size()) {
    const ReluKind rk = relu_kind_of(kids[j]);
    if (rk != ReluKind::kNone) {
      la.relu = rk;
      ++j;
    }
  }
  if (j < kids.size()) {
    if (auto* fq = dynamic_cast<ActFakeQuant*>(kids[j])) {
      la.fq = fq;
      la.consumed = j - i;
    }
  }
  return la;
}

QuantParams frozen_qparams(ActFakeQuant& fq) {
  DIVA_CHECK(fq.initialized(),
             "ActFakeQuant '" << fq.name()
                              << "' is uncalibrated; run calibration first");
  return fq.qparams();
}

int Builder::build_sequential(Sequential& seq, int in_slot) {
  auto kids = seq.children();
  int cur = in_slot;
  std::size_t i = 0;
  while (i < kids.size()) {
    Module* m = kids[i];

    if (auto* fq = dynamic_cast<ActFakeQuant*>(m)) {
      cur = emit_requantize(cur, frozen_qparams(*fq));
      ++i;
      continue;
    }
    // Order matters: QAT types derive from the float layers.
    if (auto* dw = dynamic_cast<QatDepthwiseConv2d*>(m)) {
      const Lookahead la = lookahead_act(kids, i);
      DIVA_CHECK(la.fq != nullptr, "QatDepthwiseConv2d '"
                                       << m->name()
                                       << "' must be followed by ActFakeQuant");
      cur = emit_depthwise(*dw, la.relu, frozen_qparams(*la.fq), cur);
      i += 1 + la.consumed;
      continue;
    }
    if (auto* conv = dynamic_cast<QatConv2d*>(m)) {
      const Lookahead la = lookahead_act(kids, i);
      DIVA_CHECK(la.fq != nullptr, "QatConv2d '"
                                       << m->name()
                                       << "' must be followed by ActFakeQuant");
      cur = emit_conv(*conv, la.relu, frozen_qparams(*la.fq), cur);
      i += 1 + la.consumed;
      continue;
    }
    if (auto* dense = dynamic_cast<QatDense*>(m)) {
      const Lookahead la = lookahead_act(kids, i);
      DIVA_CHECK(la.fq != nullptr, "QatDense '"
                                       << m->name()
                                       << "' must be followed by ActFakeQuant");
      cur = emit_dense(*dense, la.relu, frozen_qparams(*la.fq), cur);
      i += 1 + la.consumed;
      continue;
    }
    if (const LutMatch lut = lut_kind_of(m); lut.matched) {
      ActFakeQuant* fq =
          i + 1 < kids.size() ? dynamic_cast<ActFakeQuant*>(kids[i + 1])
                              : nullptr;
      DIVA_CHECK(fq != nullptr,
                 "LUT activation '" << m->name()
                                    << "' must be followed by ActFakeQuant");
      cur = emit_lut(lut.kind, lut.slope, frozen_qparams(*fq), cur);
      i += 2;
      continue;
    }
    if (auto* res = dynamic_cast<Residual*>(m)) {
      const Lookahead la = lookahead_act(kids, i);
      DIVA_CHECK(la.fq != nullptr, "Residual '"
                                       << m->name()
                                       << "' must be followed by ActFakeQuant");
      const int a = build_sequential(res->main_branch(), cur);
      const int b = res->has_projection()
                        ? build_sequential(*res->shortcut(), cur)
                        : cur;
      cur = emit_add(a, b, la.relu, frozen_qparams(*la.fq));
      i += 1 + la.consumed;
      continue;
    }
    if (auto* db = dynamic_cast<DenseBranch*>(m)) {
      const Lookahead la = lookahead_act(kids, i);
      DIVA_CHECK(la.fq != nullptr, "DenseBranch '"
                                       << m->name()
                                       << "' must be followed by ActFakeQuant");
      const int grown = build_sequential(db->body(), cur);
      const QuantParams out_qp = frozen_qparams(*la.fq);
      DIVA_CHECK(la.relu == ReluKind::kNone,
                 "activation after DenseBranch is unsupported");
      // Requantize both inputs to the concat output grid first.
      const int a = emit_requantize(cur, out_qp);
      const int b = emit_requantize(grown, out_qp);
      cur = emit_concat(a, b, out_qp);
      i += 1 + la.consumed;
      continue;
    }
    if (auto* mp = dynamic_cast<MaxPool2d*>(m)) {
      const QSlot& in = slots[static_cast<std::size_t>(cur)];
      ConvGeom g{in.shape[0], in.shape[1], in.shape[2], mp->kernel(),
                 mp->kernel(), mp->stride(), mp->pad()};
      cur = emit_simple(QOp::Kind::kMaxPool, cur,
                        Shape{g.in_c, g.out_h(), g.out_w()}, g);
      ++i;
      continue;
    }
    if (auto* ap = dynamic_cast<AvgPool2d*>(m)) {
      const QSlot& in = slots[static_cast<std::size_t>(cur)];
      ConvGeom g{in.shape[0], in.shape[1], in.shape[2], ap->kernel(),
                 ap->kernel(), ap->stride(), 0};
      cur = emit_simple(QOp::Kind::kAvgPool, cur,
                        Shape{g.in_c, g.out_h(), g.out_w()}, g);
      ++i;
      continue;
    }
    if (dynamic_cast<GlobalAvgPool*>(m) != nullptr) {
      const QSlot& in = slots[static_cast<std::size_t>(cur)];
      DIVA_CHECK(in.shape.rank() == 3, "gap input must be CHW");
      ConvGeom g{in.shape[0], in.shape[1], in.shape[2], 1, 1, 1, 0};
      cur = emit_simple(QOp::Kind::kGlobalAvgPool, cur, Shape{in.shape[0]}, g);
      ++i;
      continue;
    }
    if (dynamic_cast<Flatten*>(m) != nullptr) {
      const QSlot& in = slots[static_cast<std::size_t>(cur)];
      cur = emit_simple(QOp::Kind::kFlatten, cur, Shape{in.shape.numel()});
      ++i;
      continue;
    }
    if (dynamic_cast<Identity*>(m) != nullptr) {
      ++i;
      continue;
    }
    if (auto* inner = dynamic_cast<Sequential*>(m)) {
      cur = build_sequential(*inner, cur);
      ++i;
      continue;
    }
    DIVA_FAIL("QuantizedModel: unsupported module '"
              << m->name() << "' (is the model built in QAT mode?)");
  }
  return cur;
}

}  // namespace

QuantizedModel QuantizedModel::compile(Sequential& qat_model,
                                       const Shape& image_shape) {
  DIVA_CHECK(image_shape.rank() == 3, "image_shape must be [C,H,W]");
  qat_model.set_training(false);

  auto kids = qat_model.children();
  DIVA_CHECK(!kids.empty(), "empty model");
  auto* input_stub = dynamic_cast<ActFakeQuant*>(kids[0]);
  DIVA_CHECK(input_stub != nullptr,
             "QAT model must start with an input ActFakeQuant stub");

  Builder b;
  QuantizedModel qm;
  const int in_slot = b.add_slot(image_shape, frozen_qparams(*input_stub));

  // Build the rest of the graph; the stub itself defines slot 0's grid,
  // so skip it by compiling a view without the first child. Simplest:
  // compile the whole Sequential — the leading emit_requantize against
  // identical qparams is a no-op returning slot 0.
  const int out_slot = b.build_sequential(qat_model, in_slot);
  DIVA_CHECK(b.slots[static_cast<std::size_t>(out_slot)].shape.rank() == 1,
             "model output must be a flat logits vector");

  qm.slots_ = std::move(b.slots);
  qm.ops_ = std::move(b.ops);
  qm.input_slot_ = in_slot;
  qm.output_slot_ = out_slot;
  return qm;
}

void QuantizedModel::run_batch_int8(const float* images, std::int64_t n,
                                    std::int8_t* out_logits) const {
  // Cap the slot-buffer width so one huge probe batch (the coordinate-FD
  // source submits 512 images at a time) can't pin the thread's arena at
  // batch x sum-of-all-slots bytes forever; chunks are still wide enough
  // that the per-layer GEMMs amortize.
  constexpr std::int64_t kMaxChunk = 64;
  if (n > kMaxChunk) {
    const QSlot& in0 = slots_[static_cast<std::size_t>(input_slot_)];
    const std::int64_t classes =
        slots_[static_cast<std::size_t>(output_slot_)].shape.numel();
    for (std::int64_t at = 0; at < n; at += kMaxChunk) {
      const std::int64_t take = std::min(kMaxChunk, n - at);
      run_batch_int8(images + at * in0.shape.numel(), take,
                     out_logits + at * classes);
    }
    return;
  }

  // One workspace frame holds every slot buffer at batch width: buffer
  // for slot s is [n, slot_numel] row-major. The graph executes layer by
  // layer over the whole batch — convolutions fan the batch across the
  // thread pool (each worker lowers+GEMMs its images with thread-local
  // scratch), the dense head runs as a single whole-batch GEMM, and
  // elementwise ops fan chunks of the flat [n * numel] span the same way.
  auto frame = Workspace::tls().frame();
  std::vector<std::int8_t*> buffers(slots_.size(), nullptr);
  std::vector<std::int64_t> sizes(slots_.size(), 0);
  // Arena memory is uninitialized; track writes so a miswired graph
  // fails fast instead of consuming stale bytes.
  std::vector<bool> written(slots_.size(), false);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    sizes[s] = slots_[s].shape.numel();
    buffers[s] = frame.alloc<std::int8_t>(n * sizes[s]);
  }

  const QSlot& in = slots_[static_cast<std::size_t>(input_slot_)];
  const std::int64_t per = in.shape.numel();
  std::int8_t* qin = buffers[static_cast<std::size_t>(input_slot_)];
  parallel_for_chunked(0, n * per, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) qin[i] = in.qp.quantize(images[i]);
  }, /*grain=*/4096);
  written[static_cast<std::size_t>(input_slot_)] = true;

  // Elementwise ops split the flat [n * numel] span into chunks of at
  // least this many elements, so the 256-entry tables qadd and
  // qrequantize build per call cost next to nothing per chunk.
  constexpr std::int64_t kElementwiseGrain = 16384;

  for (const QOp& op : ops_) {
    DIVA_CHECK(written[static_cast<std::size_t>(op.in0)] &&
                   (op.in1 < 0 || written[static_cast<std::size_t>(op.in1)]),
               "int8 executor: dangling input slot");
    written[static_cast<std::size_t>(op.out)] = true;
    const std::int8_t* src = buffers[static_cast<std::size_t>(op.in0)];
    std::int8_t* dst = buffers[static_cast<std::size_t>(op.out)];
    const QSlot& in_slot = slots_[static_cast<std::size_t>(op.in0)];
    const QSlot& out_slot = slots_[static_cast<std::size_t>(op.out)];
    const std::int64_t in_n = sizes[static_cast<std::size_t>(op.in0)];
    const std::int64_t out_n = sizes[static_cast<std::size_t>(op.out)];
    const auto elementwise = [&](const auto& fn) {
      DIVA_CHECK(in_n == out_n, "int8 executor: elementwise size mismatch");
      parallel_for_chunked(
          0, n * in_n,
          [&](std::int64_t lo, std::int64_t hi) {
            fn(lo, static_cast<std::size_t>(hi - lo));
          },
          kElementwiseGrain);
    };

    switch (op.kind) {
      case QOp::Kind::kConv:
        parallel_for(0, n, [&](std::int64_t i) {
          qconv2d(src + i * in_n, op.geom, in_slot.qp.zero_point,
                  op.weights.data(), op.out_c, op.bias.data(), op.rq,
                  out_slot.qp.zero_point, op.act_min, op.act_max,
                  dst + i * out_n);
        });
        break;
      case QOp::Kind::kDepthwiseConv:
        parallel_for(0, n, [&](std::int64_t i) {
          qdepthwise_conv2d(src + i * in_n, op.geom, in_slot.qp.zero_point,
                            op.weights.data(), op.bias.data(), op.rq,
                            out_slot.qp.zero_point, op.act_min, op.act_max,
                            dst + i * out_n);
        });
        break;
      case QOp::Kind::kDense:
        qdense_batched(src, n, op.geom.in_c, in_slot.qp.zero_point,
                       op.weights.data(), op.out_c, op.bias.data(), op.rq,
                       out_slot.qp.zero_point, op.act_min, op.act_max, dst);
        break;
      case QOp::Kind::kMaxPool:
        parallel_for(0, n, [&](std::int64_t i) {
          qmaxpool2d(src + i * in_n, op.geom, dst + i * out_n);
        });
        break;
      case QOp::Kind::kAvgPool:
        parallel_for(0, n, [&](std::int64_t i) {
          qavgpool2d(src + i * in_n, op.geom, dst + i * out_n);
        });
        break;
      case QOp::Kind::kGlobalAvgPool:
        parallel_for(0, n, [&](std::int64_t i) {
          qglobal_avgpool(src + i * in_n, op.geom.in_c,
                          op.geom.in_h * op.geom.in_w, dst + i * out_n);
        });
        break;
      case QOp::Kind::kFlatten:
        std::copy_n(src, n * in_n, dst);
        break;
      case QOp::Kind::kRequantize:
        elementwise([&](std::int64_t lo, std::size_t len) {
          qrequantize({src + lo, len}, in_slot.qp, out_slot.qp,
                      {dst + lo, len});
        });
        break;
      case QOp::Kind::kAdd: {
        const std::int8_t* src1 = buffers[static_cast<std::size_t>(op.in1)];
        const QuantParams qp1 = slots_[static_cast<std::size_t>(op.in1)].qp;
        DIVA_CHECK(sizes[static_cast<std::size_t>(op.in1)] == in_n,
                   "int8 executor: add operand size mismatch");
        elementwise([&](std::int64_t lo, std::size_t len) {
          qadd({src + lo, len}, in_slot.qp, {src1 + lo, len}, qp1,
               out_slot.qp, op.act_min, op.act_max, {dst + lo, len});
        });
        break;
      }
      case QOp::Kind::kLut:
        elementwise([&](std::int64_t lo, std::size_t len) {
          qlut({src + lo, len}, {op.weights.data(), op.weights.size()},
               {dst + lo, len});
        });
        break;
      case QOp::Kind::kConcat: {
        const std::int8_t* src1 = buffers[static_cast<std::size_t>(op.in1)];
        const std::int64_t in1_n = sizes[static_cast<std::size_t>(op.in1)];
        for (std::int64_t i = 0; i < n; ++i) {
          std::copy_n(src + i * in_n, in_n, dst + i * out_n);
          std::copy_n(src1 + i * in1_n, in1_n, dst + i * out_n + in_n);
        }
        break;
      }
    }
  }

  const std::int64_t classes = sizes[static_cast<std::size_t>(output_slot_)];
  std::copy_n(buffers[static_cast<std::size_t>(output_slot_)], n * classes,
              out_logits);
}

std::vector<std::int8_t> QuantizedModel::forward_single_int8(
    const float* image) const {
  DIVA_TELEM_COUNT("quant.forward.calls", 1);
  DIVA_TELEM_COUNT("quant.forward.rows", 1);
  const QSlot& out = slots_[static_cast<std::size_t>(output_slot_)];
  std::vector<std::int8_t> logits(static_cast<std::size_t>(out.shape.numel()));
  run_batch_int8(image, 1, logits.data());
  return logits;
}

Tensor QuantizedModel::forward(const Tensor& x) const {
  DIVA_TRACE_SPAN("quant.forward");
  DIVA_CHECK(x.rank() == 4, "QuantizedModel::forward expects NCHW");
  const QSlot& in = slots_[static_cast<std::size_t>(input_slot_)];
  DIVA_CHECK(x.numel() / x.dim(0) == in.shape.numel(),
             "input image size mismatch");
  const std::int64_t n = x.dim(0);
  // Every row through here is one query against the deployed artifact —
  // the unit the paper's Table 2 budgets evasion in.
  DIVA_TELEM_COUNT("quant.forward.calls", 1);
  DIVA_TELEM_COUNT("quant.forward.rows", static_cast<std::uint64_t>(n));
  const QSlot& out = slots_[static_cast<std::size_t>(output_slot_)];
  const std::int64_t classes = out.shape[0];

  auto frame = Workspace::tls().frame();
  std::int8_t* q = frame.alloc<std::int8_t>(n * classes);
  run_batch_int8(x.raw(), n, q);

  Tensor logits(Shape{n, classes});
  for (std::int64_t i = 0; i < n * classes; ++i) {
    logits[i] = out.qp.dequantize(q[i]);
  }
  return logits;
}

QuantizedModel QuantizedModel::from_parts(std::vector<QSlot> slots,
                                          std::vector<QOp> ops,
                                          int input_slot, int output_slot) {
  DIVA_CHECK(input_slot >= 0 &&
                 input_slot < static_cast<int>(slots.size()) &&
                 output_slot >= 0 &&
                 output_slot < static_cast<int>(slots.size()),
             "from_parts: slot indices out of range");
  for (const QOp& op : ops) {
    DIVA_CHECK(op.in0 >= 0 && op.in0 < static_cast<int>(slots.size()) &&
                   op.out >= 0 && op.out < static_cast<int>(slots.size()),
               "from_parts: op references missing slot");
  }
  QuantizedModel qm;
  qm.slots_ = std::move(slots);
  qm.ops_ = std::move(ops);
  qm.input_slot_ = input_slot;
  qm.output_slot_ = output_slot;
  return qm;
}

std::int64_t QuantizedModel::weight_bytes() const {
  std::int64_t total = 0;
  for (const QOp& op : ops_) {
    total += static_cast<std::int64_t>(op.weights.size());
    total += static_cast<std::int64_t>(op.bias.size()) * 4;
  }
  return total;
}

}  // namespace diva
