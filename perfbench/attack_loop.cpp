// attack: the paper's two attack settings on the digit pool, executed by
// AttackEngine at 4 threads, shard 4.
//   fd phase — pgd with the adapted side probed derivative-free through
//              the int8 artifact (SPSA, batched probes, fixed probe pairs);
//              loads the int8 executor with large probe batches.
//   wb phase — diva and pgd on (float original, QAT twin) by backprop;
//              runs nn sgemm forward/backward and touches the executor
//              only when scoring.
// Both phases are scored against (float original, int8 artifact).
#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <utility>

#include "attack/engine.h"
#include "attack/registry.h"
#include "core/evaluation.h"
#include "data/synth_digits.h"
#include "perfbench.h"
#include "runtime/rng.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

using namespace diva;

namespace {

std::int64_t elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Times every shard the engine hands to the wrapped attack.
class TimedAttack : public Attack {
 public:
  explicit TimedAttack(Attack& inner) : inner_(inner) {}
  Tensor perturb(const Tensor& x, const std::vector<int>& labels) override {
    return perturb_indexed(x, labels, 0);
  }
  Tensor perturb_indexed(const Tensor& x, const std::vector<int>& labels,
                         std::int64_t first_sample) override {
    const auto t0 = Clock::now();
    Tensor out = inner_.perturb_indexed(x, labels, first_sample);
    const double ms = seconds_since(t0) * 1e3;
    std::lock_guard<std::mutex> lock(mu_);
    shard_ms_.push_back(ms);
    return out;
  }
  bool shardable() const override { return inner_.shardable(); }
  std::string name() const override { return inner_.name(); }

  std::vector<double> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(shard_ms_, {});
  }

 private:
  Attack& inner_;
  std::mutex mu_;
  std::vector<double> shard_ms_;
};

/// nn-layer decorator: times the wrapped module's forward and backward.
/// children() exposes the wrapped net so freeze/eval reach it.
class TimedModule : public Module {
 public:
  explicit TimedModule(Module& inner) : Module(inner.name()), inner_(inner) {}
  Tensor forward(const Tensor& x) override {
    const auto t0 = Clock::now();
    Tensor y = inner_.forward(x);
    ns_ += elapsed_ns(t0);
    return y;
  }
  Tensor backward(const Tensor& g) override {
    const auto t0 = Clock::now();
    Tensor y = inner_.backward(g);
    ns_ += elapsed_ns(t0);
    return y;
  }
  std::vector<Module*> children() override { return {&inner_}; }
  std::int64_t take_ns() { return ns_.exchange(0); }

 private:
  Module& inner_;
  std::atomic<std::int64_t> ns_{0};
};

/// Attack-layer decorator: times input_grad. Its time minus the wrapped
/// module's busy time is the ModuleGradSource lock wait.
class TimedGradSource : public GradSource {
 public:
  explicit TimedGradSource(std::shared_ptr<GradSource> inner)
      : inner_(std::move(inner)) {}
  Tensor logits(const Tensor& x) override { return inner_->logits(x); }
  Tensor input_grad(const Tensor& x, const GradRequest& req) override {
    const auto t0 = Clock::now();
    Tensor g = inner_->input_grad(x, req);
    ns_ += elapsed_ns(t0);
    return g;
  }
  void prepare() override { inner_->prepare(); }
  void restore() override { inner_->restore(); }
  std::string name() const override { return inner_->name(); }
  std::int64_t take_ns() { return ns_.exchange(0); }

 private:
  std::shared_ptr<GradSource> inner_;
  std::atomic<std::int64_t> ns_{0};
};

/// The attacks of one tracing mode.
struct AttackSet {
  std::unique_ptr<Attack> fd, diva, pgd;
};

}  // namespace

void run_attack(Ctx& c) {
  Pool& pool = *c.pool;
  const QuantizedModel& q = *pool.digit;
  const ModelFn orig_fn = [&pool](const Tensor& x) {
    return pool.original->forward(x);
  };
  const ModelFn int8_fn = [&q](const Tensor& x) { return q.forward(x); };

  // Eval set: up to kEvalPerClass images per class of the fixture's
  // validation pool that both the float original and the int8 artifact
  // classify correctly, cut to whole shards, in a seeded order of
  // shard-sized groups. Each group keeps its members and their positions,
  // so the backprop arithmetic per shard (and with it every wb-phase
  // quality number) is the same for every seed, while the order moves
  // each group to other global sample indices and so other fd probe
  // streams.
  const Dataset candidates = SynthDigits(77).generate(12, 4000);
  std::vector<int> idx = select_correct({orig_fn, int8_fn}, candidates,
                                        c.tiny ? 1 : kEvalPerClass);
  idx.resize(idx.size() / kShardSize * kShardSize);
  DIVA_CHECK(!idx.empty(), "attack workload: eval set smaller than a shard");
  std::vector<int> groups(idx.size() / kShardSize);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    groups[g] = static_cast<int>(g);
  }
  Rng order(input_seed(c.seed, 3));
  order.shuffle(std::span<int>(groups));
  std::vector<int> ordered, canonical_row(idx.size());
  for (const int g : groups) {
    for (std::int64_t j = 0; j < kShardSize; ++j) {
      canonical_row[static_cast<std::size_t>(g * kShardSize + j)] =
          static_cast<int>(ordered.size());
      ordered.push_back(idx[static_cast<std::size_t>(g * kShardSize + j)]);
    }
  }
  const Dataset eval = candidates.subset(ordered);
  // Scoring runs in the canonical order: a float forward's rounding can
  // depend on a row's position in the batch, and the evasive examples
  // sit near the original's decision boundary.
  const Dataset canonical = candidates.subset(idx);
  auto score = [&](const Tensor& adv) {
    return evaluate_evasion(orig_fn, int8_fn, canonical.images,
                            gather_batch(adv, canonical_row),
                            canonical.labels);
  };
  const std::int64_t n = eval.size();

  AttackSpec spec;
  spec.cfg.epsilon = kAttackEps;
  spec.cfg.alpha = kAttackAlpha;
  spec.cfg.steps = c.tiny ? 2 : kAttackSteps;
  spec.cfg.seed = kAttackSeed;
  FdConfig fd;
  fd.samples = kFdPairs;
  fd.batch_probes = true;
  fd.seed = kFdProbeSeed;

  // Untraced attacks call the library directly. Traced attacks put the
  // benchmark's timers between the attack layer and the quant / nn layers.
  AttackSet plain;
  plain.fd = make_attack("pgd", {nullptr, fd_source(q, fd)}, spec);
  plain.diva = make_attack(
      "diva", {source(*pool.original), source(*pool.qat)}, spec);
  plain.pgd = make_attack("pgd", {nullptr, source(*pool.qat)}, spec);

  std::atomic<std::int64_t> q_ns{0}, q_rows{0}, q_calls{0};
  auto timed_forward = [&](const Tensor& x) {
    const auto t0 = Clock::now();
    Tensor y = q.forward(x);
    q_ns += elapsed_ns(t0);
    q_rows += x.dim(0);
    ++q_calls;
    return y;
  };
  TimedModule orig_mod(*pool.original), qat_mod(*pool.qat);
  auto orig_src = std::make_shared<TimedGradSource>(source(orig_mod));
  auto qat_src = std::make_shared<TimedGradSource>(source(qat_mod));
  AttackSet traced;
  traced.fd =
      make_attack("pgd", {nullptr, fd_source(timed_forward, fd, "+timed")},
                  spec);
  traced.diva = make_attack("diva", {orig_src, qat_src}, spec);
  traced.pgd = make_attack("pgd", {nullptr, qat_src}, spec);

  const AttackEngine engine({kEngineThreads, kShardSize});
  const std::int64_t expect_queries =
      2LL * kFdPairs * spec.cfg.steps;  // analytic SPSA budget per image

  std::vector<double> fd_img_s, fd_img_s_traced, wb_img_s, fd_shard_ms,
      all_shard_ms;
  std::vector<Tensor> first;  // pass-0 outputs: fd, diva, pgd
  double fd_rows = 0.0, score_s = 0.0, fd_traced_s = 0.0, wb_traced_s = 0.0;
  double q_s = 0.0, nn_s = 0.0, grad_s = 0.0, traced_igemm_macs = 0.0,
         traced_igemm_bytes = 0.0, traced_sgemm_macs = 0.0;
  std::uint64_t spsa_probes = 0, probe_forwards = 0;
  EvasionResult fd_score, diva_score, pgd_score;

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(c.seconds);
  const int min_passes = c.tiny ? 2 : kMinAttackPasses;
  for (int p = 0; p < min_passes || Clock::now() < deadline; ++p) {
    const bool tr = c.trace && p % 2 == 1;
    AttackSet& set = tr ? traced : plain;
    TimedAttack fd_t(*set.fd), diva_t(*set.diva), pgd_t(*set.pgd);

    const telemetry::Snapshot s0 = telemetry::snapshot();
    auto t0 = Clock::now();
    Tensor adv_fd = engine.run(fd_t, eval.images, eval.labels);
    const double fd_s = seconds_since(t0);
    const telemetry::Snapshot s1 = telemetry::snapshot();
    t0 = Clock::now();
    const Tensor adv_diva = engine.run(diva_t, eval.images, eval.labels);
    const Tensor adv_pgd = engine.run(pgd_t, eval.images, eval.labels);
    const double wb_s = seconds_since(t0);
    const telemetry::Snapshot s2 = telemetry::snapshot();
    c.checks.ops(3 * n);

    const telemetry::Snapshot fd_delta = telemetry::diff(s1, s0);
    const telemetry::Snapshot wb_delta = telemetry::diff(s2, s1);
    const double rows =
        static_cast<double>(counter(fd_delta, "quant.forward.rows"));
    fd_rows = rows / static_cast<double>(n);
    spsa_probes = counter(fd_delta, "attack.fd.spsa_probes");
    probe_forwards = counter(fd_delta, "attack.fd.probe_forwards");

    std::vector<double> fd_shards = fd_t.take();
    for (const std::vector<double>& v :
         {fd_shards, diva_t.take(), pgd_t.take()}) {
      all_shard_ms.insert(all_shard_ms.end(), v.begin(), v.end());
    }
    if (tr) {
      fd_img_s_traced.push_back(static_cast<double>(n) / fd_s);
      fd_traced_s += fd_s;
      wb_traced_s += wb_s;
      q_s += static_cast<double>(q_ns.exchange(0)) * 1e-9;
      nn_s += static_cast<double>(orig_mod.take_ns() + qat_mod.take_ns()) *
              1e-9;
      grad_s += static_cast<double>(orig_src->take_ns() + qat_src->take_ns()) *
                1e-9;
      traced_igemm_macs +=
          static_cast<double>(counter_sum(fd_delta, "kernels.igemm.macs."));
      traced_igemm_bytes += static_cast<double>(
          counter_sum(fd_delta, "kernels.igemm.packed_bytes."));
      traced_sgemm_macs +=
          static_cast<double>(counter_sum(wb_delta, "kernels.sgemm.macs."));
    } else {
      fd_img_s.push_back(static_cast<double>(n) / fd_s);
      wb_img_s.push_back(static_cast<double>(n) / wb_s);
      fd_shard_ms.insert(fd_shard_ms.end(), fd_shards.begin(),
                         fd_shards.end());
    }

    // ---- Output checks. ---------------------------------------------------
    if (p == 0 && c.corrupt == Corrupt::kPixelOutsideBall) {
      adv_fd[0] = eval.images[0] > 0.5f ? eval.images[0] - 2 * kAttackEps
                                        : eval.images[0] + 2 * kAttackEps;
    }
    const Tensor* outs[] = {&adv_fd, &adv_diva, &adv_pgd};
    for (const Tensor* adv : outs) {
      c.checks.check("eps_ball", in_eps_ball(*adv, eval.images, kAttackEps));
    }
    c.checks.check("fd_queries_analytic",
                   !telemetry::kCompiledIn ||
                       counter(fd_delta, "quant.forward.rows") ==
                           static_cast<std::uint64_t>(expect_queries * n));
    if (p == 0) {
      for (const Tensor* adv : outs) first.push_back(*adv);
      const auto st = Clock::now();
      fd_score = score(adv_fd);
      diva_score = score(adv_diva);
      pgd_score = score(adv_pgd);
      score_s = seconds_since(st);
    } else {
      for (std::size_t k = 0; k < 3; ++k) {
        c.checks.check("repetition_bit_identical",
                       same_bits(*outs[k], first[k]));
      }
    }
  }

  // ---- End-to-end metrics. ------------------------------------------------
  Report& rep = c.report;
  double tail_pct = 0.0;
  const std::size_t shards_per_pass =
      static_cast<std::size_t>((n + kShardSize - 1) / kShardSize);
  const double shard_tail =
      tail(fd_shard_ms,
           shards_per_pass * static_cast<std::size_t>(
                                 c.trace ? min_passes / 2 : min_passes),
           &tail_pct);
  std::int64_t within = 0;
  for (const double ms : fd_shard_ms) within += ms <= kAttackShardLimitMs;
  rep.e2e("main_img_s", "fd_img_s", median(fd_img_s), "img/s");
  rep.e2e("second_img_s", "wb_img_s", median(wb_img_s), "img/s");
  rep.e2e("p50_ms", "fd_shard_ms_p50", median(fd_shard_ms), "ms");
  rep.e2e("tail_ms", "fd_shard_ms_tail", shard_tail, "ms");
  rep.e2e("slo_pct", "fd_shard_within_limit_pct",
          100.0 * static_cast<double>(within) /
              static_cast<double>(fd_shard_ms.size()),
          "%");
  rep.e2e("queries_per_img", "fd_queries_per_img", fd_rows, "queries");
  rep.e2e("quality_pct", "diva_evasion_pct", diva_score.top1_rate(), "%");
  rep.info("fd_img_s", median(fd_img_s), "img/s");
  rep.info("fd_queries_per_img", fd_rows, "queries");
  rep.info("fd_fooled_pct", fd_score.attack_only_rate(), "%");
  rep.info("wb_img_s", median(wb_img_s), "img/s");
  rep.info("diva_evasion_pct", diva_score.top1_rate(), "%");
  rep.info("pgd_evasion_pct", pgd_score.top1_rate(), "%");
  rep.info("eval_images", static_cast<double>(n), "count");
  rep.info("fd_shard_tail_percentile", tail_pct, "pct");
  rep.info("fd_shard_samples", static_cast<double>(fd_shard_ms.size()),
           "count");
  rep.layer("attack.fd.spsa_probes", static_cast<double>(spsa_probes),
            "count");
  rep.layer("attack.fd.probe_forwards", static_cast<double>(probe_forwards),
            "count");
  if (!c.trace) return;

  // ---- Per-layer metrics (traced run). ------------------------------------
  const double threads = static_cast<double>(engine.threads());
  const double rows_timed = static_cast<double>(q_rows.load());
  rep.layer("trace.overhead_pct",
            (median(fd_img_s) / median(fd_img_s_traced) - 1.0) * 100.0, "%");
  rep.layer("quant.fd_share_pct", 100.0 * q_s / (fd_traced_s * threads), "%");
  rep.info("quant.fd_us_per_row", q_s / rows_timed * 1e6, "us");
  rep.layer("quant.fd_rows_per_s", rows_timed / q_s, "rows/s");
  rep.layer("quant.fd_rows_per_call",
            rows_timed / static_cast<double>(q_calls.load()), "rows");
  rep.layer("quant.rows_per_call",
            rows_timed / static_cast<double>(q_calls.load()), "rows");
  rep.layer("kernels.igemm.gmac_s", traced_igemm_macs / q_s / 1e9, "GMAC/s");
  rep.layer("kernels.igemm.bytes_per_mac",
            traced_igemm_bytes / traced_igemm_macs, "B/MAC");
  const double shard_p50 = median(all_shard_ms);
  const double shard_max =
      *std::max_element(all_shard_ms.begin(), all_shard_ms.end());
  rep.info("attack.engine.shard_ms_p50", shard_p50, "ms");
  rep.info("attack.engine.shard_ms_max", shard_max, "ms");
  rep.layer("attack.engine.shard_per_s_p50", 1e3 / shard_p50, "1/s");
  rep.layer("attack.engine.shard_skew", shard_max / shard_p50, "x");
  rep.layer("nn.busy_pct", 100.0 * nn_s / (wb_traced_s * threads), "%");
  rep.layer("attack.grad_wait_pct",
            100.0 * (grad_s - nn_s) / (wb_traced_s * threads), "%");
  rep.layer("kernels.sgemm.gmac_s", traced_sgemm_macs / nn_s / 1e9, "GMAC/s");
  rep.info("core.score_ms", score_s * 1e3, "ms");
  rep.layer("core.score_img_s", 3.0 * static_cast<double>(n) / score_s,
            "img/s");
}

}  // namespace perfbench
