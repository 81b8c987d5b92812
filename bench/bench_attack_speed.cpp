// §5.2 "Attack speed": PGD and DIVA run at nearly the same wall-clock
// cost per step (paper: ~1 s/step each on their hardware; the claim is
// the *ratio*, not the absolute number). Also microbenches the int8
// engine against the float forward — the edge-deployment speedup that
// motivates quantization in the first place — and sweeps AttackEngine
// throughput across 1/2/4/8 worker threads, emitting a JSON record for
// the perf trajectory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "attack/engine.h"
#include "attack/registry.h"
#include "core/experiment_defaults.h"
#include "core/zoo.h"
#include "kernels/cpu_features.h"
#include "kernels/kernel_dispatch.h"
#include "runtime/env.h"
#include "telemetry/telemetry.h"

namespace diva {
namespace {

ModelZoo& zoo() {
  static ModelZoo z = [] {
    ZooConfig cfg;
    cfg.verbose = false;
    return ModelZoo(cfg);
  }();
  return z;
}

Tensor eval_batch(std::int64_t n) {
  std::vector<int> idx;
  for (std::int64_t i = 0; i < n; ++i) idx.push_back(static_cast<int>(i));
  return gather_batch(zoo().val_set().images, idx);
}

std::vector<int> eval_labels(std::int64_t n) {
  return {zoo().val_set().labels.begin(), zoo().val_set().labels.begin() + n};
}

AttackTargets resnet_targets() {
  return {source(zoo().original(Arch::kResNet)),
          source(zoo().adapted_qat(Arch::kResNet))};
}

void BM_PgdStep(benchmark::State& state) {
  AttackConfig cfg = ExperimentDefaults::attack();
  cfg.steps = 1;  // one step per iteration -> per-step cost
  const Tensor x = eval_batch(16);
  const auto y = eval_labels(16);
  auto pgd = make_attack("pgd", resnet_targets(), {.cfg = cfg});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pgd->perturb(x, y));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_PgdStep)->Unit(benchmark::kMillisecond);

void BM_DivaStep(benchmark::State& state) {
  AttackConfig cfg = ExperimentDefaults::attack();
  cfg.steps = 1;
  const Tensor x = eval_batch(16);
  const auto y = eval_labels(16);
  auto diva = make_attack("diva", resnet_targets(), {.cfg = cfg, .c = 1.0f});
  for (auto _ : state) {
    benchmark::DoNotOptimize(diva->perturb(x, y));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_DivaStep)->Unit(benchmark::kMillisecond);

/// AttackEngine sharded DIVA; Arg = worker threads.
void BM_EngineDiva(benchmark::State& state) {
  AttackConfig cfg = ExperimentDefaults::attack();
  cfg.steps = 2;
  const Tensor x = eval_batch(32);
  const auto y = eval_labels(32);
  auto diva = make_attack("diva", resnet_targets(), {.cfg = cfg, .c = 1.0f});
  const AttackEngine engine(
      {.threads = static_cast<unsigned>(state.range(0)), .shard_size = 4});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(*diva, x, y));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_EngineDiva)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_FloatForward(benchmark::State& state) {
  Sequential& orig = zoo().original(Arch::kResNet);
  orig.set_training(false);
  const Tensor x = eval_batch(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orig.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_FloatForward)->Unit(benchmark::kMillisecond);

void BM_Int8Forward(benchmark::State& state) {
  const QuantizedModel& q8 = zoo().quantized(Arch::kResNet);
  const Tensor x = eval_batch(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q8.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Int8Forward)->Unit(benchmark::kMillisecond);

/// Chrono-timed AttackEngine throughput sweep over 1/2/4/8 threads,
/// emitted as one JSON record per attack mode so perf dashboards can
/// track the trajectory. Written to stderr so stdout stays valid for
/// --benchmark_format=json; set DIVA_SKIP_ENGINE_SWEEP=1 to skip.
void sweep_one(const char* mode, const char* note, Attack& attack,
               const Tensor& x, const std::vector<int>& y, int steps) {
  std::fprintf(stderr,
               "{\"bench\":\"attack_engine_throughput\",\"mode\":\"%s\","
               "\"note\":\"%s\",\"isa_tier\":\"%s\",\"cpu_flags\":\"%s\","
               "\"batch\":%lld,\"steps\":%d,"
               "\"shard_size\":4,\"results\":[",
               mode, note, isa_tier_name(active_isa_tier()),
               cpu_features_summary().c_str(),
               static_cast<long long>(x.dim(0)), steps);
  bool first = true;
  // Telemetry delta over the whole sweep (warm-ups included — the
  // accounting prices the workload, not the timer window): queries,
  // probes, MACs, and shard timings next to the img/s they explain.
  const telemetry::Snapshot telem_before = telemetry::snapshot();
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const AttackEngine engine({.threads = threads, .shard_size = 4});
    (void)engine.run(attack, x, y);  // warm-up: caches, pool spin-up
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.run(attack, x, y);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::fprintf(
        stderr, "%s{\"threads\":%u,\"seconds\":%.4f,\"images_per_sec\":%.1f}",
        first ? "" : ",", threads, secs, static_cast<double>(x.dim(0)) / secs);
    first = false;
  }
  const telemetry::Snapshot telem_delta =
      telemetry::diff(telemetry::snapshot(), telem_before);
  std::fprintf(stderr, "],\"telemetry\":%s}\n",
               telemetry::to_json(telem_delta).c_str());
}

void run_engine_throughput_sweep() {
  AttackConfig cfg = ExperimentDefaults::attack();
  cfg.steps = 2;

  // Module-source DIVA: each shard backpropagates through the shared
  // nets on its own activation tape, so shards run concurrently.
  {
    const Tensor x = eval_batch(32);
    const auto y = eval_labels(32);
    auto diva =
        make_attack("diva", resnet_targets(), {.cfg = cfg, .c = 1.0f});
    sweep_one("diva/module-sources",
              "module sources run concurrently on per-call tapes",
              *diva, x, y, cfg.steps);
  }

  // Derivative-free int8 target: probes run lock-free and concurrently,
  // the case where engine threads actually pay off.
  {
    AttackConfig fd_cfg = cfg;
    fd_cfg.steps = 1;
    const Tensor x = eval_batch(8);
    const auto y = eval_labels(8);
    auto fd_pgd = make_attack(
        "pgd",
        {nullptr, fd_source(zoo().quantized(Arch::kResNet), {.samples = 32})},
        {.cfg = fd_cfg});
    sweep_one("pgd/int8-fd", "lock-free SPSA probing; parallel payoff case",
              *fd_pgd, x, y, fd_cfg.steps);
  }
}

}  // namespace
}  // namespace diva

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    const std::string flags = diva::cpu_features_summary();
    std::fprintf(stderr, "isa_tier: %s (cpu: %s)\n",
                 diva::isa_tier_name(diva::active_isa_tier()),
                 flags.empty() ? "baseline x86-64" : flags.c_str());
  }
  if (!diva::env_flag("DIVA_SKIP_ENGINE_SWEEP", false)) {
    diva::run_engine_throughput_sweep();
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
