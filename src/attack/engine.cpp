#include "attack/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace diva {

AttackEngine::AttackEngine(EngineConfig cfg) : cfg_(cfg) {
  if (cfg_.threads == 0) {
    cfg_.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  DIVA_CHECK(cfg_.shard_size >= 1, "shard_size must be at least 1");
  if (cfg_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(cfg_.threads);
  }
}

AttackEngine::~AttackEngine() = default;

unsigned AttackEngine::threads() const { return cfg_.threads; }

Tensor AttackEngine::run(Attack& attack, const Tensor& x,
                         const std::vector<int>& labels) const {
  DIVA_CHECK(x.rank() == 4, "engine input must be NCHW");
  const std::int64_t n = x.dim(0);
  DIVA_CHECK(static_cast<std::int64_t>(labels.size()) == n,
             "labels size mismatch");
  DIVA_TRACE_SPAN("engine.run");
  DIVA_TELEM_COUNT("engine.runs", 1);
  DIVA_TELEM_COUNT("engine.samples", static_cast<std::uint64_t>(n));
  if (!attack.shardable() || n <= cfg_.shard_size) {
    return attack.perturb_indexed(x, labels, 0);
  }

  const std::int64_t per = x.numel() / n;
  const std::int64_t num_shards = (n + cfg_.shard_size - 1) / cfg_.shard_size;
  Tensor out(x.shape());

  // Each shard perturbs samples [lo, hi) and writes its rows into the
  // disjoint slice of `out`; `first_sample = lo` keys per-sample RNG
  // streams to global indices so sharding is invisible to the result.
  auto run_shard = [&](std::int64_t shard) {
    DIVA_TRACE_SPAN("engine.shard");
    const auto shard_t0 = std::chrono::steady_clock::now();
    const std::int64_t lo = shard * cfg_.shard_size;
    const std::int64_t hi = std::min(n, lo + cfg_.shard_size);
    std::vector<int> idx;
    idx.reserve(static_cast<std::size_t>(hi - lo));
    for (std::int64_t i = lo; i < hi; ++i) idx.push_back(static_cast<int>(i));
    const Tensor shard_x = gather_batch(x, idx);
    const std::vector<int> shard_labels(
        labels.begin() + static_cast<std::ptrdiff_t>(lo),
        labels.begin() + static_cast<std::ptrdiff_t>(hi));
    const Tensor adv = attack.perturb_indexed(shard_x, shard_labels, lo);
    std::memcpy(out.raw() + lo * per, adv.raw(),
                sizeof(float) * static_cast<std::size_t>((hi - lo) * per));
    DIVA_TELEM_COUNT("engine.shards", 1);
    DIVA_TELEM_RECORD(
        "engine.shard_us",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - shard_t0)
                .count()));
  };

  fork_join(pool_.get(), num_shards, run_shard);
  return out;
}

}  // namespace diva
