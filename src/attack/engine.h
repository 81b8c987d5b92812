// AttackEngine: deterministic data-parallel execution of attacks.
//
// The engine splits an eval batch into fixed-size shards and runs the
// attack on each shard across a runtime::ThreadPool. Shard boundaries
// depend only on the batch size (never on the thread count), per-sample
// work is independent (eval-mode forwards, per-sample momentum and
// projection), and random starts draw from per-sample RNG streams keyed
// by the *global* sample index — so the sharded result is bit-identical
// to the sequential result for a fixed seed, whether the engine runs
// with 1, 2, 4, or 8 threads.
//
// Every gradient source runs its shards concurrently: Module-backed
// sources give each forward/backward pair its own activation tape, and
// derivative-free sources (the int8 finite-difference adapter) hold no
// per-call state at all.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "attack/attack.h"
#include "runtime/thread_pool.h"

namespace diva {

struct EngineConfig {
  /// Worker threads; 0 means hardware concurrency.
  unsigned threads = 0;
  /// Samples per shard. Fixed shard geometry (independent of thread
  /// count) is what makes the output reproducible across pool sizes.
  std::int64_t shard_size = 8;
};

class AttackEngine {
 public:
  explicit AttackEngine(EngineConfig cfg = {});
  ~AttackEngine();

  AttackEngine(const AttackEngine&) = delete;
  AttackEngine& operator=(const AttackEngine&) = delete;

  /// Runs the attack over the batch, sharded across the pool. Falls back
  /// to a single sequential call when the attack is not shardable (e.g.
  /// it carries a step callback) or the batch fits in one shard.
  Tensor run(Attack& attack, const Tensor& x,
             const std::vector<int>& labels) const;

  unsigned threads() const;

 private:
  EngineConfig cfg_;
  std::unique_ptr<ThreadPool> pool_;  // absent when threads == 1
};

}  // namespace diva
