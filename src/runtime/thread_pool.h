// Minimal work-stealing-free thread pool plus fork_join, the one
// fan-out-and-wait primitive (parallel_for chunks, AttackEngine shards
// and serve-worker jobs all run through it).
//
// Used by the tensor and kernel code to parallelize batched convolutions
// and matrix multiplies across CPU cores. The pool is created once per
// process (see global_pool()).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace diva {

/// Fixed-size pool of worker threads executing std::function jobs.
class ThreadPool {
 public:
  /// Creates `threads` workers. 0 means one per CPU the calling thread
  /// may run on (its affinity mask), so a process pinned to k cores
  /// builds a k-wide pool.
  explicit ThreadPool(unsigned threads = 0);
  /// Runs every job still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a job for asynchronous execution.
  void submit(std::function<void()> job);

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool used by parallel_for. Lazily constructed, as
/// ThreadPool(0), by the first caller; a forked child drops the pool it
/// inherits and builds its own on first use.
ThreadPool& global_pool();

/// Runs fn(i) for i in [0, count) on `pool`, blocks until every task has
/// returned, then rethrows the first exception (the other tasks still run
/// to completion); no task touches the caller's stack after it returns.
/// Runs inline instead, in index order, when `pool` is null, count <= 1,
/// or the caller is a worker of `pool` (a nested call); an exception then
/// propagates at once.
void fork_join(ThreadPool* pool, std::int64_t count,
               const std::function<void(std::int64_t)>& fn);

/// Runs fn(i) for i in [begin, end) across the global pool: fork_join
/// over contiguous chunks of at least `grain` iterations. Runs inline, as
/// one call over the whole range, inside any pool's worker.
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t grain = 1);

/// How parallel_for_chunked splits `n` iterations when called from this
/// thread: `count` contiguous chunks of `size` iterations (the last may
/// be shorter), chunk c starting at begin + c * size. One chunk inside
/// any pool's worker. Callers that keep one buffer per chunk size them
/// with this and reduce them in chunk order, which makes the result
/// independent of the order in which chunks finish.
struct ChunkPlan {
  std::int64_t size = 0;
  std::int64_t count = 0;
};
ChunkPlan plan_chunks(std::int64_t n, std::int64_t grain = 1);

/// Chunked variant: fn(chunk_begin, chunk_end) per chunk of
/// plan_chunks(end - begin, grain), fewer closures.
void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain = 1);

}  // namespace diva
