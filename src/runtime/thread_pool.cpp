#include "runtime/thread_pool.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>

namespace diva {
namespace {
// The pool whose worker this thread is (null on every other thread).
// Nested fan-outs from inside a worker run inline instead of enqueueing
// (which could deadlock if every worker blocked waiting on queued tasks).
thread_local const ThreadPool* t_worker_of = nullptr;

/// CPUs the calling thread may run on.
unsigned affinity_width() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = affinity_width();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (stopping_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

namespace {

// The global pool lives behind a pointer so a forked child can drop
// it: pool threads do not survive fork(), and a parallel_for against
// the parent's dead pool would block forever (the attack-serve workers
// are forked processes that run tensor ops). The atfork child handler
// abandons the inherited object (touching its mutex or threads would be
// unsafe if the fork happened mid-operation); the child's first
// global_pool() then builds a fresh one, after a serve worker has pinned
// itself, so its width matches the worker's cores. The leak is one pool
// per fork, in processes that _exit anyway. g_pool_mu is held across
// fork() so the child never inherits it locked.
std::atomic<ThreadPool*> g_pool{nullptr};
std::mutex g_pool_mu;

void lock_pool_for_fork() { g_pool_mu.lock(); }
void unlock_pool_after_fork() { g_pool_mu.unlock(); }
void drop_pool_in_forked_child() {
  g_pool.store(nullptr, std::memory_order_relaxed);
  g_pool_mu.unlock();
}

}  // namespace

ThreadPool& global_pool() {
  if (ThreadPool* p = g_pool.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lock(g_pool_mu);
  ThreadPool* p = g_pool.load(std::memory_order_relaxed);
  if (p == nullptr) {
    static std::once_flag atfork_once;
    std::call_once(atfork_once, [] {
      ::pthread_atfork(lock_pool_for_fork, unlock_pool_after_fork,
                       drop_pool_in_forked_child);
    });
    p = new ThreadPool();
    g_pool.store(p, std::memory_order_release);
  }
  return *p;
}

void fork_join(ThreadPool* pool, std::int64_t count,
               const std::function<void(std::int64_t)>& fn) {
  if (pool == nullptr || count <= 1 || t_worker_of == pool) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::int64_t> remaining(count);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr first_error;
  // Only the last task takes `mu`, to set `done` and notify; the waiter
  // waits for `done`, not for the count, so it cannot free this stack
  // state until that task has released the lock.
  const auto run = [&](std::int64_t i) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = std::current_exception();
    }
    if (remaining.fetch_sub(1) > 1) return;
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  };
  for (std::int64_t i = 0; i < count; ++i) {
    pool->submit([&run, i] { run(i); });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  if (first_error) std::rethrow_exception(first_error);
}

ChunkPlan plan_chunks(std::int64_t n, std::int64_t grain) {
  if (n <= 0) return {};
  if (t_worker_of != nullptr) return {n, 1};
  const std::int64_t max_chunks =
      static_cast<std::int64_t>(global_pool().size()) * 4;
  const std::int64_t size =
      std::max<std::int64_t>(grain, (n + max_chunks - 1) / max_chunks);
  return {size, (n + size - 1) / size};
}

void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain) {
  const ChunkPlan plan = plan_chunks(end - begin, grain);
  if (plan.count == 0) return;
  if (plan.count == 1) {
    fn(begin, end);
    return;
  }
  fork_join(&global_pool(), plan.count, [&](std::int64_t c) {
    const std::int64_t lo = begin + c * plan.size;
    fn(lo, std::min(end, lo + plan.size));
  });
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  std::int64_t grain) {
  parallel_for_chunked(
      begin, end,
      [&fn](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) fn(i);
      },
      grain);
}

}  // namespace diva
