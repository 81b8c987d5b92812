#include "runtime/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <exception>

namespace diva {
namespace {
// The pool whose worker this thread is (null on every other thread).
// Nested fan-outs from inside a worker run inline instead of enqueueing
// (which could deadlock if every worker blocked waiting on queued tasks).
thread_local const ThreadPool* t_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
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

// The global pool lives behind a pointer so a forked child can replace
// it: pool threads do not survive fork(), and a parallel_for against
// the parent's dead pool would block forever (the attack-serve workers
// are forked processes that run tensor ops). The atfork child handler
// abandons the inherited object — touching its mutex/threads would be
// unsafe if the fork happened mid-operation — and builds a fresh pool
// of the same width. The leak is one pool per fork, in processes that
// _exit anyway.
ThreadPool* g_pool = nullptr;
unsigned g_pool_threads = 0;

void rebuild_pool_in_forked_child() {
  if (g_pool != nullptr) g_pool = new ThreadPool(g_pool_threads);
}

}  // namespace

ThreadPool& global_pool() {
  static std::once_flag once;
  std::call_once(once, [] {
    g_pool = new ThreadPool();
    g_pool_threads = g_pool->size();
    ::pthread_atfork(nullptr, nullptr, rebuild_pool_in_forked_child);
  });
  return *g_pool;
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

void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t grain) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (t_worker_of != nullptr) {
    fn(begin, end);
    return;
  }
  ThreadPool& pool = global_pool();
  const std::int64_t max_chunks = static_cast<std::int64_t>(pool.size()) * 4;
  const std::int64_t chunk =
      std::max<std::int64_t>(grain, (n + max_chunks - 1) / max_chunks);
  fork_join(&pool, (n + chunk - 1) / chunk, [&](std::int64_t c) {
    const std::int64_t lo = begin + c * chunk;
    fn(lo, std::min(end, lo + chunk));
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
