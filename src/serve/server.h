// AttackServer: sharded multi-process attack-as-a-service.
//
// The paper's threat model is an attacker probing *deployed* artifacts
// at scale; this is the deployed side of that story as a long-running
// service. Topology:
//
//   clients --AF_UNIX socket--> front-end (accept + per-connection
//   reader threads) --> BatchingQueue (requests split into
//   engine-geometry shard jobs, coalesced into batches) --> one
//   dispatcher thread per worker --socketpair--> N forked worker
//   processes, each owning its *own copies* of the model pool
//   (inherited at fork), its own pinned thread pool, and its own
//   thread-local workspace arenas. Results stream back per shard with
//   the client's correlation id.
//
// Determinism across the process boundary: a shard job carries
// `first_sample` = its offset within its request, and workers run
// Attack::perturb_indexed exactly like AttackEngine shards do — so the
// bytes a client assembles are bit-identical to a sequential
// AttackEngine (or plain Attack::perturb) run of the same request,
// regardless of worker count, coalescing window, or which worker
// happened to run which shard.
//
// Failure paths: invalid requests are rejected at the front-end with
// the registry's own validation text (validate_attack_targets /
// attack_traits error shapes) and never reach a worker; when a worker
// process dies, its in-flight jobs are requeued at the front of the
// queue and the worker is respawned.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attack/grad_source.h"
#include "scenario/scenario.h"
#include "serve/protocol.h"
#include "serve/queue.h"

namespace diva::serve {

struct ServeConfig {
  /// AF_UNIX socket path the front-end listens on (required; unlinked
  /// on bind and on stop).
  std::string socket_path;
  /// Worker processes. Each owns its own model copies (fork) and its own
  /// global thread pool, sized to the cores it is pinned to.
  unsigned workers = 2;
  /// Threads in each worker's pool (shards of one batch run in
  /// parallel, exactly like AttackEngine).
  unsigned worker_threads = 2;
  /// Samples per shard job; must match the AttackEngine shard_size a
  /// caller compares against (shard geometry is determinism-neutral,
  /// but throughput granularity is not).
  std::int64_t shard_size = 8;
  /// Max coalesced jobs per worker dispatch.
  std::size_t max_batch_jobs = 8;
  /// How long the queue waits for stragglers after the first job of a
  /// batch arrives. Zero never waits (lowest latency, smallest batches).
  std::chrono::microseconds coalesce_window{2000};
  /// Probe configuration for int8-fd request columns.
  FdConfig fd;
  /// Pin worker w's process to cores [w*worker_threads, (w+1)*worker_threads).
  bool pin_workers = false;
  int listen_backlog = 64;
  /// Invoked (from a connection thread) when a client sends kShutdown.
  /// The callback must not call stop() directly — signal the thread
  /// that owns the server instead (the daemon raises SIGTERM at itself).
  std::function<void()> on_shutdown_request;
};

class AttackServer {
 public:
  /// The pool is borrowed; models must outlive the server. Workers
  /// inherit copy-on-write copies at fork, so the parent's models are
  /// never touched by serving.
  AttackServer(scenario::ModelPool pool, ServeConfig cfg);
  ~AttackServer();

  AttackServer(const AttackServer&) = delete;
  AttackServer& operator=(const AttackServer&) = delete;

  /// Binds the socket, forks the workers (before any server thread
  /// exists), then starts dispatcher/accept threads. Throws on setup
  /// failure.
  void start();

  /// Graceful shutdown: stops accepting, drains queued jobs through the
  /// workers, completes in-flight requests, reaps workers. Idempotent.
  void stop();

  bool running() const { return running_.load(); }

  /// Live worker process ids (test hook for the kill/requeue path).
  std::vector<pid_t> worker_pids() const;

  /// Connections the front-end currently tracks, dead or alive (test
  /// hook for the dead-connection reaper: churn must not accumulate).
  std::size_t live_conns() const;

  /// Request validation exactly as the front-end applies it: "" when
  /// servable, otherwise the rejection message a client would receive
  /// (registry error shapes for unknown kinds / trait mismatches,
  /// scenario pool diagnostics for missing models).
  std::string validate_request(const AttackRequest& req) const;

  /// Merged telemetry: the parent's own snapshot plus every worker's
  /// latest per-batch snapshot (workers append a kStatsReply trailer to
  /// each job batch) plus the final snapshots of workers that have died
  /// or been reaped — so counters survive a SIGKILLed worker. Worker
  /// numbers are at most one batch stale; this is what kStatsRequest
  /// answers with.
  telemetry::Snapshot stats_snapshot() const;

  const ServeConfig& config() const { return cfg_; }
  const scenario::ModelPool& pool() const { return pool_; }

 private:
  struct ClientConn {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> dead{false};
    std::thread reader;
  };

  struct PendingRequest {
    std::shared_ptr<ClientConn> conn;
    std::shared_ptr<const AttackRequest> request;
    std::int64_t remaining_shards = 0;
    bool failed = false;
    std::chrono::steady_clock::time_point t0;
  };

  struct WorkerLink {
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
  };

  /// Per worker slot: `latest` is the live worker's most recent
  /// per-batch snapshot (cumulative since its fork); `retired` is the
  /// merged total of every previous worker that died in this slot.
  struct WorkerStats {
    telemetry::Snapshot retired;
    telemetry::Snapshot latest;
  };

  void accept_loop();
  /// Joins reader threads and closes fds of connections whose client
  /// has gone away (runs on the accept thread between accepts, so a
  /// connect/disconnect churn can't leak threads until stop()).
  void reap_dead_conns();
  void client_loop(const std::shared_ptr<ClientConn>& conn);
  void handle_request(const std::shared_ptr<ClientConn>& conn,
                      AttackRequest&& req);
  void dispatch_loop(std::size_t w);
  bool spawn_worker(std::size_t w);
  void reap_worker(std::size_t w);
  void deliver_result(const ShardJob& job, JobResult&& result,
                      std::uint32_t worker_index);
  void send_frame_to(const std::shared_ptr<ClientConn>& conn,
                     const std::vector<std::uint8_t>& frame);

  scenario::ModelPool pool_;
  ServeConfig cfg_;

  std::atomic<bool> running_{false};
  bool started_ = false;
  int listen_fd_ = -1;

  BatchingQueue queue_;
  std::atomic<std::uint64_t> next_ticket_{1};
  std::atomic<std::uint64_t> next_request_key_{1};

  mutable std::mutex workers_mu_;
  std::vector<WorkerLink> workers_;
  std::vector<std::thread> dispatchers_;

  mutable std::mutex stats_mu_;
  std::vector<WorkerStats> worker_stats_;

  std::mutex pending_mu_;
  std::map<std::uint64_t, PendingRequest> pending_;

  mutable std::mutex conns_mu_;
  std::vector<std::shared_ptr<ClientConn>> conns_;
  std::thread accept_thread_;
};

/// Worker-process entry point (exposed for white-box reuse by tests):
/// serves kJobBatch frames on `fd` until EOF/kShutdown, then _exit(0).
[[noreturn]] void run_worker(int fd, const scenario::ModelPool& pool,
                             const ServeConfig& cfg, unsigned index);

}  // namespace diva::serve
