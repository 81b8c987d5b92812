#include "serve/server.h"

#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "runtime/check.h"
#include "runtime/thread_pool.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "tensor/tensor_ops.h"

namespace diva::serve {

namespace {

/// Stable fingerprint of everything that selects a worker-side Attack
/// instance. Float fields are keyed by their bit patterns so distinct
/// configs never collide.
std::string attack_cache_key(const WireJob& job) {
  auto bits32 = [](float v) {
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf), "|%d|%d|%08x|%08x|%d|%d|%llx|%08x|%08x|%08x|%d",
                static_cast<int>(job.original), static_cast<int>(job.adapted),
                bits32(job.spec.cfg.epsilon), bits32(job.spec.cfg.alpha),
                job.spec.cfg.steps, job.spec.cfg.random_start ? 1 : 0,
                static_cast<unsigned long long>(job.spec.cfg.seed),
                bits32(job.spec.cfg.momentum), bits32(job.spec.c),
                bits32(job.spec.k), job.spec.target);
  return job.attack + buf;
}

/// Contiguous [lo, hi) slice of a request batch (rows are contiguous
/// in NCHW, so this is one memcpy).
void slice_batch(const AttackRequest& req, std::int64_t lo, std::int64_t hi,
                 Tensor* images, std::vector<int>* labels) {
  const std::int64_t per = req.images.numel() / req.images.dim(0);
  Shape shape = req.images.shape();
  *images = Tensor(Shape{hi - lo, shape[1], shape[2], shape[3]});
  std::memcpy(images->raw(), req.images.raw() + lo * per,
              sizeof(float) * static_cast<std::size_t>((hi - lo) * per));
  labels->assign(req.labels.begin() + static_cast<std::ptrdiff_t>(lo),
                 req.labels.begin() + static_cast<std::ptrdiff_t>(hi));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

namespace {

struct WorkerJobState {
  WireJob job;
  Tensor adv;
  double seconds = 0.0;
  std::string error;
};

void pin_to_cores(unsigned index, unsigned threads) {
  const long ncpu = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (ncpu <= 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    CPU_SET((index * std::max(1u, threads) + t) % static_cast<unsigned>(ncpu),
            &set);
  }
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void run_worker(int fd, const scenario::ModelPool& pool,
                const ServeConfig& cfg, unsigned index) {
  if (cfg.pin_workers) pin_to_cores(index, cfg.worker_threads);
  std::unique_ptr<ThreadPool> threads;
  if (cfg.worker_threads > 1) {
    threads = std::make_unique<ThreadPool>(cfg.worker_threads);
  }
  // Attacks (and their sources) are cached per spec fingerprint so a
  // steady request stream pays construction once. Shared-module safety:
  // only jobs with the SAME cached attack run concurrently (the
  // engine-proven pattern); distinct groups run back to back, and
  // verdict scoring — which forwards through the pool's modules — is
  // sequential after each group's attack phase.
  std::map<std::string, std::shared_ptr<Attack>> attacks;
  std::mutex write_mu;

  const auto send_result = [&](const JobResult& result) {
    std::lock_guard<std::mutex> lock(write_mu);
    write_frame(fd, encode_job_result(result));
  };

  for (;;) {
    MsgType type;
    std::vector<std::uint8_t> payload;
    bool have = false;
    try {
      have = read_frame(fd, &type, &payload);
    } catch (const std::exception&) {
      break;  // parent died or link corrupted; nothing to answer to
    }
    if (!have || type == MsgType::kShutdown) break;
    if (type != MsgType::kJobBatch) break;

    std::vector<WireJob> jobs;
    try {
      jobs = decode_job_batch(payload);
    } catch (const std::exception&) {
      break;
    }

    // Group jobs by attack fingerprint, preserving first-seen order.
    std::vector<std::pair<std::string, std::vector<std::size_t>>> groups;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string key = attack_cache_key(jobs[i]);
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& g) { return g.first == key; });
      if (it == groups.end()) {
        groups.push_back({key, {i}});
      } else {
        it->second.push_back(i);
      }
    }

    for (const auto& [key, indices] : groups) {
      const WireJob& first = jobs[indices.front()];

      std::shared_ptr<Attack> attack;
      auto cached = attacks.find(key);
      if (cached != attacks.end()) {
        attack = cached->second;
      } else {
        try {
          const AttackTargets targets{
              scenario::make_original_source(pool, first.original),
              scenario::make_adapted_source(pool, first.adapted, cfg.fd)};
          attack = make_attack(first.attack, targets, first.spec);
          attacks.emplace(key, attack);
        } catch (const std::exception& e) {
          for (const std::size_t i : indices) {
            JobResult fail;
            fail.ticket = jobs[i].ticket;
            fail.first_sample = jobs[i].first_sample;
            fail.error = e.what();
            try {
              send_result(fail);
            } catch (const std::exception&) {
              _exit(1);
            }
          }
          continue;
        }
      }

      // Phase 1 — perturb shards in parallel through one shared Attack
      // instance, keyed by each job's within-request first_sample.
      std::vector<WorkerJobState> states(indices.size());
      for (std::size_t s = 0; s < indices.size(); ++s) {
        states[s].job = std::move(jobs[indices[s]]);
      }
      const auto num_states = static_cast<std::int64_t>(states.size());
      fork_join(threads.get(), num_states, [&](std::int64_t s) {
        WorkerJobState& st = states[static_cast<std::size_t>(s)];
        const auto t0 = std::chrono::steady_clock::now();
        try {
          st.adv = attack->perturb_indexed(st.job.images, st.job.labels,
                                           st.job.first_sample);
        } catch (const std::exception& e) {
          st.error = e.what();
        }
        st.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      });

      // Phase 2 — score verdicts sequentially (module forwards are
      // stateful) and stream each job's result frame.
      ModelFn orig_fn, deployed_fn;
      for (WorkerJobState& st : states) {
        JobResult result;
        result.ticket = st.job.ticket;
        result.first_sample = st.job.first_sample;
        result.seconds = st.seconds;
        result.error = st.error;
        if (result.error.empty()) {
          try {
            if (!orig_fn) {
              DIVA_CHECK(pool.original != nullptr,
                         "worker pool lacks the true original model");
              pool.original->set_training(false);
              orig_fn = [m = pool.original](const Tensor& x) {
                return m->forward(x);
              };
              deployed_fn = scenario::deployed_model_fn(pool, st.job.adapted);
            }
            const std::vector<int> orig_pred =
                argmax_rows(orig_fn(st.adv));
            const std::vector<int> adapted_pred =
                argmax_rows(deployed_fn(st.adv));
            result.verdicts.resize(st.job.labels.size());
            for (std::size_t i = 0; i < st.job.labels.size(); ++i) {
              SampleVerdict& v = result.verdicts[i];
              v.preserved = orig_pred[i] == st.job.labels[i];
              v.fooled = adapted_pred[i] != st.job.labels[i];
              v.evaded = v.preserved && v.fooled;
            }
            result.adv = std::move(st.adv);
          } catch (const std::exception& e) {
            result.error = e.what();
            result.adv = Tensor();
            result.verdicts.clear();
          }
        }
        try {
          send_result(result);
        } catch (const std::exception&) {
          _exit(1);  // parent gone
        }
      }
    }

    // Stats trailer: after the last result of every batch, ship this
    // worker's cumulative telemetry (zeroed at fork by the registry's
    // atfork hook, so it covers exactly this worker's own work). Always
    // sent — empty when telemetry is disabled — so the parent's framing
    // never depends on env agreement across the fork.
    try {
      std::lock_guard<std::mutex> lock(write_mu);
      write_frame(fd, encode_stats_reply(telemetry::snapshot()));
    } catch (const std::exception&) {
      _exit(1);  // parent gone
    }
  }
  // _exit: a forked child must not run the parent's static destructors
  // or flush its inherited stdio buffers.
  _exit(0);
}

// ---------------------------------------------------------------------------
// AttackServer
// ---------------------------------------------------------------------------

AttackServer::AttackServer(scenario::ModelPool pool, ServeConfig cfg)
    : pool_(pool), cfg_(std::move(cfg)) {
  DIVA_CHECK(!cfg_.socket_path.empty(), "ServeConfig.socket_path is required");
  DIVA_CHECK(cfg_.socket_path.size() < sizeof(sockaddr_un::sun_path),
             "socket path too long: " << cfg_.socket_path);
  DIVA_CHECK(cfg_.workers >= 1, "need at least one worker process");
  DIVA_CHECK(cfg_.worker_threads >= 1, "need at least one worker thread");
  DIVA_CHECK(cfg_.shard_size >= 1, "shard_size must be at least 1");
  DIVA_CHECK(cfg_.max_batch_jobs >= 1, "max_batch_jobs must be at least 1");
  DIVA_CHECK(pool_.original != nullptr,
             "serving requires the true original model (verdict scoring)");
}

AttackServer::~AttackServer() {
  try {
    stop();
  } catch (const std::exception&) {
    // Destructor shutdown is best-effort.
  }
}

std::string AttackServer::validate_request(const AttackRequest& req) const {
  // Unknown kinds surface the registry's own error text.
  try {
    (void)attack_traits(req.attack);
  } catch (const Error& e) {
    return e.what();
  }
  if (req.images.rank() != 4 || req.images.dim(0) == 0) {
    return "request batch must be a non-empty NCHW tensor";
  }
  if (static_cast<std::int64_t>(req.labels.size()) != req.images.dim(0)) {
    return "request labels size " + std::to_string(req.labels.size()) +
           " != batch size " + std::to_string(req.images.dim(0));
  }
  if (req.spec.cfg.steps < 1) return "attack steps must be at least 1";
  if (!(req.spec.cfg.epsilon > 0.0f)) return "attack epsilon must be positive";
  if (!(req.spec.cfg.alpha > 0.0f)) return "attack alpha must be positive";
  if (req.adapted == scenario::AdaptedKind::kInt8Batched) {
    return "adapted kind 'int8-batched' is not a request column: the server "
           "batches every request (request 'int8-fd' instead)";
  }
  const std::string missing =
      scenario::pool_missing_reason(pool_, req.original, req.adapted);
  if (!missing.empty()) return missing;
  // The registry's exact rejection shapes: build the same targets a
  // worker would and let validate_attack_targets judge them.
  const AttackTargets targets{
      scenario::make_original_source(pool_, req.original),
      scenario::make_adapted_source(pool_, req.adapted, cfg_.fd)};
  return validate_attack_targets(req.attack, targets);
}

void AttackServer::start() {
  DIVA_CHECK(!started_, "AttackServer::start called twice");
  started_ = true;

  // Bind + listen first so workers can be forked before any thread
  // exists in this process (the initial forks must be single-threaded).
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DIVA_CHECK(listen_fd_ >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(cfg_.socket_path.c_str());
  DIVA_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0,
             "bind(" << cfg_.socket_path
                     << ") failed: " << std::strerror(errno));
  DIVA_CHECK(::listen(listen_fd_, cfg_.listen_backlog) == 0,
             "listen failed: " << std::strerror(errno));

  workers_.resize(cfg_.workers);
  worker_stats_.assign(cfg_.workers, WorkerStats{});
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    DIVA_CHECK(spawn_worker(w), "failed to fork worker " << w);
  }

  running_.store(true);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    dispatchers_.emplace_back([this, w] { dispatch_loop(w); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void AttackServer::stop() {
  if (!started_ || !running_.exchange(false)) {
    if (started_ && accept_thread_.joinable()) accept_thread_.join();
    return;
  }

  // 1. Stop accepting; wake the accept loop.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Stop taking requests: kick every connection reader, join them.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) ::shutdown(conn->fd, SHUT_RD);
  }
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
  }

  // 3. Drain: close the queue, let dispatchers push the remaining jobs
  //    through the workers and deliver the results.
  queue_.close();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  dispatchers_.clear();

  // 4. Reap workers.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerLink& link = workers_[w];
    if (link.fd >= 0) {
      try {
        write_frame(link.fd, encode_shutdown());
      } catch (const std::exception&) {
        // Worker already gone; reaping below still applies.
      }
    }
    reap_worker(w);
  }

  // 5. Release the front-end.
  close_fd(listen_fd_);
  ::unlink(cfg_.socket_path.c_str());
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) close_fd(conn->fd);
    conns_.clear();
  }
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_.clear();
}

std::size_t AttackServer::live_conns() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

std::vector<pid_t> AttackServer::worker_pids() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  std::vector<pid_t> pids;
  for (const WorkerLink& link : workers_) {
    if (link.alive) pids.push_back(link.pid);
  }
  return pids;
}

bool AttackServer::spawn_worker(std::size_t w) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    // Child: drop the parent-side fds we know about, then serve. The
    // inherited listening socket must go so the bound path dies with
    // the parent, not with the slowest worker.
    ::close(sv[0]);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    for (const WorkerLink& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    run_worker(sv[1], pool_, cfg_, static_cast<unsigned>(w));
  }
  ::close(sv[1]);
  std::lock_guard<std::mutex> lock(workers_mu_);
  workers_[w] = WorkerLink{pid, sv[0], true};
  return true;
}

void AttackServer::reap_worker(std::size_t w) {
  WorkerLink link;
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    link = workers_[w];
    workers_[w].alive = false;
    workers_[w].fd = -1;
  }
  if (link.fd >= 0) ::close(link.fd);
  if (link.pid > 0) {
    int status = 0;
    (void)::waitpid(link.pid, &status, 0);
  }
  {
    // Fold the dead worker's last shipped snapshot into the slot's
    // retired total so its counted work outlives the process (this is
    // what keeps stats intact across a SIGKILLed worker).
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (w < worker_stats_.size()) {
      telemetry::merge(&worker_stats_[w].retired, worker_stats_[w].latest);
      worker_stats_[w].latest = telemetry::Snapshot{};
    }
  }
  std::lock_guard<std::mutex> lock(workers_mu_);
  workers_[w].pid = -1;
}

telemetry::Snapshot AttackServer::stats_snapshot() const {
  telemetry::Snapshot snap = telemetry::snapshot();
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const WorkerStats& ws : worker_stats_) {
    telemetry::merge(&snap, ws.retired);
    telemetry::merge(&snap, ws.latest);
  }
  return snap;
}

void AttackServer::dispatch_loop(std::size_t w) {
  const CoalescePolicy policy{cfg_.max_batch_jobs, cfg_.coalesce_window};
  for (;;) {
    std::vector<ShardJob> batch = queue_.pop_batch(policy);
    if (batch.empty()) return;  // closed and drained
    DIVA_TRACE_SPAN("serve.dispatch_batch");

    bool alive;
    int fd;
    {
      std::lock_guard<std::mutex> lock(workers_mu_);
      alive = workers_[w].alive;
      fd = workers_[w].fd;
    }
    if (!alive) {
      DIVA_TELEM_COUNT("serve.worker.restarts", 1);
      if (!spawn_worker(w)) {
        // This worker slot is dead for good; hand the jobs to the
        // other dispatchers and retire.
        queue_.requeue(std::move(batch));
        std::fprintf(stderr,
                     "[serve] worker %zu respawn failed; slot retired\n", w);
        return;
      }
      std::lock_guard<std::mutex> lock(workers_mu_);
      fd = workers_[w].fd;
    }

    // Encode the coalesced batch and ship it.
    std::vector<WireJob> wire;
    wire.reserve(batch.size());
    for (const ShardJob& job : batch) {
      WireJob wj;
      wj.ticket = job.ticket;
      wj.attack = job.request->attack;
      wj.original = job.request->original;
      wj.adapted = job.request->adapted;
      wj.spec = job.request->spec;
      wj.first_sample = job.lo;
      slice_batch(*job.request, job.lo, job.hi, &wj.images, &wj.labels);
      wire.push_back(std::move(wj));
    }

    std::map<std::uint64_t, std::size_t> outstanding;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      outstanding.emplace(batch[i].ticket, i);
    }

    bool failed = false;
    try {
      write_frame(fd, encode_job_batch(wire));
    } catch (const std::exception&) {
      failed = true;
    }
    while (!failed && !outstanding.empty()) {
      MsgType type;
      std::vector<std::uint8_t> payload;
      try {
        if (!read_frame(fd, &type, &payload) || type != MsgType::kJobResult) {
          failed = true;
          break;
        }
        JobResult result = decode_job_result(payload);
        const auto it = outstanding.find(result.ticket);
        if (it == outstanding.end()) continue;  // defensive: stale ticket
        const std::size_t idx = it->second;
        outstanding.erase(it);
        deliver_result(batch[idx], std::move(result),
                       static_cast<std::uint32_t>(w));
      } catch (const std::exception&) {
        failed = true;
      }
    }

    // Per-batch stats trailer (always present after the last result).
    if (!failed) {
      MsgType type;
      std::vector<std::uint8_t> payload;
      try {
        if (read_frame(fd, &type, &payload) &&
            type == MsgType::kStatsReply) {
          telemetry::Snapshot snap = decode_stats_reply(payload);
          std::lock_guard<std::mutex> lock(stats_mu_);
          worker_stats_[w].latest = std::move(snap);
        } else {
          failed = true;  // worker died between results and trailer
        }
      } catch (const std::exception&) {
        failed = true;
      }
    }

    if (failed) {
      // The worker died (or the link corrupted): reap it, requeue the
      // jobs whose results never arrived — front of the queue, original
      // order — and respawn on the next loop.
      reap_worker(w);
      std::vector<ShardJob> still_in_flight;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (outstanding.count(batch[i].ticket)) {
          still_in_flight.push_back(std::move(batch[i]));
        }
      }
      std::fprintf(stderr,
                   "[serve] worker %zu died; requeueing %zu in-flight jobs\n",
                   w, still_in_flight.size());
      queue_.requeue(std::move(still_in_flight));
    }
  }
}

void AttackServer::deliver_result(const ShardJob& job, JobResult&& result,
                                  std::uint32_t worker_index) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  const auto it = pending_.find(job.request_key);
  if (it == pending_.end()) return;  // request already failed and closed
  PendingRequest& pr = it->second;

  if (!result.error.empty()) {
    if (!pr.failed) {
      pr.failed = true;
      DIVA_TELEM_COUNT("serve.requests.failed", 1);
      send_frame_to(pr.conn, encode_error({pr.request->id, result.error}));
    }
  } else if (!pr.failed) {
    ResultChunk chunk;
    chunk.id = pr.request->id;
    chunk.lo = job.lo;
    chunk.hi = job.hi;
    chunk.adv = std::move(result.adv);
    chunk.verdicts = std::move(result.verdicts);
    chunk.seconds = result.seconds;
    chunk.worker = worker_index;
    send_frame_to(pr.conn, encode_result_chunk(chunk));
  }

  if (--pr.remaining_shards == 0) {
    if (!pr.failed) {
      RequestDone done;
      done.id = pr.request->id;
      done.total = pr.request->images.dim(0);
      done.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - pr.t0)
                         .count();
      DIVA_TELEM_COUNT("serve.requests.completed", 1);
      DIVA_TELEM_COUNT("serve.samples.completed",
                       static_cast<std::uint64_t>(done.total));
      // Server-side latency, decode to last shard: what a client can't
      // see from the outside (excludes client-side queueing/transport).
      DIVA_TELEM_RECORD("serve.request_us",
                        static_cast<std::uint64_t>(done.seconds * 1e6));
      send_frame_to(pr.conn, encode_request_done(done));
    }
    pending_.erase(it);
  }
}

void AttackServer::send_frame_to(const std::shared_ptr<ClientConn>& conn,
                                 const std::vector<std::uint8_t>& frame) {
  if (conn->dead.load()) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  try {
    write_frame(conn->fd, frame);
  } catch (const std::exception&) {
    conn->dead.store(true);  // client went away; drop its later frames
  }
}

namespace {

/// accept(2) errnos that mean pressure (fd exhaustion, dropped
/// handshakes, momentary kernel memory shortage) rather than a broken
/// listener. These must never kill the accept thread: the listener fd
/// is still valid and the condition clears on its own.
bool accept_errno_is_transient(int err) {
  switch (err) {
    case ECONNABORTED:  // client gave up between connect and accept
    case EMFILE:        // process fd table full
    case ENFILE:        // system fd table full
    case EAGAIN:        // spurious wakeup on a (non)blocking listener
#if defined(EWOULDBLOCK) && EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case ENOBUFS:
    case ENOMEM:
#ifdef EPROTO
    case EPROTO:
#endif
      return true;
    default:
      return false;
  }
}

}  // namespace

void AttackServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) return;  // stop() shut the listener down
      if (accept_errno_is_transient(errno)) {
        DIVA_TELEM_COUNT("serve.accept.transient_errors", 1);
        std::fprintf(stderr, "[serve] accept: %s; retrying\n",
                     std::strerror(errno));
        // Reap first: finished connections are the likeliest source of
        // the fds this error is starving for.
        reap_dead_conns();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      std::fprintf(stderr, "[serve] accept failed: %s; listener down\n",
                   std::strerror(errno));
      return;
    }
    if (!running_.load()) {
      ::close(fd);
      return;
    }
    reap_dead_conns();
    auto conn = std::make_shared<ClientConn>();
    conn->fd = fd;
    conn->reader = std::thread([this, conn] { client_loop(conn); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
  }
}

void AttackServer::reap_dead_conns() {
  // A connection is reclaimable once its reader has exited AND nothing
  // else holds a reference (no pending request, no in-flight send) —
  // use_count()==1 means the reader lambda's copy is gone, so join()
  // returns immediately and closing the fd can't race a writer.
  std::vector<std::shared_ptr<ClientConn>> done;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto keep = conns_.begin();
    for (auto& conn : conns_) {
      if (conn->dead.load() && conn.use_count() == 1) {
        done.push_back(std::move(conn));
      } else {
        *keep++ = std::move(conn);
      }
    }
    conns_.erase(keep, conns_.end());
  }
  for (auto& conn : done) {
    if (conn->reader.joinable()) conn->reader.join();
    close_fd(conn->fd);
  }
}

void AttackServer::client_loop(const std::shared_ptr<ClientConn>& conn) {
  for (;;) {
    MsgType type;
    std::vector<std::uint8_t> payload;
    bool have = false;
    try {
      have = read_frame(conn->fd, &type, &payload);
    } catch (const std::exception&) {
      break;  // corrupted stream or reset; connection is done
    }
    if (!have) break;

    if (type == MsgType::kShutdown) {
      if (cfg_.on_shutdown_request) cfg_.on_shutdown_request();
      continue;
    }
    if (type == MsgType::kStatsRequest) {
      send_frame_to(conn, encode_stats_reply(stats_snapshot()));
      continue;
    }
    if (type != MsgType::kAttackRequest) {
      send_frame_to(conn, encode_error({0, "unexpected frame type"}));
      continue;
    }
    AttackRequest req;
    try {
      req = decode_attack_request(payload);
    } catch (const std::exception& e) {
      send_frame_to(conn,
                    encode_error({0, std::string("malformed request: ") +
                                         e.what()}));
      continue;
    }
    handle_request(conn, std::move(req));
  }
  conn->dead.store(true);
}

void AttackServer::handle_request(const std::shared_ptr<ClientConn>& conn,
                                  AttackRequest&& req) {
  DIVA_TRACE_SPAN("serve.handle_request");
  const std::string reason = validate_request(req);
  if (!reason.empty()) {
    DIVA_TELEM_COUNT("serve.requests.rejected", 1);
    send_frame_to(conn, encode_error({req.id, reason}));
    return;
  }
  DIVA_TELEM_COUNT("serve.requests.accepted", 1);
  DIVA_TELEM_COUNT("serve.samples.accepted",
                   static_cast<std::uint64_t>(req.images.dim(0)));

  const auto request =
      std::make_shared<const AttackRequest>(std::move(req));
  const std::uint64_t key = next_request_key_.fetch_add(1);
  std::uint64_t ticket_base = 0;  // placeholder; tickets come from the atomic
  std::vector<ShardJob> jobs;
  {
    // make_shard_jobs wants a plain counter; feed it a local snapshot
    // carved out of the atomic so tickets stay globally unique.
    const std::int64_t n = request->images.dim(0);
    const std::uint64_t count = static_cast<std::uint64_t>(
        (n + cfg_.shard_size - 1) / cfg_.shard_size);
    ticket_base = next_ticket_.fetch_add(count);
    std::uint64_t counter = ticket_base;
    jobs = make_shard_jobs(request, key, cfg_.shard_size, &counter);
  }

  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    PendingRequest pr;
    pr.conn = conn;
    pr.request = request;
    pr.remaining_shards = static_cast<std::int64_t>(jobs.size());
    pr.t0 = std::chrono::steady_clock::now();
    pending_.emplace(key, std::move(pr));
  }
  queue_.push(std::move(jobs));
}

}  // namespace diva::serve
