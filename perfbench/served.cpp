// served: AttackServer over AF_UNIX, 2 worker processes x 2 threads,
// serving diva (float original, int8-ste) requests in a seeded mix of
// 4-image (one shard) and 16-image (four shard) requests. The only
// workload that runs the protocol, the queue, coalescing, dispatch and
// the forked workers.
//   capacity phase — closed loop: 4 connections, each sending its next
//                    request when the reply arrives.
//   open phase     — open loop at a pinned rate over 4 connections; each
//                    request is timed from when it was due.
#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <span>
#include <thread>

#include "attack/engine.h"
#include "data/synth_digits.h"
#include "perfbench.h"
#include "runtime/rng.h"
#include "serve/client.h"

namespace perfbench {

using namespace diva;
using scenario::AdaptedKind;
using scenario::OriginalKind;

namespace {

constexpr int kCapacityWindows = 4;
constexpr int kChecked = 4;  // served requests re-run in-process

constexpr std::int64_t kMaxRequests = 5 << 14;

/// The seeded request mix. Every block of five requests holds four
/// 4-image (one shard) and one 16-image (four shard) request in seeded
/// order: fixed proportions keep the image count per phase and the
/// latency mixture the same in every run, and put p50 well inside the
/// small requests and the p90 tail inside the large ones. The image pool is cut
/// into shard-sized groups, taken in turn from a seeded cyclic order of
/// all groups. Every shard is one group with fixed members and positions,
/// so its attack arithmetic is the same in every request and run, and the
/// cycle serves every group equally often: served_evasion_pct measures
/// the attack, not the draw.
struct RequestMaker {
  Dataset data;
  int steps = kServeSteps;
  std::vector<int> order;              // seeded permutation of group ids
  std::vector<std::int64_t> first;     // first cycle position of request i
  std::vector<std::int8_t> groups;     // groups in request i (1 or 4)

  RequestMaker(Dataset pool, std::uint64_t seed) : data(std::move(pool)) {
    const std::int64_t g = data.size() / kShardSize;
    for (std::int64_t k = 0; k < g; ++k) order.push_back(static_cast<int>(k));
    Rng rng(seed);
    rng.shuffle(std::span<int>(order));
    std::int64_t at = 0;
    for (std::int64_t i = 0; i < kMaxRequests; i += 5) {
      const std::int64_t large = static_cast<std::int64_t>(rng.next() % 5);
      for (std::int64_t k = 0; k < 5; ++k) {
        const std::int8_t n = k == large ? 4 : 1;
        first.push_back(at);
        groups.push_back(n);
        at += n;
      }
    }
  }

  /// Pool groups of request i, in request order.
  std::vector<int> group_ids(std::int64_t i) const {
    DIVA_CHECK(i < kMaxRequests, "served: request index out of range");
    const std::size_t r = static_cast<std::size_t>(i);
    std::vector<int> ids;
    for (std::int64_t k = 0; k < groups[r]; ++k) {
      ids.push_back(order[static_cast<std::size_t>(
          (first[r] + k) % static_cast<std::int64_t>(order.size()))]);
    }
    return ids;
  }

  serve::AttackRequest make(std::int64_t i) const {
    std::vector<int> idx;
    for (const int g : group_ids(i)) {
      for (std::int64_t j = 0; j < kShardSize; ++j) {
        idx.push_back(static_cast<int>(g * kShardSize + j));
      }
    }
    const Dataset part = data.subset(idx);
    serve::AttackRequest req;
    req.attack = "diva";
    req.original = OriginalKind::kFloat;
    req.adapted = AdaptedKind::kInt8Ste;
    req.spec.cfg.epsilon = kAttackEps;
    req.spec.cfg.alpha = kAttackAlpha;
    req.spec.cfg.steps = steps;
    req.spec.cfg.seed = kAttackSeed;
    req.images = part.images;
    req.labels = part.labels;
    return req;
  }
};

/// One completed request as the client saw it.
struct Done {
  std::int64_t index = 0;
  std::int64_t images = 0;
  double client_ms = 0.0;
  double server_ms = 0.0;
  double shard_ms = 0.0;
  std::vector<int> group_evaded;  // evaded samples per request group
  Tensor adv;  // kept only for the checked subset
};

bool checked_index(std::int64_t i) { return i % 5 == 0; }

telemetry::Snapshot server_stats(const std::string& path) {
  serve::AttackClient probe(path);
  return probe.stats();
}

}  // namespace

serve::ServeConfig serve_config(const std::string& socket_path) {
  serve::ServeConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = kServeWorkers;
  cfg.worker_threads = kServeWorkerThreads;
  cfg.shard_size = kShardSize;
  // Worker w runs on cores [2w, 2w+2). Unpinned, a lone shard's nested
  // parallel_for fans out over its worker's 4-thread global pool while
  // the other worker's threads share the same 4 cores, and single-shard
  // latency jumps between about 1x and 2x from run to run.
  cfg.pin_workers = true;
  return cfg;
}

void run_served(Ctx& c, serve::AttackServer& server) {
  const std::string& path = server.config().socket_path;
  RequestMaker maker(SynthDigits(77).generate(20, 8000),
                     input_seed(c.seed, 5));
  maker.steps = c.tiny ? 2 : kServeSteps;

  std::mutex mu;  // guards the result vectors below
  std::vector<Done> done;
  std::int64_t failed = 0, attempted = 0;

  auto send = [&](serve::AttackClient& client, std::int64_t i,
                  Clock::time_point t0) -> bool {
    serve::AttackRequest req = maker.make(i);
    Done d;
    d.index = i;
    d.images = req.images.dim(0);
    try {
      const serve::ServedResult r = client.run(std::move(req));
      d.client_ms = seconds_since(t0) * 1e3;
      d.server_ms = r.server_seconds * 1e3;
      d.shard_ms = r.max_shard_seconds * 1e3;
      for (std::size_t s = 0; s < r.verdicts.size(); ++s) {
        if (s % kShardSize == 0) d.group_evaded.push_back(0);
        d.group_evaded.back() += r.verdicts[s].evaded;
      }
      if (checked_index(i)) d.adv = r.adv;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "served request %lld failed: %s\n",
                   static_cast<long long>(i), e.what());
      std::lock_guard<std::mutex> lock(mu);
      ++attempted;
      ++failed;
      return false;
    }
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    done.push_back(std::move(d));
    return true;
  };

  // ---- Capacity phase: closed loop in sub-windows. ------------------------
  // Traced runs take a server stats snapshot around the odd windows: the
  // stats round trip is what tracing costs here.
  const double cap_s = (c.tiny ? 1.0 : c.seconds * 0.25) / kCapacityWindows;
  std::atomic<std::int64_t> next{0};
  std::vector<double> window_img_s, window_img_s_traced;
  const telemetry::Snapshot stats0 = server_stats(path);
  for (int w = 0; w < kCapacityWindows; ++w) {
    const bool traced = c.trace && w % 2 == 1;
    if (traced) (void)server_stats(path);
    std::int64_t images_before = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      for (const Done& d : done) images_before += d.images;
    }
    const auto w0 = Clock::now();
    const auto deadline = w0 + std::chrono::duration<double>(cap_s);
    std::vector<std::thread> clients;
    for (unsigned k = 0; k < kServeConnections; ++k) {
      clients.emplace_back([&] {
        try {
          serve::AttackClient client(path);
          while (Clock::now() < deadline) {
            (void)send(client, next++, Clock::now());
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "served client failed: %s\n", e.what());
          std::lock_guard<std::mutex> lock(mu);
          ++attempted;
          ++failed;
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double secs = seconds_since(w0);
    if (traced) (void)server_stats(path);
    std::int64_t images_after = 0;
    for (const Done& d : done) images_after += d.images;
    (traced ? window_img_s_traced : window_img_s)
        .push_back(static_cast<double>(images_after - images_before) / secs);
  }
  std::vector<Done> capacity_done = done;

  // ---- Open phase: pinned rate, latency from the due time. -----------------
  const double rate = c.tiny ? 20.0 : kOpenRatePerS;
  const std::int64_t open_n =
      c.tiny ? 8
             : static_cast<std::int64_t>(rate * c.seconds * 0.7);
  const std::int64_t first_open = next.load();
  std::vector<double> open_ms(static_cast<std::size_t>(open_n), -1.0);
  std::vector<double> late_ms(static_cast<std::size_t>(open_n), 0.0);
  std::int64_t open_images = 0;
  const auto o0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> conns;
  for (unsigned k = 0; k < kServeConnections; ++k) {
    conns.emplace_back([&, k] {
      std::unique_ptr<serve::AttackClient> client;
      try {
        client = std::make_unique<serve::AttackClient>(path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "served connection failed: %s\n", e.what());
        // Its requests stay at -1: failed, SLO missed.
        std::lock_guard<std::mutex> lock(mu);
        for (std::int64_t j = k; j < open_n; j += kServeConnections) {
          ++attempted;
          ++failed;
        }
        return;
      }
      for (std::int64_t j = k; j < open_n; j += kServeConnections) {
        const auto due = o0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      static_cast<double>(j) / rate));
        std::this_thread::sleep_until(due);
        late_ms[static_cast<std::size_t>(j)] = seconds_since(due) * 1e3;
        if (send(*client, first_open + j, due)) {
          open_ms[static_cast<std::size_t>(j)] = seconds_since(due) * 1e3;
        }
      }
    });
  }
  for (std::thread& t : conns) t.join();
  const double open_wall = seconds_since(o0);
  for (const Done& d : done) {
    if (d.index >= first_open) open_images += d.images;
  }
  // Let the workers' per-batch stats trailers land before the snapshot.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const telemetry::Snapshot delta =
      telemetry::diff(server_stats(path), stats0);

  // ---- Output checks: served tensors vs an in-process engine run. ----------
  const scenario::ModelPool mp = c.pool->model_pool();
  {
    const AttackEngine engine({kEngineThreads, kShardSize});
    int n_checked = 0;
    for (Done& d : done) {
      if (!checked_index(d.index) || d.adv.empty()) continue;
      if (n_checked++ >= (c.tiny ? 1 : kChecked)) break;
      const serve::AttackRequest req = maker.make(d.index);
      const AttackTargets targets{
          scenario::make_original_source(mp, req.original),
          scenario::make_adapted_source(mp, req.adapted, {})};
      const auto attack = make_attack(req.attack, targets, req.spec);
      const Tensor local = engine.run(*attack, req.images, req.labels);
      if (c.corrupt == Corrupt::kServedTensor && n_checked == 1) {
        d.adv[0] += 0.001f;
      }
      c.checks.check("served_vs_inprocess", same_bits(d.adv, local));
    }
    c.checks.check("served_checked_some", n_checked > 0);
  }
  c.checks.ops(attempted, failed);

  // A group is one shard with fixed members wherever it is served, so
  // its verdicts must agree across requests. quality_pct counts each
  // served group once: the share of the pool the served attack evades.
  std::map<int, int> group_evaded;
  for (const Done& d : done) {
    const std::vector<int> ids = maker.group_ids(d.index);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const auto [it, fresh] = group_evaded.emplace(ids[k], d.group_evaded[k]);
      c.checks.check("group_verdicts_stable",
                     fresh || it->second == d.group_evaded[k]);
    }
  }

  // ---- End-to-end metrics. ------------------------------------------------
  Report& rep = c.report;
  std::vector<double> lat;
  std::int64_t within = 0, images = 0, evaded = 0;
  for (const auto& [g, n] : group_evaded) evaded += n;
  for (const double ms : open_ms) {
    within += ms >= 0.0 && ms <= kOpenLimitMs;
    if (ms >= 0.0) lat.push_back(ms);
  }
  for (const Done& d : done) images += d.images;
  double tail_pct = 0.0;
  const double served_tail =
      tail(lat, static_cast<std::size_t>(open_n), &tail_pct);
  const double served_img_s = median(window_img_s);
  rep.e2e("main_img_s", "served_img_s", served_img_s, "img/s");
  rep.e2e("second_img_s", "served_open_img_s",
          static_cast<double>(open_images) / open_wall, "img/s");
  rep.e2e("p50_ms", "served_p50_ms", median(lat), "ms");
  rep.e2e("tail_ms", "served_tail_ms", served_tail, "ms");
  rep.e2e("slo_pct", "served_slo_pct",
          100.0 * static_cast<double>(within) / static_cast<double>(open_n),
          "%");
  rep.e2e("queries_per_img", "served_int8_rows_per_img",
          static_cast<double>(counter(delta, "quant.forward.rows")) /
              static_cast<double>(std::max<std::int64_t>(1, images)),
          "queries");
  rep.e2e("quality_pct", "served_evasion_pct",
          100.0 * static_cast<double>(evaded) /
              static_cast<double>(kShardSize *
                                  std::max<std::size_t>(1, group_evaded.size())),
          "%");
  rep.info("served_img_s", served_img_s, "img/s");
  rep.info("served_p50_ms", median(lat), "ms");
  rep.info("served_tail_ms", served_tail, "ms");
  rep.info("served_tail_percentile", tail_pct, "pct");
  rep.info("served_open_samples", static_cast<double>(lat.size()), "count");
  rep.info("served_slo_pct", rep.find("slo_pct")->value, "%");
  rep.info("served_requests", static_cast<double>(attempted), "count");

  const double late_max = *std::max_element(late_ms.begin(), late_ms.end());
  rep.info("serve.gen_late_ms_max", late_max, "ms");
  rep.layer("serve.gen_late_pct", late_max / (1e3 / rate) * 100.0, "%");
  rep.layer("serve.requeued",
            static_cast<double>(counter(delta, "serve.jobs.requeued")),
            "count");
  rep.layer("serve.worker_restarts",
            static_cast<double>(counter(delta, "serve.worker.restarts")),
            "count");
  rep.layer("serve.rejected",
            static_cast<double>(counter(delta, "serve.requests.rejected")),
            "count");
  if (!c.trace) return;

  // ---- Per-layer metrics (traced run). ------------------------------------
  rep.layer("trace.overhead_pct",
            (median(window_img_s) / median(window_img_s_traced) - 1.0) * 100.0,
            "%");
  std::vector<double> client, frontend, queue, shard, fe_pct, q_pct, sh_pct;
  for (const Done& d : capacity_done) {
    client.push_back(d.client_ms);
    frontend.push_back(d.client_ms - d.server_ms);
    queue.push_back(d.server_ms - d.shard_ms);
    shard.push_back(d.shard_ms);
    fe_pct.push_back(100.0 * (d.client_ms - d.server_ms) / d.client_ms);
    q_pct.push_back(100.0 * (d.server_ms - d.shard_ms) / d.client_ms);
    sh_pct.push_back(100.0 * d.shard_ms / d.client_ms);
  }
  rep.info("serve.client_ms_p50", median(client), "ms");
  rep.info("serve.frontend_ms_p50", median(frontend), "ms");
  rep.info("serve.queue_ms_p50", median(queue), "ms");
  rep.info("serve.shard_ms_p50", median(shard), "ms");
  rep.layer("serve.frontend_pct", median(fe_pct), "%");
  rep.layer("serve.queue_pct", median(q_pct), "%");
  rep.layer("serve.shard_pct", median(sh_pct), "%");
  auto hist_mean = [&](const char* name) {
    const auto it = delta.histograms.find(name);
    return it == delta.histograms.end() ? 0.0 : it->second.mean();
  };
  rep.layer("serve.batch_jobs_mean", hist_mean("serve.batch.jobs"), "jobs");
  rep.layer("serve.batch_occupancy_pct",
            hist_mean("serve.batch.occupancy_pct"), "%");
  rep.layer("serve.queue_depth_mean", hist_mean("serve.queue.depth"), "jobs");
  const double macs =
      static_cast<double>(counter_sum(delta, "kernels.igemm.macs."));
  rep.layer("kernels.igemm.bytes_per_mac",
            macs > 0 ? static_cast<double>(counter_sum(
                           delta, "kernels.igemm.packed_bytes.")) /
                           macs
                     : 0.0,
            "B/MAC");
  rep.layer("quant.rows_per_call",
            static_cast<double>(counter(delta, "quant.forward.rows")) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, counter(delta, "quant.forward.calls"))),
            "rows");

  // Same-run single-process baseline: the same request mix through
  // AttackEngine at 4 threads.
  const AttackEngine engine({kEngineThreads, kShardSize});
  const auto attack = make_attack(
      "diva",
      {scenario::make_original_source(mp, OriginalKind::kFloat),
       scenario::make_adapted_source(mp, AdaptedKind::kInt8Ste, {})},
      maker.make(0).spec);
  std::int64_t eng_images = 0;
  const auto e0 = Clock::now();
  const double eng_s = c.tiny ? 0.5 : c.seconds * 0.1;
  for (std::int64_t i = 0; i < 2 || seconds_since(e0) < eng_s; ++i) {
    const serve::AttackRequest req = maker.make(i);
    (void)engine.run(*attack, req.images, req.labels);
    eng_images += req.images.dim(0);
  }
  const double engine_img_s =
      static_cast<double>(eng_images) / seconds_since(e0);
  rep.layer("serve.engine_img_s", engine_img_s, "img/s");
  rep.layer("serve.over_engine", served_img_s / engine_img_s, "x");
}

}  // namespace perfbench
