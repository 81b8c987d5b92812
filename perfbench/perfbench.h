// perfbench: the repository benchmark. Shared types for the three
// workloads (edge-infer, attack, served); see README.md for what each
// workload runs, why it exists, and what every metric means.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/sequential.h"
#include "quant/quantized_model.h"
#include "scenario/scenario.h"
#include "serve/server.h"
#include "telemetry/telemetry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Pinned workload parameters. Changing any of these changes what the
// benchmark measures, so it is a benchmark change of its own.
// ---------------------------------------------------------------------------

/// edge-infer: batch size of the round-robin phase and single-image
/// latency limit behind slo_pct.
inline constexpr std::int64_t kInferBatch = 64;
inline constexpr double kInferB1LimitMs = 5.0;

/// attack: §5.1 budget, engine geometry and probe configuration.
inline constexpr float kAttackEps = 8.0f / 255.0f;
inline constexpr float kAttackAlpha = 1.0f / 255.0f;
inline constexpr int kAttackSteps = 20;
inline constexpr std::uint64_t kAttackSeed = 7;
inline constexpr unsigned kEngineThreads = 4;
inline constexpr std::int64_t kShardSize = 4;
inline constexpr int kFdPairs = 16;
inline constexpr std::uint64_t kFdProbeSeed = 0x5B5AULL;
inline constexpr int kEvalPerClass = 5;
inline constexpr int kMinAttackPasses = 4;
/// Shard latency limit (4 images, fd phase) behind slo_pct.
inline constexpr double kAttackShardLimitMs = 2000.0;

/// served: server geometry, request mix, open-loop rate and limit.
inline constexpr unsigned kServeWorkers = 2;
inline constexpr unsigned kServeWorkerThreads = 2;
inline constexpr unsigned kServeConnections = 4;
inline constexpr int kServeSteps = 5;
inline constexpr double kOpenRatePerS = 10.0;
inline constexpr double kOpenLimitMs = 250.0;

// ---------------------------------------------------------------------------
// Model pool: identical for every workload, so setup_s means one thing.
// ---------------------------------------------------------------------------

struct Graph {
  std::string name;
  diva::Shape image;  // [C, H, W]
  const diva::QuantizedModel* q = nullptr;
};

struct Pool {
  std::unique_ptr<diva::Sequential> original;  // trained float digit net
  std::unique_ptr<diva::Sequential> qat;       // its QAT twin
  std::unique_ptr<diva::QuantizedModel> digit; // deployed int8 artifact
  std::vector<std::unique_ptr<diva::Sequential>> zoo_qat;
  std::vector<std::unique_ptr<diva::QuantizedModel>> zoo_int8;
  std::vector<Graph> graphs;  // digit, resnet, mobilenet, densenet, edge_residual

  diva::scenario::ModelPool model_pool() const;
};

/// Builds the pool: trains the SynthDigits float net and its QAT twin
/// (the scenario-matrix fixture recipe), compiles the int8 artifact, and
/// compiles the four untrained 3x32x32 zoo graphs with real calibration.
/// Runs on one thread, so the pool is the same in every run.
std::unique_ptr<Pool> build_pool();

// ---------------------------------------------------------------------------
// Metrics and output checks.
// ---------------------------------------------------------------------------

/// Where a metric is reported. kEndToEnd and kLayer metrics appear in the
/// result line of an untraced or traced run; kInfo metrics (the issue's
/// time-unit views of a metric) are printed and recorded only.
enum class Kind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kInfo;
  std::string alias;  // the workload-specific name of an end-to-end metric
};

class Report {
 public:
  /// Records an end-to-end metric under its benchmark-wide `name` and the
  /// workload-specific `alias` it stands for (e.g. main_img_s = fd_img_s).
  void e2e(const std::string& name, const std::string& alias, double value,
           const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void info(const std::string& name, double value, const std::string& unit);

  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  void put(Metric m);
  std::vector<Metric> metrics_;
};

/// Operation and check accounting behind attempted/failed/ok_pct.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures;  // by check name

  /// Counts one checked operation; `ok` false counts a failure.
  void check(const std::string& name, bool ok);
  /// Counts `n` timed operations of which `bad` failed (threw or were
  /// rejected).
  void ops(std::int64_t n, std::int64_t bad = 0);
};

/// A deliberate corruption the self-test injects into a workload's
/// outputs right before they are checked.
enum class Corrupt { kNone, kLogitByte, kPixelOutsideBall, kServedTensor };

struct Ctx {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  // self-test sizes
  Corrupt corrupt = Corrupt::kNone;
  Pool* pool = nullptr;
  Report report;
  Checks checks;
};

void run_edge_infer(Ctx& c);
void run_attack(Ctx& c);
/// `server` is started on the context's pool at setup (worker fork is
/// part of setup_s); the caller stops it.
void run_served(Ctx& c, diva::serve::AttackServer& server);

/// Server geometry of the served workload.
diva::serve::ServeConfig serve_config(const std::string& socket_path);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.
// ---------------------------------------------------------------------------

/// Mixes the workload seed into a generator seed for one input stream.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t stream);

/// True when both tensors have the same shape and identical bytes.
bool same_bits(const diva::Tensor& a, const diva::Tensor& b);

/// True when every pixel of adv lies within eps of x (L-inf) and in [0,1].
bool in_eps_ball(const diva::Tensor& adv, const diva::Tensor& x, float eps);

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0,1].
double quantile(std::vector<double> v, double q);

/// The tail the sample supports: the highest of p99.9/p99/p95/p90/p75/p50
/// with at least ten samples beyond it in a sample of `min_n`, the count
/// the workload guarantees (so the percentile is the same in every run).
/// Returns the percentile in *pct.
double tail(const std::vector<double>& v, std::size_t min_n, double* pct);

/// Counter total of every telemetry counter whose name starts with
/// `prefix` (e.g. all ISA tiers of kernels.igemm.macs).
std::uint64_t counter_sum(const diva::telemetry::Snapshot& s,
                          const std::string& prefix);
std::uint64_t counter(const diva::telemetry::Snapshot& s,
                      const std::string& name);

/// Peak resident set of this process and of its largest reaped child.
double peak_rss_mb();

}  // namespace perfbench
