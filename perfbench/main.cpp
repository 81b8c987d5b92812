// perfbench entry point: builds the model pool, runs one workload, checks its
// outputs and prints every metric by name and unit. The last stdout line
// is the result object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced run (--trace 1).
//
//   perfbench --workload edge-infer|attack|served --seed N --seconds S
//             --trace 0|1 [--revision R] [--results FILE]
//   perfbench --selftest
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "kernels/cpu_features.h"
#include "kernels/kernel_dispatch.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace diva;

const auto kProcessStart = Clock::now();

struct Named {
  const char* name;
  const char* unit;
};

// k_end_to_end and k_per_layer: the metric lists of BENCHMARK.json, in
// order, generated at configure time.
#include "metric_lists.inc"

const char* const kWorkloads[] = {"edge-infer", "attack", "served"};

bool is_time_unit(const std::string& u) {
  return u == "s" || u == "ms" || u == "us" || u == "ns";
}

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string revision = "unknown";
  std::string results;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--revision") {
      a->revision = v;
    } else if (k == "--results") {
      a->results = v;
    } else {
      return false;
    }
  }
  if (a->selftest) return true;
  for (const char* w : kWorkloads) {
    if (a->workload == w) return a->seconds > 0.0;
  }
  return false;
}

std::string socket_path(int k) {
  std::filesystem::create_directories(".bench_build");
  return ".bench_build/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(k) + ".sock";
}

/// Machine context stamped on every result: numbers from different ISA
/// tiers or core counts are never one series.
std::string context_json(const Args& a) {
  std::ostringstream o;
  o << "{\"workload\":\"" << a.workload << "\",\"seed\":" << a.seed
    << ",\"seconds\":" << fmt_value(a.seconds)
    << ",\"trace\":" << (a.trace ? 1 : 0) << ",\"isa_tier\":\""
    << isa_tier_name(active_isa_tier()) << "\",\"cpu_flags\":\""
    << json_escape(cpu_features_summary())
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"telemetry\":" << (telemetry::kCompiledIn ? "true" : "false")
    << ",\"revision\":\"" << json_escape(a.revision) << "\"}";
  return o.str();
}

/// Fills in the per-layer metrics a workload does not exercise: 0 work.
/// Time units are never filled (a layer time of 0 would not be measured).
bool complete_layers(Report& r, std::string* missing) {
  for (const Named& m : k_per_layer) {
    if (r.find(m.name) != nullptr) continue;
    if (is_time_unit(m.unit)) {
      *missing += std::string(" ") + m.name;
      continue;
    }
    r.layer(m.name, 0.0, m.unit);
  }
  return missing->empty();
}

/// The result object's metrics for the run's mode, in list order.
std::string result_metrics(const Report& r, bool trace, std::string* error) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  auto emit = [&](const Named& m) {
    const Metric* got = r.find(m.name);
    if (got == nullptr) {
      *error += std::string(" missing:") + m.name;
      return;
    }
    if (got->unit != m.unit) {
      *error += std::string(" unit:") + m.name + "=" + got->unit;
    }
    if (!std::isfinite(got->value)) {
      *error += std::string(" nonfinite:") + m.name;
      return;
    }
    o << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
      << fmt_value(got->value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const Named& m : k_per_layer) emit(m);
  } else {
    for (const Named& m : k_end_to_end) emit(m);
  }
  o << "}";
  return o.str();
}

void print_table(const Report& r) {
  for (const Kind kind : {Kind::kEndToEnd, Kind::kInfo, Kind::kLayer}) {
    const char* title = kind == Kind::kEndToEnd ? "end-to-end"
                        : kind == Kind::kInfo   ? "named views"
                                                : "per-layer";
    std::printf("  -- %s\n", title);
    for (const Metric& m : r.all()) {
      if (m.kind != kind) continue;
      std::printf("  %-34s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(),
                  m.alias.empty() ? "" : ("= " + m.alias).c_str());
    }
  }
}

/// Runs one workload on `pool` (and `server`, for served).
void run_workload(const std::string& w, Ctx& c, serve::AttackServer* server) {
  if (w == "edge-infer") {
    run_edge_infer(c);
  } else if (w == "attack") {
    run_attack(c);
  } else {
    run_served(c, *server);
  }
}

int run(const Args& a) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  const std::string context = context_json(a);
  std::printf("context: %s\n", context.c_str());
  std::fflush(stdout);

  // Setup, three times; setup_s is the median. Each setup builds the
  // whole pool (data, training, calibrate + compile) and, for served,
  // forks the server's workers.
  const bool served = a.workload == "served";
  std::vector<double> setup_s;
  std::unique_ptr<Pool> pool;
  std::unique_ptr<serve::AttackServer> server;
  for (int k = 0; k < 3; ++k) {
    if (k > 0) {
      server.reset();
      pool.reset();
    }
    const auto t0 = k == 0 ? kProcessStart : Clock::now();
    pool = build_pool();
    if (served) {
      server = std::make_unique<serve::AttackServer>(
          pool->model_pool(), serve_config(socket_path(k)));
      server->start();
    }
    setup_s.push_back(seconds_since(t0));
  }

  Ctx c;
  c.seed = a.seed;
  c.seconds = a.seconds;
  c.trace = a.trace;
  c.pool = pool.get();
  try {
    run_workload(a.workload, c, server.get());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload failed: %s\n", e.what());
    return 1;
  }
  if (server) server->stop();
  server.reset();

  Report& r = c.report;
  r.e2e("setup_s", "setup_s", median(setup_s), "s");
  r.e2e("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), "MB");
  const double fail_pct = 100.0 * static_cast<double>(c.checks.failed) /
                          static_cast<double>(c.checks.attempted);
  r.e2e("ok_pct", "100 - fail_pct", 100.0 - fail_pct, "%");
  r.info("fail_pct", fail_pct, "%");
  std::string missing;
  const bool layers_ok = !a.trace || complete_layers(r, &missing);

  print_table(r);
  std::printf("checks: attempted=%lld failed=%lld\n",
              static_cast<long long>(c.checks.attempted),
              static_cast<long long>(c.checks.failed));
  for (const auto& [name, n] : c.checks.failures) {
    std::printf("  FAILED %s x%lld\n", name.c_str(), static_cast<long long>(n));
  }

  std::string error;
  const std::string metrics = result_metrics(r, a.trace, &error);
  if (!layers_ok) error += " unmeasured layer times:" + missing;

  if (!a.results.empty()) {
    std::ofstream f(a.results);
    f << "{\"context\":" << context << ",\"attempted\":" << c.checks.attempted
      << ",\"failed\":" << c.checks.failed << ",\"metrics\":[";
    bool first = true;
    for (const Metric& m : r.all()) {
      f << (first ? "" : ",") << "{\"name\":\"" << m.name
        << "\",\"value\":" << (std::isfinite(m.value) ? fmt_value(m.value)
                                                      : std::string("null"))
        << ",\"unit\":\"" << m.unit << "\",\"kind\":\""
        << (m.kind == Kind::kEndToEnd ? "end_to_end"
            : m.kind == Kind::kLayer  ? "per_layer"
                                      : "view")
        << "\",\"alias\":\"" << json_escape(m.alias) << "\"}";
      first = false;
    }
    f << "]}\n";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: result incomplete:%s\n", error.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              c.checks.failed == 0 ? "true" : "false",
              static_cast<long long>(c.checks.attempted),
              static_cast<long long>(c.checks.failed), metrics.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: a tiny run of every workload emits every named metric with
// its unit, and every output check trips on a deliberately corrupted
// output.
// ---------------------------------------------------------------------------

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    bad += ok ? 0 : 1;
  };
  const std::unique_ptr<Pool> pool = build_pool();
  const struct {
    const char* workload;
    Corrupt corrupt;
    std::vector<std::string> trips;
  } cases[] = {
      {"edge-infer", Corrupt::kLogitByte,
       {"isa_tier_vs_scalar", "batched_vs_single"}},
      {"attack", Corrupt::kPixelOutsideBall,
       {"eps_ball", "repetition_bit_identical"}},
      {"served", Corrupt::kServedTensor, {"served_vs_inprocess"}},
  };
  int sock = 0;
  for (const auto& tc : cases) {
    std::printf("selftest %s\n", tc.workload);
    for (const Corrupt corrupt : {Corrupt::kNone, tc.corrupt}) {
      for (const bool trace : {false, true}) {
        if (corrupt != Corrupt::kNone && trace) continue;
        Ctx c;
        c.seed = 3;
        c.seconds = 0.2;
        c.trace = trace;
        c.tiny = true;
        c.corrupt = corrupt;
        c.pool = pool.get();
        std::unique_ptr<serve::AttackServer> server;
        if (std::string(tc.workload) == "served") {
          server = std::make_unique<serve::AttackServer>(
              pool->model_pool(), serve_config(socket_path(100 + sock++)));
          server->start();
        }
        try {
          run_workload(tc.workload, c, server.get());
        } catch (const std::exception& e) {
          expect(false, std::string("ran: ") + e.what());
          continue;
        }
        if (server) server->stop();
        c.report.e2e("setup_s", "setup_s", 1.0, "s");
        c.report.e2e("peak_rss_mb", "peak_rss_mb", peak_rss_mb(), "MB");
        c.report.e2e("ok_pct", "", 100.0, "%");
        const std::string mode = trace ? "traced" : "untraced";
        if (corrupt == Corrupt::kNone) {
          expect(c.checks.failed == 0,
                 mode + " clean run passes every output check");
          std::string missing;
          if (trace) {
            expect(complete_layers(c.report, &missing),
                   mode + " measures every per-layer time:" + missing);
          }
          std::string error;
          (void)result_metrics(c.report, trace, &error);
          expect(error.empty(),
                 mode + " emits every named metric with its unit" + error);
        } else {
          for (const std::string& check : tc.trips) {
            const auto it = c.checks.failures.find(check);
            expect(it != c.checks.failures.end() && it->second > 0,
                   "corrupted output trips " + check);
          }
        }
      }
    }
  }
  std::printf("selftest: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload edge-infer|attack|served "
                 "--seed N --seconds S --trace 0|1 [--revision R] "
                 "[--results FILE] | --selftest\n");
    return 2;
  }
  try {
    return a.selftest ? perfbench::selftest() : perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
