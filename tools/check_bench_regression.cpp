// check_bench_regression — CI gate over the serve-throughput smoke JSON.
//
// Compares a fresh bench_serve_throughput smoke run against the pinned
// in-repo baseline (bench/baseline/serve_smoke_baseline.json) and exits
// non-zero on a regression.
//
// What is compared: for every "served" sweep point (keyed by workers x
// clients x window_us), the *same-run* ratio
//
//     served images_per_sec / engine_baseline images_per_sec
//
// not the absolute img/s. Every bench run records its own single-process
// AttackEngine baseline at matching thread width in the same JSON, so
// the ratio cancels machine speed, CPU generation, and ISA tier — the
// things a shared CI runner does not hold constant. A point regresses
// when its ratio drops more than --threshold (default 25%) below the
// pinned ratio. Absolute numbers are printed for context but never
// gated.
//
// Input format: line-delimited JSON records as bench_serve_throughput
// writes them. Fields are extracted with the flat scanner in
// runtime/flat_json.h (no nesting inside the gated fields).
//
// Usage:
//   check_bench_regression --current PATH --baseline PATH
//                          [--threshold FRACTION]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "runtime/flat_json.h"

namespace {

using diva::flat_json::extract_number;
using diva::flat_json::extract_string;

struct Point {
  double ratio = 0.0;       // served / same-run engine baseline
  double images_per_sec = 0.0;  // context only, never gated
};

/// "served" rows keyed by `workers=W clients=C window=U`.
std::map<std::string, Point> load_served_points(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "check_bench_regression: cannot open %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::map<std::string, Point> points;
  std::string line;
  while (std::getline(in, line)) {
    std::string mode;
    if (!extract_string(line, "mode", &mode) || mode != "served") continue;
    double workers = 0, clients = 0, window = 0, img_s = 0, base = 0;
    if (!extract_number(line, "workers", &workers) ||
        !extract_number(line, "clients", &clients) ||
        !extract_number(line, "window_us", &window) ||
        !extract_number(line, "images_per_sec", &img_s) ||
        !extract_number(line, "engine_baseline_images_per_sec", &base)) {
      std::fprintf(stderr,
                   "check_bench_regression: %s: served row missing gated "
                   "fields: %s\n",
                   path.c_str(), line.c_str());
      std::exit(2);
    }
    if (base <= 0.0) {
      std::fprintf(stderr,
                   "check_bench_regression: %s: non-positive engine "
                   "baseline\n",
                   path.c_str());
      std::exit(2);
    }
    char key[64];
    std::snprintf(key, sizeof(key), "workers=%d clients=%d window=%d",
                  static_cast<int>(workers), static_cast<int>(clients),
                  static_cast<int>(window));
    points[key] = Point{img_s / base, img_s};
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  std::string current_path, baseline_path;
  double threshold = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--current" && i + 1 < argc) {
      current_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--threshold" && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s --current PATH --baseline PATH "
                   "[--threshold FRACTION]\n",
                   argv[0]);
      return 2;
    }
  }
  if (current_path.empty() || baseline_path.empty() || threshold <= 0.0 ||
      threshold >= 1.0) {
    std::fprintf(stderr,
                 "check_bench_regression: --current, --baseline, and a "
                 "threshold in (0,1) are required\n");
    return 2;
  }

  const auto current = load_served_points(current_path);
  const auto baseline = load_served_points(baseline_path);

  int compared = 0;
  std::vector<std::string> regressions;
  std::printf("%-36s %10s %10s %8s\n", "sweep point", "pinned", "current",
              "delta");
  for (const auto& [key, pinned] : baseline) {
    const auto it = current.find(key);
    if (it == current.end()) {
      // A pinned point the current run never produced is itself a
      // failure: the sweep shrank, so the gate would silently weaken.
      regressions.push_back(key + ": missing from current run");
      continue;
    }
    ++compared;
    const double delta = it->second.ratio / pinned.ratio - 1.0;
    std::printf("%-36s %10.3f %10.3f %+7.1f%%%s\n", key.c_str(), pinned.ratio,
                it->second.ratio, delta * 100.0,
                delta < -threshold ? "  << REGRESSION" : "");
    if (delta < -threshold) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "%s: served/engine ratio %.3f vs pinned %.3f (%.1f%%, "
                    "threshold -%.0f%%)",
                    key.c_str(), it->second.ratio, pinned.ratio,
                    delta * 100.0, threshold * 100.0);
      regressions.push_back(msg);
    }
  }
  if (compared == 0) {
    std::fprintf(stderr,
                 "check_bench_regression: no comparable sweep points — "
                 "refusing to pass an empty gate\n");
    return 2;
  }
  if (!regressions.empty()) {
    std::fprintf(stderr, "\n%zu regression(s):\n", regressions.size());
    for (const auto& r : regressions) {
      std::fprintf(stderr, "  %s\n", r.c_str());
    }
    return 1;
  }
  std::printf("\nok: %d sweep point(s) within %.0f%% of the pinned "
              "served/engine ratios\n",
              compared, threshold * 100.0);
  return 0;
}
