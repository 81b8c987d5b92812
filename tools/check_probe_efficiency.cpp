// check_probe_efficiency — CI gate over the probe-compression sweep JSON.
//
// bench_table2_evasion_cost's second section runs the black-box int8-fd
// attack under a grid of (probing variant x probe budget) and records,
// per point, how many int8 rows went through the deployed artifact
// (telemetry quant.forward.rows) and how many eval images the attack
// fooled. This tool checks the claim that probe compression buys query
// efficiency, not just a different estimator:
//
//   reference = the "dense" variant at its LARGEST probe budget
//   gate      = some compressed (non-dense) point must reach at least
//               the reference's adapted_fooled count while spending at
//               most --ratio (default 0.5) of its deployed queries.
//
// Everything is compared within one run, so machine speed, ISA tier,
// and eval-set composition cancel — the gate is about the shape of the
// queries-vs-evasion trade-off, never absolute numbers.
//
// Smoke caveat: at CI smoke strength (2 PGD steps, tiny budgets) the
// attack fools nothing, so the reference's adapted_fooled is 0 and the
// evasion side of the gate is vacuous. The query side still bites —
// compressed variants must demonstrate the claimed query reduction —
// and the tool prints a loud note that evasion parity was not
// exercised rather than pretending it was.
//
// Input format: line-delimited flat JSON as the bench writes it.
//
// Usage:
//   check_probe_efficiency --current PATH [--ratio FRACTION]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/flat_json.h"

namespace {

using diva::flat_json::extract_number;
using diva::flat_json::extract_string;

struct Point {
  std::string variant;
  std::string label;
  int samples = 0;
  double fooled = 0.0;
  double queries = 0.0;
};

std::vector<Point> load_sweep_points(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "check_probe_efficiency: cannot open %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::vector<Point> points;
  std::string line;
  while (std::getline(in, line)) {
    std::string bench;
    if (!extract_string(line, "bench", &bench) ||
        bench != "table2_probe_compression") {
      continue;
    }
    Point p;
    double samples = 0;
    if (!extract_string(line, "variant", &p.variant) ||
        !extract_string(line, "label", &p.label) ||
        !extract_number(line, "samples", &samples) ||
        !extract_number(line, "adapted_fooled", &p.fooled) ||
        !extract_number(line, "deployed_queries", &p.queries)) {
      std::fprintf(stderr,
                   "check_probe_efficiency: %s: sweep row missing gated "
                   "fields: %s\n",
                   path.c_str(), line.c_str());
      std::exit(2);
    }
    p.samples = static_cast<int>(samples);
    points.push_back(p);
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  std::string current_path;
  double ratio = 0.5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--current" && i + 1 < argc) {
      current_path = argv[++i];
    } else if (arg == "--ratio" && i + 1 < argc) {
      ratio = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s --current PATH [--ratio FRACTION]\n",
                   argv[0]);
      return 2;
    }
  }
  if (current_path.empty() || ratio <= 0.0 || ratio >= 1.0) {
    std::fprintf(stderr,
                 "check_probe_efficiency: --current and a ratio in (0,1) "
                 "are required\n");
    return 2;
  }

  const auto points = load_sweep_points(current_path);

  // Reference: dense at the largest budget present in the run. The
  // sweep always emits it; its absence means the bench changed shape
  // under the gate, which must fail loudly rather than pass silently.
  const Point* ref = nullptr;
  for (const auto& p : points) {
    if (p.variant == "dense" && (!ref || p.samples > ref->samples)) ref = &p;
  }
  if (!ref) {
    std::fprintf(stderr,
                 "check_probe_efficiency: no dense reference row in %s — "
                 "refusing to pass an empty gate\n",
                 current_path.c_str());
    return 2;
  }
  if (ref->queries <= 0.0) {
    std::fprintf(stderr,
                 "check_probe_efficiency: dense reference recorded zero "
                 "deployed queries — telemetry accounting is broken\n");
    return 2;
  }

  const double budget = ratio * ref->queries;
  std::printf("reference: dense @ %d samples — %.0f fooled, %.0f queries\n",
              ref->samples, ref->fooled, ref->queries);
  std::printf("gate: fooled >= %.0f at <= %.0f queries (%.0f%% of dense)\n\n",
              ref->fooled, budget, ratio * 100.0);
  std::printf("%-28s %8s %8s %10s  %s\n", "point", "samples", "fooled",
              "queries", "verdict");

  int passing = 0;
  for (const auto& p : points) {
    if (p.variant == "dense") continue;
    const bool ok = p.fooled >= ref->fooled && p.queries <= budget;
    passing += ok ? 1 : 0;
    char name[64];
    std::snprintf(name, sizeof(name), "%s @ %d", p.variant.c_str(),
                  p.samples);
    std::printf("%-28s %8d %8.0f %10.0f  %s\n", name, p.samples, p.fooled,
                p.queries, ok ? "PASS" : "-");
  }
  if (points.size() <= 1) {
    std::fprintf(stderr,
                 "check_probe_efficiency: no compressed sweep points — "
                 "refusing to pass an empty gate\n");
    return 2;
  }
  if (ref->fooled <= 0.0) {
    std::printf(
        "\nnote: dense reference fooled 0 images (smoke-strength attack) — "
        "evasion parity was NOT exercised; this run gates the query "
        "reduction only.\n");
  }
  if (passing == 0) {
    std::fprintf(stderr,
                 "\nFAIL: no compressed variant matched dense evasion at "
                 "<= %.0f%% of its deployed queries\n",
                 ratio * 100.0);
    return 1;
  }
  std::printf(
      "\nok: %d compressed point(s) match dense evasion at <= %.0f%% of "
      "its deployed-model queries\n",
      passing, ratio * 100.0);
  return 0;
}
