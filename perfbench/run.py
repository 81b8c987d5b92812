#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edge-infer|attack|served \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench (CMake, Release). Build output
goes to stderr; stdout carries the benchmark's own report, whose last
line is the result object. Each run also writes its full record (machine
context and every metric) to .bench_build/results/.
"""

import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        fail("library sources or BENCHMARK.json not found; nothing to build")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        # A build tree configured from another checkout cannot be reused.
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={ROOT / 'perfbench'}"
        if home not in cache.read_text(errors="replace"):
            subprocess.run(["rm", "-rf", str(BUILD)], check=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", "4"],
    ]
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def revision():
    """The git revision, or a digest of the sources when not in git."""
    if (ROOT / ".git").exists():
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def run(cmd):
    """Runs the benchmark in its own process group; stdout passes through."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark timed out")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        ap.error("--workload is required")

    binary = build()
    if a.selftest:
        sys.exit(run([str(binary), "--selftest"]))

    results = ROOT / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    sys.stdout.flush()
    sys.exit(run([str(binary), "--workload", a.workload,
                  "--seed", str(a.seed), "--seconds", str(a.seconds),
                  "--trace", str(a.trace), "--revision", revision(),
                  "--results", str(record)]))


if __name__ == "__main__":
    main()
