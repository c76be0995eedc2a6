#!/usr/bin/env python3
"""Benchmark of the chip and serving paths.

Run from the root of the repository:

    python3 perfbench/run.py --workload chip_golden --seed 1 --seconds 25 --trace 0

It builds the program and the workload binary from source (CMake, in
.bench_build/), runs the workload and checks its outputs, prints every metric
with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench_workload")
SELFTEST = os.path.join(BUILD_DIR, "perfbench_selftest")

# Set-up is timed this many times per untraced run (the measured process
# plus extra processes that stop at their first result); the median is
# reported.
SETUP_RUNS = 5
# A run must end within this many seconds, build excluded.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0

WORKLOADS = ("chip_golden", "chip_learned", "serve")

# Metrics every workload reports in its result line, by trace mode. What a
# workload measures beyond them (its own layers) is printed in the table.
END_TO_END = ["setup_s", "peak_rss_mb", "throughput"]
PER_LAYER = [
    "chip.query_us", "math.fft_plan_hits", "math.fft_plan_misses", "util.allocs_per_op",
    "util.cpu_busy_frac", "trace.overhead", "trace.layer_accounting",
]
UNITS = {"throughput": "1/s"}

# The result-line metrics a workload reports under its own names: its
# throughput counts its own unit of work (um2 of chip, contacts, clips).
ALIASES = {
    "chip_golden": {"throughput": "golden_um2_per_s",
                    "trace.overhead": "trace.overhead.golden_um2_per_s"},
    "chip_learned": {"throughput": "learned_contacts_per_s",
                     "trace.overhead": "trace.overhead.learned_contacts_per_s"},
    "serve": {"throughput": "serve_saturated_rps",
              "trace.overhead": "trace.overhead.serve_saturated_rps"},
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def program_env():
    """The environment the program runs in: no LITHOGAN_* override, so it
    runs at its defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("LITHOGAN_")}


def build():
    """Configures the repository with the benchmark's build file attached and
    builds the two benchmark targets (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources next to perfbench/ (expected CMakeLists.txt and src/ in %s)"
             % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    deadline = time.monotonic() + BUILD_BUDGET_S
    with open(os.path.join(BUILD_DIR, "..", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", BUILD_DIR,
                          "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(BENCH_DIR, "perfbench.cmake")])
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_workload",
                      "perfbench_selftest", "-j", jobs])
        for cmd in steps:
            try:
                out = subprocess.run(cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True,
                                     timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if out.returncode != 0:
                sys.stderr.write(out.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_binary(args, deadline):
    """Runs the workload binary; returns its parsed result line."""
    try:
        out = subprocess.run([BINARY] + args, cwd=ROOT, env=program_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("workload timed out: " + " ".join(args))
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("workload exited with %d: %s" % (out.returncode, " ".join(args)))
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the files that make up the build, so results of different
    source trees are told apart even where there is no git metadata."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("src", "perfbench")]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            files += [os.path.join(d, n) for n in sorted(names) if not n.endswith(".pyc")]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def final_line(result, expected, aliases=None):
    """The benchmark's result line from the binary's result: exactly the keys
    correct, attempted, failed and metrics, each metric as value and unit.
    A result-line metric may come from a metric the workload names
    differently (`aliases`: result name -> workload name). A metric the
    workload must report but did not makes the run incorrect."""
    aliases = aliases or {}
    by_name = {m["name"]: m for m in result["metrics"]}
    metrics = {}
    for name in expected:
        m = by_name.get(aliases.get(name, name))
        if m is not None and m["value"] is not None:
            metrics[name] = {"value": m["value"], "unit": UNITS.get(name, m["unit"])}
    missing = [n for n in expected if n not in metrics]
    return {
        "correct": bool(result["correct"]) and not missing,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }, missing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    if args.seed < 0:
        fail("--seed must be a whole number >= 0")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            r = run_binary(base + ["--seconds", "1", "--trace", "0", "--setup-only"], deadline)
            setups += [m["value"] for m in r["metrics"] if m["name"] == "setup_s"]
    result = run_binary(base + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
                        deadline)
    for m in result["metrics"]:
        if m["name"] == "setup_s":
            setups.append(m["value"])
            m["value"] = statistics.median(setups)
            m["n"] = len(setups)
            m["note"] = "median over separate processes"

    expected = PER_LAYER if args.trace else END_TO_END
    line, missing = final_line(result, expected, ALIASES[args.workload])

    print("perfbench %s  seed %d  %g s  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    prov = dict(result.get("provenance", {}))
    prov["git_revision"] = git_revision()
    prov["source_sha256"] = source_digest()
    for k, v in prov.items():
        print("  %-16s %s" % (k, v))
    print("  %-38s %14s  %-10s %6s  %s" % ("metric", "value", "unit", "n", "note"))
    for m in result["metrics"]:
        value = "-" if m["value"] is None else "%.6g" % m["value"]
        print("  %-38s %14s  %-10s %6d  %s" % (m["name"], value, m["unit"], m["n"], m["note"]))
    print("  operations attempted %d, failed %d" % (line["attempted"], line["failed"]))
    for c in result["checks"]:
        print("  check " + c)
    for n in missing:
        print("  check FAIL metric %s was not reported" % n)
    if not line["correct"]:
        print("perfbench: outputs failed their checks", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
