#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload short|long|serve --seed N \
        --seconds S --trace 0|1

Configures perfbench/ (which compiles the repository's src/ libraries)
into .bench_build/ with CMake, builds the perfbench binary, and runs it.
The seeded full-scale model is generated once into
.bench_build/perfbench-model/ and reused by later runs. The full report
of each run (environment stamp plus median, quartiles and sample count of
every metric) is written to .bench_build/perfbench-reports/; compare two
of them with perfbench/compare.py. The last line of standard output is
the run's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
MODEL = os.path.join(BUILD, "perfbench-model", "distilbert-full.gobm")
REPORTS = os.path.join(BUILD, "perfbench-reports")
RUN_TIMEOUT_S = 170
# Knobs the program reads from the environment. The benchmark pins their
# defaults so every run carries the same stamp.
SCRUBBED_ENV = ("GOBO_THREADS", "GOBO_KERNEL", "GOBO_DECODE_CACHE_KB")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ not found next to perfbench/; run from a full checkout")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs]):
        # Build chatter goes to stderr; stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["short", "long", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")

    binary = build()
    os.makedirs(REPORTS, exist_ok=True)
    report = os.path.join(
        REPORTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--model", MODEL, "--report", report]
    sys.stdout.flush()
    # A SIGTERM to this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    child = subprocess.Popen(cmd, env=env)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
