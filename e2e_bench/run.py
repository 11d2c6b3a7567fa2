#!/usr/bin/env python3
"""Build and run the vSensor end-to-end benchmark.

Run from the root of a source checkout:

    python3 e2e_bench/run.py --workload cg_bad_node --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --self-test

The first call configures and builds the library and the benchmark from
source with CMake (RelWithDebInfo, the library's default build type) under $CARGO_TARGET_DIR (default .bench_build);
later calls rebuild incrementally. Journals, session files and span dumps go
to .bench_work. The benchmark's last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Any failure to build or run exits non-zero without printing
a result.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e_bench")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "e2e_bench")
SELFTEST = os.path.join(BUILD, "e2e_bench_selftest")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to the benchmark")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def self_test():
    """The benchmark's own tests: order statistics and oracles (C++), the
    metric catalog against BENCHMARK.json, and the C++ quartiles against
    Python's statistics module."""
    ok = subprocess.run([SELFTEST], stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    if not ok:
        log("e2e_bench_selftest failed")

    listing = subprocess.run([BINARY, "--list-metrics"], capture_output=True, text=True, check=True).stdout
    fields = {line.split(":", 1)[0]: line.split(":", 1)[1].split() for line in listing.splitlines()}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    checks = {
        "workloads": ([w["name"] for w in spec["workloads"]], fields["workloads"]),
        "end_to_end": ([f'{m["name"]}:{m["unit"]}' for m in spec["end_to_end"]], fields["end_to_end"]),
        "per_layer": ([f'{m["name"]}:{m["unit"]}' for m in spec["per_layer"]], fields["per_layer"]),
    }
    for key, (declared, built) in checks.items():
        if declared != built:
            log(f"BENCHMARK.json {key} {declared} != benchmark catalog {built}")
            ok = False

    rng = random.Random(7)
    for n in (2, 3, 4, 5, 10, 11, 37):
        values = [rng.uniform(0.1, 5.0) for _ in range(n)]
        got = subprocess.run([SELFTEST, "--quartiles"] + [repr(v) for v in values],
                             capture_output=True, text=True, check=True).stdout.split()
        want = statistics.quantiles(values, n=4) + [statistics.median(values)]
        if any(abs(float(g) - w) > 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want)) or len(got) != 4:
            log(f"quartiles of {n} values: C++ {got} != Python {want}")
            ok = False
    print("self-test passed" if ok else "self-test FAILED", file=sys.stderr)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        return 1
    if args.self_test:
        return 0 if self_test() else 1

    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--work-dir", WORK]
    # A SIGTERM to this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    lines = stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("benchmark printed no result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
