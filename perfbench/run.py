#!/usr/bin/env python3
"""Builds and runs the SegHDC repository benchmark.

    python3 perfbench/run.py --workload paper_table1 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The first run configures and
builds perfbench/CMakeLists.txt (the library plus the `perfbench`
binary) into .bench_build/; later runs only rebuild what changed. Build
output goes to stderr, so the binary's last stdout line stays the result
JSON. Exits 2 without a result when the library sources are missing or
the build fails, and with the binary's exit code otherwise (1 when an
output check failed).

--smoke runs the binary's self-test, then every workload at tiny scale
with tracing off and on, and checks that each run is correct and emits
exactly the metric names BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_table1", "serve_table2")
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "core", "session.hpp")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"library source {required} not found next to perfbench/")
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + generator,
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")


def source_id():
    """The git commit when the checkout is a git repository, else a
    digest of the sources."""
    try:
        if os.path.isdir(os.path.join(ROOT, ".git")):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def run_binary(arguments, capture=False):
    try:
        return subprocess.run([BINARY] + arguments, cwd=ROOT, text=True,
                              capture_output=capture, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    if run_binary(["--selftest"]).returncode != 0:
        problems.append("selftest failed")
    ident = source_id()
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            done = run_binary(["--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", trace, "--tiny",
                               "--source-id", ident], capture=True)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line (exit {done.returncode})")
                continue
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(expected[trace] - names)}, "
                                f"extra {sorted(names - expected[trace])}")
            if not result["correct"] or done.returncode != 0:
                problems.append(f"{label}: incorrect (exit {done.returncode})")
            print(f"smoke {label}: {len(names)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    build()
    if args.smoke:
        return smoke()
    done = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", args.trace,
                       "--source-id", source_id()])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
