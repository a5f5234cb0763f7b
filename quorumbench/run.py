#!/usr/bin/env python3
"""Builds quorumbench from this checkout's sources and runs one workload.

    python3 quorumbench/run.py --workload bsr_read_heavy --seed 1 \
        --seconds 30 --trace 0
    python3 quorumbench/run.py --selftest

Build output goes to .bench_build/quorumbench under the checkout root, and
every run first passes the benchmark's self-tests. Human-readable lines go
to stdout; the last stdout line is the result JSON (correct, attempted,
failed, metrics). With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. README.md explains
each one.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "quorumbench")
BENCH = os.path.join(BUILD, "quorumbench")
SELFTEST = os.path.join(BUILD, "quorumbench_selftest")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def check_call(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log("quorumbench: command failed (%d): %s" % (result.returncode, " ".join(cmd)))
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "registers", "client.h")):
        log("quorumbench: the library sources (src/) are not in this checkout")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    check_call(["cmake", "--build", BUILD, "-j", jobs])
    check_call([SELFTEST])


def source_id():
    """The git commit, or a digest of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "quorumbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build()
    if args.selftest:
        return 0

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("quorumbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        log("quorumbench: no output (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        log("quorumbench: the last line is not a result (exit %d)" % proc.returncode)
        return 1
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        log("quorumbench: metrics missing from the result: %s" % sorted(missing))
        return 1
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
