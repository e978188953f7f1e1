#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) as a CMake Release build of perfbench/ and
the library sources it compiles (../src). Build output goes to stderr; the
benchmark's stdout is passed through, so its last line is the JSON result.
A traced run also writes its retained spans as a Chrome trace next to the
build. Exits non-zero, printing no result, when the build or the run fails.

An untraced run also starts SETUP_PROCESSES fresh processes that only set
the stack up (--setup-only 1), each on a fresh heap: half before the
measured run and half after it. One set-up varies by about +-25% between
back-to-back processes, so the reported setup_s is the median of their
set-up times and the measured run's own.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("bulk_xdr", "small_lossy", "session_plane")
SETUP_PROCESSES = 8
RUN_DEADLINE_S = 170


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_json(cmd, deadline):
    """Runs cmd; returns (stdout, its last line as JSON), or None on failure."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    result = last_json(p.stdout) if p.returncode == 0 else None
    return (p.stdout, result) if result is not None else None


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    src = os.path.dirname(os.path.abspath(__file__))
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(out_root, "perfbench"))
    os.makedirs(build, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [os.path.join(build, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if a.trace == "1":
            cmd += ["--trace-out",
                    os.path.join(build, "trace-%s-%d.json" % (a.workload, a.seed))]
            return subprocess.run(cmd, timeout=RUN_DEADLINE_S).returncode
        setup_cmd = cmd + ["--setup-only", "1"]
        runs = [run_json(setup_cmd, deadline)
                for _ in range(SETUP_PROCESSES // 2)]
        measured = run_json(cmd, deadline)
        runs += [run_json(setup_cmd, deadline)
                 for _ in range(SETUP_PROCESSES - SETUP_PROCESSES // 2)]
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_DEADLINE_S, file=sys.stderr)
        return 1
    if measured is None or None in runs:
        print("perfbench: a run failed", file=sys.stderr)
        return 1
    out, result = measured
    setups = [r for _, r in runs] + [result]
    result["metrics"]["setup_s"]["value"] = statistics.median(
        r["metrics"]["setup_s"]["value"] for r in setups)
    result["correct"] = all(r["correct"] for r in setups)
    sys.stdout.write(out[:out.rstrip().rfind("\n") + 1])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
