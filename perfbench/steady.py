#!/usr/bin/env python3
"""Steadiness check: repeated fresh-process runs of every workload.

    python3 perfbench/steady.py [--first-seed 1]

Run from the repository root. It makes RUNS runs of every workload; run i
uses seed first_seed + i and BENCHMARK.json's run_seconds. Tuning used
seeds 1-40; --first-seed 90210 checks a claim on seeds never tuned on. The
workload order alternates between runs (forward, then reversed) and GAP_S
seconds of idle time follow every run, so the repeats spread over time. For every end-to-end metric of BENCHMARK.json
it prints the median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and the bound; a spread should stay below a third of its
bound, and WIDE marks one that does not. It also prints each workload's
failed share, which must not vary. Exits 1 if any run fails or is incorrect.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

RUNS = 10
GAP_S = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {n: [] for n in names}
    ok = True
    for i in range(RUNS):
        order = names if i % 2 == 0 else list(reversed(names))
        for n in order:
            r = run_once(n, a.first_seed + i, bench["run_seconds"])
            if r is None or not r["correct"]:
                print("run %d %s: FAILED %s" % (i, n, r), flush=True)
                ok = False
            else:
                results[n].append(r)
                print("run %d %s seed %d: %s" % (
                    i, n, a.first_seed + i,
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in r["metrics"].items())), flush=True)
            time.sleep(GAP_S)

    print()
    for n in names:
        rs = results[n]
        if len(rs) < 4:
            print("%s: only %d good runs" % (n, len(rs)))
            ok = False
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print("%s: %d runs, failed share %s" % (n, len(rs), shares))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in rs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            target = m["bound"] / 3
            print("  %-26s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f "
                  "bound %.3f (target < %.4f) %s" % (
                      m["name"], q2, q1, q3, spread, m["bound"], target,
                      "ok" if spread < target else "WIDE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
