#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds, report each
end-to-end metric's median and interquartile range.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

For every workload (default: all of BENCHMARK.json), runs
`perfbench/run.py --trace 0` once per seed, one run at a time, and prints
per metric the median, the quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median and that spread as a share of the metric's
bound.  Raw results are appended to perfbench/out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    log = open(os.path.join("perfbench", "out", "steady.jsonl"), "a")
    ok = True
    for name in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
            if r.returncode != 0:
                print(f"{name} seed {seed}: exit {r.returncode}")
                ok = False
                continue
            res = json.loads(r.stdout.decode().strip().splitlines()[-1])
            log.write(json.dumps({"workload": name, "seed": seed, **res}) + "\n")
            log.flush()
            if not res["correct"] or res["failed"]:
                print(f"{name} seed {seed}: {res['failed']}/{res['attempted']} failed")
                ok = False
            results.append(res)
        print(f"{name}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:4s} "
                  f"Q1 {q1:10.4f} Q3 {q3:10.4f}  spread {100 * spread:5.1f}% "
                  f"= {spread / m['bound']:4.2f} of bound {m['bound']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
