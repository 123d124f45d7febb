#!/usr/bin/env python3
"""Benchmark self-test: exact counters repeat, held-out seeds pass, runs
leave nothing behind.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [--seconds 5] [--seed 1] [--held-out 977] [WORKLOAD ...]

For every workload named (default: all of BENCHMARK.json):

  * two traced runs with the same seed must report bit-identical values for
    every exact counter (the `_kw` allocation counts, lint.diags,
    refine.growth, the sim.* counts, faults.robustness and the serve
    cache hit/miss counts of the warm-up window);
  * an untraced run on the held-out seed must report 0 failed ops.

Afterwards perfbench/out/ may hold only trace files and the steadiness
log: no sockets, temporary directories or daemon logs, and no
.mrefine-cache anywhere in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

EXACT_PREFIXES = ("sim.runs", "sim.deltas", "sim.steps", "sim.rounds", "sim.wakes")
EXACT_NAMES = {
    "lint.diags",
    "refine.growth",
    "faults.robustness",
    "serve.elab_hits",
    "serve.elab_misses",
    "serve.eval_hits",
    "serve.eval_misses",
}


def exact(name):
    return name.endswith("_kw") or name in EXACT_NAMES or name in EXACT_PREFIXES


def run(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}")
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=977)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bad = []
    for name in args.workloads or [w["name"] for w in spec["workloads"]]:
        a = run(name, args.seed, args.seconds, 1)
        b = run(name, args.seed, args.seconds, 1)
        counters = sorted(m for m in a["metrics"] if exact(m))
        drift = [m for m in counters if a["metrics"][m] != b["metrics"][m]]
        nonzero = [m for m in counters if a["metrics"][m]["value"] != 0]
        print(f"{name}: {len(nonzero)} exact counters exercised, "
              f"{len(drift)} drifted {drift if drift else ''}")
        bad += [f"{name}: {m} drifted" for m in drift]
        for res, label in ((a, "traced"), (b, "traced")):
            if res["failed"]:
                bad.append(f"{name}: {res['failed']} failed ops in a {label} run")
        h = run(name, args.held_out, args.seconds, 0)
        print(f"{name}: held-out seed {args.held_out}: "
              f"{h['failed']}/{h['attempted']} failed, correct={h['correct']}")
        if h["failed"] or not h["correct"]:
            bad.append(f"{name}: held-out seed failed")
    out = os.path.join("perfbench", "out")
    stray = [f for f in os.listdir(out)
             if not (f.endswith(".trace.json") or f == "steady.jsonl")]
    if stray:
        bad.append(f"stray files in {out}: {stray}")
    for root, dirs, _ in os.walk("."):
        if ".mrefine-cache" in dirs:
            bad.append(f"stray cache: {os.path.join(root, '.mrefine-cache')}")
        dirs[:] = [d for d in dirs if d not in ("_build", ".git")]
    for b in bad:
        print("FAIL", b)
    print("selftest", "failed" if bad else "passed")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
