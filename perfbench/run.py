#!/usr/bin/env python3
"""The repository benchmark: one workload per run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: refine-scale, faults-hardened, serve-mix (driven by the OCaml
harness perfbench/bench.exe) and cli-cold (driven from here: one op is one
`mrefine` process).  The script builds both executables with dune first.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` they
are its per-layer ones (a layer the workload does not exercise reads 0),
and a Chrome trace of the run's spans is written under perfbench/out/.
Per-class latency tables and set-up details go to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
MREFINE = os.path.join("_build", "default", "bin", "mrefine.exe")
OUT = os.path.join("perfbench", "out")
WORKLOADS = ("refine-scale", "faults-hardened", "serve-mix", "cli-cold")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(p)]
    if missing:
        die(f"not at the root of a source checkout (missing {', '.join(missing)})")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe",
         "./perfbench/probe/spawn_probe.exe", "./bin/mrefine.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=850,
    )
    if r.returncode != 0:
        die("build failed")


def quantile(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def metric(value, unit):
    return {"value": value, "unit": unit}


# --- cli-cold ---------------------------------------------------------------


# Host-speed probe (see perfbench/probe.ml).  For cli-cold it is a whole
# process: perfbench/probe/spawn_probe.exe runs the probe kernel once and
# exits.  It links no code of the program under test.  One probe spawn is
# timed before every op, and times are reported scaled to a host on which
# the probe spawn takes PROBE_NOMINAL_MS.
PROBE = os.path.join("_build", "default", "perfbench", "probe", "spawn_probe.exe")
PROBE_NOMINAL_MS = 6.5


def probe_sample(samples):
    ms, _, code, _ = spawn([], ".", exe=PROBE)
    if code != 0:
        die("host probe failed")
    samples.append(ms)


def spawn(args, cwd, exe=MREFINE):
    """Run one process; returns (wall ms, stdout, exit code, maxrss KiB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [os.path.abspath(exe)] + args,
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    ms = (time.perf_counter() - t0) * 1e3
    p.returncode = os.waitstatus_to_exitcode(status)
    return ms, out, p.returncode, usage.ru_maxrss


def cli_setup(seed, work):
    """Write inputs and in-process references, then warm up one cycle."""
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    r = subprocess.run(
        [BENCH, "cli-refs", "--seed", str(seed), "--dir", work],
        stdout=sys.stderr,
        timeout=RUN_TIMEOUT_S,
    )
    if r.returncode != 0:
        die("cli-cold reference generation failed")
    with open(os.path.join(work, "ops.json")) as f:
        ops = json.load(f)
    for op in ops:
        with open(os.path.join(work, op["expected"]), "rb") as f:
            op["expected_bytes"] = f.read()
    for op in ops:
        _, out, code, _ = spawn(op["args"], work)
        if code != 0 or out != op["expected_bytes"]:
            die(f"cli-cold warm-up: mrefine {' '.join(op['args'])} is wrong")
    return ops


def cli_cold(seed, seconds, trace):
    work = os.path.join(OUT, f"cli-{os.getpid()}")
    setups = []
    probes = []
    for _ in range(3):
        probe_sample(probes)
        t0 = time.perf_counter()
        ops = cli_setup(seed, work)
        setups.append(time.perf_counter() - t0)
    samples = []  # (index, class, ms, ok, traced, overhead ms)
    spans = []
    peak_kib = 0
    failed = 0
    t_start = time.perf_counter()
    probing = 0.0
    i = 0
    while time.perf_counter() - t_start < seconds or i < 100:
        p0 = time.perf_counter()
        probe_sample(probes)
        probing += time.perf_counter() - p0
        op = ops[i % len(ops)]
        traced = trace and (i // len(ops)) % 2 == 0
        t0 = time.perf_counter()
        ms, out, code, kib = spawn(op["args"], work)
        ok = code == 0 and out == op["expected_bytes"]
        if not ok:
            failed += 1
            print(f"cli-cold: op {i} mrefine {' '.join(op['args'])} failed", file=sys.stderr)
        peak_kib = max(peak_kib, kib)
        if traced:
            spans.append((op["class"], i, t0, t0 + ms / 1e3))
        samples.append((i, op["class"], ms, ok, traced, ms - op["inproc_ms"]))
        i += 1
    busy_s = time.perf_counter() - t_start - probing
    shutil.rmtree(work)
    f = PROBE_NOMINAL_MS / statistics.median(probes)
    print(f"host probe factor {f:.4f}", file=sys.stderr)
    good = [s for s in samples if s[3]]
    lat = [s[2] for s in good]
    if not trace:
        print_classes(good, lat)
        metrics = {
            "setup_s": metric(statistics.median(setups) * f, "s"),
            "ops_per_s": metric(i / busy_s / f, "1/s"),
            "p50_ms": metric(quantile(lat, 0.5) * f, "ms"),
            "p90_ms": metric(quantile(lat, 0.9) * f, "ms"),
            "peak_rss_mb": metric(peak_kib / 1024, "MiB"),
        }
    else:
        metrics = {}
        for cls in ("refine", "lint", "cosim", "simulate", "faults"):
            metrics[f"cli.{cls}_ms"] = metric(
                quantile([s[2] for s in good if s[1] == cls], 0.5), "ms"
            )
        metrics["cli.overhead_ms"] = metric(quantile([s[5] for s in good], 0.5), "ms")
        later = [s for s in good if s[0] >= len(ops)]
        on = [s[2] for s in later if s[4]]
        off = [s[2] for s in later if not s[4]]
        metrics["trace.overhead_pct"] = metric(
            100 * (quantile(on, 0.5) / quantile(off, 0.5) - 1) if on and off else 0.0, "%"
        )
        write_trace(spans, os.path.join(OUT, f"cli-cold-{seed}.trace.json"))
    return {"correct": failed == 0, "attempted": i, "failed": failed, "metrics": metrics}


def print_classes(good, lat):
    print(f"{'class':16s} {'ops':>6s} {'p50_ms':>9s} {'p90_ms':>9s}", file=sys.stderr)
    for cls in sorted({s[1] for s in good}):
        xs = [s[2] for s in good if s[1] == cls]
        print(
            f"{cls:16s} {len(xs):6d} {quantile(xs, 0.5):9.3f} {quantile(xs, 0.9):9.3f}",
            file=sys.stderr,
        )
    print(
        f"{'all':16s} {len(lat):6d} {quantile(lat, 0.5):9.3f} {quantile(lat, 0.9):9.3f}",
        file=sys.stderr,
    )


def write_trace(spans, path):
    events = [
        {
            "name": f"cli.{cls}",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": t0 * 1e6,
            "dur": (t1 - t0) * 1e6,
            "args": {"op": op},
        }
        for cls, op, t0, t1 in spans
    ]
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# --- in-process and served workloads ---------------------------------------


def harness(workload, seed, seconds, trace):
    cmd = [
        BENCH,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--mrefine", MREFINE,
    ]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, f"{workload}-{seed}.trace.json")]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = r.stdout.decode().strip().splitlines()
    if r.returncode != 0 or not lines:
        die(f"{workload}: harness exited with {r.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload == "cli-cold":
        result = cli_cold(args.seed, args.seconds, args.trace)
    else:
        result = harness(args.workload, args.seed, args.seconds, args.trace)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and not args.trace:
            die(f"{args.workload}: end-to-end metric {m['name']} missing")
        if got is not None and got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']} is not {m['unit']}")
        metrics[m["name"]] = got or metric(0.0, m["unit"])
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
