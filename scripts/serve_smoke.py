#!/usr/bin/env python3
"""Smoke test for the mrefine serve daemon.

Drives a live daemon over its Unix-domain socket with ~200 concurrent
mixed jobs (refine / lint / explore / faults) from several client
threads, SIGKILLs the daemon mid-load, restarts it on the same journal,
and then requires:

  - every job converges to a terminal state after the restart
    (idempotent resubmission under client-chosen ids);
  - every refine and lint result is bit-identical to the cold CLI run
    of the same parameters;
  - every explore job completes at coverage 1.0.

Then it repeats hardened fault campaigns of several classes and base
seeds on one warm daemon and requires every served output to be
byte-identical to the cold `mrefine faults` run (see serve_faults),
it requires structured errors for two specs that once crashed the
daemon's jobs (see serve_crash_specs), and it gates the daemon's
speed: warm served refine requests must run at least 5x as many
requests per second as cold CLI runs of the same refine (see
serve_speed).  Last, it drives the real `mrefine client`
binary over the Unix socket and over token-guarded TCP (see
serve_client).

Usage: serve_smoke.py [path/to/mrefine.exe]
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

MR = sys.argv[1] if len(sys.argv) > 1 else "_build/default/bin/mrefine.exe"
SPECS = ["examples/specs/fig1.sc", "examples/specs/fig2.sc"]

WORKDIR = tempfile.mkdtemp(prefix="serve_smoke_")
SOCK = os.path.join(WORKDIR, "daemon.sock")
JOURNAL = os.path.join(WORKDIR, "serve.journal")


def start_daemon(journal=True, extra=()):
    args = [MR, "serve", "--socket", SOCK, *extra]
    if journal:
        args += ["--journal", JOURNAL]
    proc = subprocess.Popen(args, stderr=subprocess.DEVNULL)
    deadline = time.time() + 20.0
    while time.time() < deadline:
        if os.path.exists(SOCK):
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(SOCK)
                s.close()
                return proc
            except OSError:
                pass
        if proc.poll() is not None:
            raise SystemExit(f"daemon exited early with {proc.returncode}")
        time.sleep(0.05)
    raise SystemExit("daemon did not come up within 20s")


class Client:
    def __init__(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(SOCK)
        self.f = self.sock.makefile("rwb")

    def rpc(self, obj):
        self.f.write((json.dumps(obj) + "\n").encode())
        self.f.flush()
        line = self.f.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def spec_text(path):
    with open(path) as f:
        return f.read()


def make_jobs():
    """~200 mixed jobs, keyed by deterministic ids for idempotent
    resubmission across the daemon restart."""
    jobs = {}

    def add(kind, job, path):
        jobs[f"smoke-{len(jobs)}"] = (kind, job, path)

    texts = [spec_text(p) for p in SPECS]
    for i in range(160):
        add(
            "refine",
            {
                "kind": "refine",
                "spec": texts[i % 2],
                "model": f"model{1 + i % 4}",
                "parts": 2,
                "seed": 42 + (i // 8) % 2,
            },
            SPECS[i % 2],
        )
    for i in range(30):
        add(
            "lint",
            {
                "kind": "lint",
                "spec": texts[i % 2],
                "file": SPECS[i % 2],
                "json": True,
            },
            SPECS[i % 2],
        )
    for i in range(6):
        add(
            "explore",
            {
                "kind": "explore",
                "spec": texts[i % 2],
                "seeds": [1],
                "models": ["model2"],
                "steps": 200,
                "json": True,
            },
            SPECS[i % 2],
        )
    for i in range(4):
        add(
            "faults",
            {
                "kind": "faults",
                "spec": texts[i % 2],
                "model": "model2",
                "seeds": 2,
                "json": True,
            },
            SPECS[i % 2],
        )
    return jobs


def submit_some(ids, jobs, submitted):
    """Submit a slice of the job mix, polling status along the way.
    Connection errors are expected — the daemon is SIGKILLed mid-load."""
    try:
        c = Client()
        for n, job_id in enumerate(ids):
            _kind, job, _path = jobs[job_id]
            r = c.rpc({"op": "submit", "id": job_id, "job": job})
            if r.get("ok"):
                submitted.append(job_id)
            if n % 5 == 0:
                c.rpc({"op": "status", "id": job_id})
        c.close()
    except (ConnectionError, OSError):
        pass


def cold_refine(spec_path, model, parts, seed):
    return subprocess.run(
        [MR, "refine", "-q", "-m", model[-1], "-p", str(parts),
         "--seed", str(seed), spec_path],
        check=True, capture_output=True,
    ).stdout.decode()


def cold_lint(spec_path):
    r = subprocess.run(
        [MR, "lint", "--json", spec_path], capture_output=True
    )
    return r.stdout.decode()


def serve_faults():
    """Hardened fault campaigns on examples/specs/medical.sc: five classes
    times two base seeds, each job submitted twice to one daemon without
    a journal.  All ten share one design, so the daemon refines it once
    (one refinement-memo miss) and every later job reuses that refined
    program: its warm simulator session, whose checkpoints earlier
    campaigns recorded.  The second round must be ten memo hits, every
    one of its golden runs served from that session's golden memo (under
    the default --jobs 1 the daemon runs jobs in the domain that answers
    stats), and
    every served output byte-identical to the cold CLI's."""
    path = "examples/specs/medical.sc"
    classes = ["bit-flip", "drop-handshake", "delay-handshake",
               "stuck-line", "grant-starvation"]
    cases = [(cls, base) for base in (7, 11) for cls in classes]
    cold = {}
    for cls, base in cases:
        cold[(cls, base)] = subprocess.run(
            [MR, "faults", "--harden", "--faults", cls, "--seeds", "2",
             "--base-seed", str(base), "--json", path],
            check=True, capture_output=True,
        ).stdout.decode()

    proc = start_daemon(journal=False)
    c = Client()
    text = spec_text(path)
    served = 0
    memo = []
    golden = []
    for _ in range(2):
        for cls, base in cases:
            job = {"kind": "faults", "spec": text, "harden": True,
                   "classes": [cls], "seeds": 2, "base_seed": base,
                   "json": True}
            r = c.rpc({"op": "submit", "job": job})
            assert r.get("ok"), f"faults submit failed: {r}"
            r = c.rpc({"op": "result", "id": r["id"], "wait": True})
            assert r.get("state") == "done", f"faults job not done: {r}"
            assert r["output"] == cold[(cls, base)], \
                f"served {cls} campaign (base seed {base}) differs from " \
                "the cold CLI"
            served += 1
        stats = c.rpc({"op": "stats"})
        m = stats["refined_cache"]
        memo.append((m["hits"], m["misses"]))
        g = stats["sim_sessions"]
        golden.append((g["golden_hits"], g["golden_misses"]))
    assert memo == [(9, 1), (19, 1)], \
        f"refinement memo (hits, misses) after each round: {memo}, " \
        "expected [(9, 1), (19, 1)]"
    second = (golden[1][0] - golden[0][0], golden[1][1] - golden[0][1])
    assert second == (10, 0), \
        f"golden memo (hits, misses) of the second round: {second}, " \
        "expected (10, 0)"
    c.rpc({"op": "shutdown"})
    c.close()
    proc.wait(timeout=30)
    print(f"{served} served hardened fault campaigns byte-identical to "
          "the cold CLI; one refinement, then memo hits; the second "
          "round's golden runs all served from the golden memo")


def serve_crash_specs():
    """Three specs that once crashed every mrefine entry point: an integer
    literal past max_int (test/fixtures/big_literal.sc), a fault-free
    run that divides by zero (test/fixtures/div_zero.sc) and an array of
    10^9 elements that the simulator would allocate up front
    (test/fixtures/big_array.sc).  Served as refine and faults jobs, each
    must end in a structured error that names its cause, never a
    `job raised ...` exception, and the daemon must still answer ping
    afterwards."""
    cases = [
        ({"kind": "refine", "parts": 2,
          "spec": spec_text("test/fixtures/big_literal.sc")},
         "integer literal out of range"),
        ({"kind": "faults", "parts": 2, "seeds": 1,
          "spec": spec_text("test/fixtures/div_zero.sc")},
         "golden run failed: division by zero"),
        ({"kind": "faults", "parts": 2, "seeds": 1,
          "spec": spec_text("test/fixtures/big_array.sc")},
         "array a: 1000000000 elements"),
    ]
    proc = start_daemon(journal=False)
    c = Client()
    for job, cause in cases:
        r = c.rpc({"op": "submit", "job": job})
        if r.get("ok"):
            r = c.rpc({"op": "result", "id": r["id"], "wait": True})
        reply = json.dumps(r)
        assert r.get("state") != "done" and cause in reply, \
            f"{job['kind']} job: expected an error naming {cause!r}: {reply}"
        assert "job raised" not in reply, \
            f"{job['kind']} job raised an exception: {reply}"
    r = c.rpc({"op": "ping"})
    assert r.get("ok"), f"daemon did not answer ping after the errors: {r}"
    c.rpc({"op": "shutdown"})
    c.close()
    proc.wait(timeout=30)
    print("out-of-range literal, division-by-zero and oversized-array specs "
          "answered with structured errors; the daemon still answers ping")


def serve_speed():
    """One request both ways: refine examples/specs/medical.sc into two
    parts.  Cold: 8 `mrefine refine -q -p 2` processes.  Warm: one
    priming request, then 64 submit + wait round trips on one connection
    to a daemon without a journal.  Requests per second are 1 / mean
    latency; the warm rate must be at least 5x the cold one, and every
    served output byte-identical to the cold CLI's."""
    path = "examples/specs/medical.sc"
    cold_lats = []
    for _ in range(8):
        t0 = time.perf_counter()
        cold = subprocess.run(
            [MR, "refine", "-q", "-p", "2", path],
            check=True, capture_output=True,
        ).stdout.decode()
        cold_lats.append(time.perf_counter() - t0)

    proc = start_daemon(journal=False)
    c = Client()
    job = {"kind": "refine", "spec": spec_text(path), "parts": 2}

    def request():
        r = c.rpc({"op": "submit", "job": job})
        assert r.get("ok"), f"speed submit failed: {r}"
        r = c.rpc({"op": "result", "id": r["id"], "wait": True})
        assert r.get("state") == "done", f"speed request not done: {r}"
        return r["output"]

    request()
    warm_lats = []
    for _ in range(64):
        t0 = time.perf_counter()
        out = request()
        warm_lats.append(time.perf_counter() - t0)
        assert out == cold, "served refine differs from the cold CLI"
    c.rpc({"op": "shutdown"})
    c.close()
    proc.wait(timeout=30)

    cold_rps = len(cold_lats) / sum(cold_lats)
    warm_rps = len(warm_lats) / sum(warm_lats)
    speedup = warm_rps / cold_rps
    print(f"serve speed: cold {cold_rps:.1f} req/s, warm {warm_rps:.1f} "
          f"req/s ({speedup:.1f}x)")
    assert speedup >= 5.0, \
        f"warm served requests only {speedup:.1f}x the cold CLI"


def serve_client():
    """The `mrefine client` binary end to end: a refine submitted with
    --wait --print-output over the Unix socket, and again over TCP with
    --token-file, must print exactly what the cold `mrefine refine -q`
    prints; --ping and --stats exit 0; a wrong token exits 1 after a
    single authentication attempt."""
    path = "examples/specs/fig1.sc"
    cold = subprocess.run(
        [MR, "refine", "-q", "-m", "3", path],
        check=True, capture_output=True,
    ).stdout.decode()
    token_file = os.path.join(WORKDIR, "token")
    with open(token_file, "w") as f:
        f.write("smoke-client-token\n")
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    unix = ["--socket", SOCK]
    tcp = ["--connect", f"127.0.0.1:{port}", "--token-file", token_file]

    def client(*args):
        return subprocess.run([MR, "client", *args], capture_output=True)

    def auth_failures():
        c = Client()
        n = c.rpc({"op": "stats"})["server"]["auth_failures"]
        c.close()
        return n

    proc = start_daemon(journal=False, extra=[
        "--listen", f"127.0.0.1:{port}", "--token-file", token_file])
    try:
        for how, via in (("unix socket", unix), ("tcp", tcp)):
            r = client(*via, "--submit", "refine", "--spec", path,
                       "--arg", "model=model3", "--wait", "--print-output")
            assert r.returncode == 0, \
                f"client refine over {how} exited {r.returncode}: {r.stderr}"
            assert r.stdout.decode() == cold, \
                f"client refine over {how} differs from the cold CLI"
            for op in ("--ping", "--stats"):
                r = client(*via, op)
                assert r.returncode == 0, \
                    f"client {op} over {how} exited {r.returncode}: {r.stderr}"
        before = auth_failures()
        r = client("--connect", f"127.0.0.1:{port}", "--token", "wrong",
                   "--retries", "3", "--ping")
        assert r.returncode == 1, f"wrong token exited {r.returncode}"
        assert r.stderr.decode() == "mrefine: authentication failed\n", \
            f"wrong token: {r.stderr}"
        assert auth_failures() == before + 1, "a refused token was retried"
        r = client(*unix, "--shutdown")
        assert r.returncode == 0, f"client --shutdown exited {r.returncode}"
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    print("mrefine client: refine over unix socket and tcp identical to "
          "the cold CLI; ping, stats and a refused token behave")


def main():
    jobs = make_jobs()
    ids = sorted(jobs, key=lambda s: int(s.split("-")[1]))
    print(f"job mix: {len(ids)} jobs "
          f"({sum(1 for k, *_ in jobs.values() if k == 'refine')} refine, "
          f"{sum(1 for k, *_ in jobs.values() if k == 'lint')} lint, "
          f"{sum(1 for k, *_ in jobs.values() if k == 'explore')} explore, "
          f"{sum(1 for k, *_ in jobs.values() if k == 'faults')} faults)")

    # Phase 1: concurrent submits, then SIGKILL mid-load.
    proc = start_daemon()
    submitted = []
    n_threads = 8
    slices = [ids[i::n_threads] for i in range(n_threads)]
    threads = [
        threading.Thread(target=submit_some, args=(s, jobs, submitted))
        for s in slices
    ]
    for t in threads:
        t.start()
    # Kill mid-load: once a chunk of submits is acknowledged but before
    # the queue can drain.
    deadline = time.time() + 10.0
    while len(submitted) < 60 and any(t.is_alive() for t in threads) \
            and time.time() < deadline:
        time.sleep(0.002)
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    for t in threads:
        t.join()
    print(f"SIGKILL after {len(submitted)} acknowledged submits")

    # Phase 2: restart on the same journal; resubmit everything
    # (idempotent), then wait every job to a terminal state.
    proc = start_daemon()
    c = Client()
    states, outputs, metas, replayed = {}, {}, {}, 0
    for job_id in ids:
        r = c.rpc({"op": "submit", "id": job_id, "job": jobs[job_id][1]})
        assert r.get("ok"), f"{job_id}: resubmit failed: {r}"
    for job_id in ids:
        r = c.rpc({"op": "result", "id": job_id, "wait": True})
        assert r.get("ok"), f"{job_id}: result failed: {r}"
        states[job_id] = r["state"]
        outputs[job_id] = r.get("output", "")
        metas[job_id] = r.get("meta", {})
        replayed += bool(r.get("replayed"))
    stats = c.rpc({"op": "stats"})
    c.rpc({"op": "shutdown"})
    c.close()
    proc.wait(timeout=30)

    bad = {i: s for i, s in states.items()
           if s not in ("done", "failed", "cancelled")}
    assert not bad, f"non-terminal jobs after restart: {bad}"
    failed = {i: s for i, s in states.items() if s != "done"}
    assert not failed, f"jobs did not complete: {failed}"
    print(f"all {len(ids)} jobs done after restart "
          f"({replayed} served from the journal)")

    # Byte-identity of served refine/lint results against the cold CLI.
    cli_cache = {}
    checked = 0
    for job_id in ids:
        kind, job, spec_path = jobs[job_id]
        if kind == "refine":
            key = (spec_path, job["model"], job["parts"], job["seed"])
            if key not in cli_cache:
                cli_cache[key] = cold_refine(
                    spec_path, job["model"], job["parts"], job["seed"])
            assert outputs[job_id] == cli_cache[key], \
                f"{job_id}: served refine differs from cold CLI"
            checked += 1
        elif kind == "lint":
            key = ("lint", job["file"])
            if key not in cli_cache:
                cli_cache[key] = cold_lint(job["file"])
            assert outputs[job_id] == cli_cache[key], \
                f"{job_id}: served lint differs from cold CLI"
            checked += 1
        elif kind == "explore":
            cov = metas[job_id].get("coverage")
            assert cov == 1.0, f"{job_id}: explore coverage {cov} != 1.0"
    print(f"{checked} refine/lint results bit-identical to the cold CLI; "
          f"explore jobs at coverage 1.0")
    print("serve smoke ok:", json.dumps(
        {k: stats[k] for k in ("jobs", "done", "batches") if k in stats}))
    serve_faults()
    serve_crash_specs()
    serve_speed()
    serve_client()


if __name__ == "__main__":
    main()
