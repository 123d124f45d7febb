#!/usr/bin/env python3
"""Chaos smoke test for the mrefine serve daemon.

Runs a token-guarded TCP daemon behind the seeded fault-injecting
`mrefine chaos` proxy (connections dropped mid-frame, torn writes,
trickle delays, garbage bytes, resets), drives ~200 mixed jobs through
the proxy from retrying client threads, SIGTERMs the daemon mid-load
(graceful drain), restarts it on the same journal, and then requires:

  - the drained daemon exits 0;
  - every job converges to done after the restart (idempotent
    resubmission under deterministic client ids — no lost and no
    double-executed work);
  - every refine and lint result is bit-identical to the cold CLI run
    of the same parameters;
  - every explore job completes at coverage 1.0;
  - the real `mrefine client` binary, retrying through the same proxy
    over token-guarded TCP, prints exactly what the cold CLI prints.

Usage: serve_chaos.py [path/to/mrefine.exe]
"""

import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
import threading

MR = sys.argv[1] if len(sys.argv) > 1 else "_build/default/bin/mrefine.exe"
SPECS = ["examples/specs/fig1.sc", "examples/specs/fig2.sc"]
TOKEN = "chaos-smoke-token"
SEED = 1234

WORKDIR = tempfile.mkdtemp(prefix="serve_chaos_")
SOCK = os.path.join(WORKDIR, "daemon.sock")
JOURNAL = os.path.join(WORKDIR, "serve.journal")


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


DAEMON_PORT = free_port()


def wait_tcp(port, deadline=20.0):
    end = time.time() + deadline
    while time.time() < end:
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=1.0)
            s.close()
            return
        except OSError:
            time.sleep(0.05)
    raise SystemExit(f"port {port} did not come up within {deadline}s")


def start_daemon():
    proc = subprocess.Popen(
        [MR, "serve", "--socket", SOCK, "--journal", JOURNAL,
         "--listen", f"127.0.0.1:{DAEMON_PORT}", "--token", TOKEN],
        stderr=subprocess.DEVNULL,
    )
    wait_tcp(DAEMON_PORT)
    return proc


def start_proxy():
    log = open(os.path.join(WORKDIR, "chaos.log"), "w+")
    proc = subprocess.Popen(
        [MR, "chaos", "--listen", "127.0.0.1:0",
         "--upstream", f"127.0.0.1:{DAEMON_PORT}", "--seed", str(SEED)],
        stderr=log,
    )
    deadline = time.time() + 20.0
    while time.time() < deadline:
        log.seek(0)
        m = re.search(r"tcp port (\d+)", log.read())
        if m:
            port = int(m.group(1))
            wait_tcp(port)
            return proc, port
        if proc.poll() is not None:
            raise SystemExit(f"proxy exited early with {proc.returncode}")
        time.sleep(0.05)
    raise SystemExit("proxy did not announce its port within 20s")


def rpc_via(port, obj, retries=40, timeout=30.0):
    """One request through the chaos proxy: fresh authenticated
    connection per attempt, jittered backoff between attempts, honoring
    the daemon's retry_after_ms backpressure hint.  Every request we
    send is idempotent (submits carry ids), so retrying is safe."""
    for attempt in range(retries):
        try:
            s = socket.create_connection(("127.0.0.1", port), timeout=timeout)
            f = s.makefile("rwb")
            for req in ({"op": "auth", "token": TOKEN}, obj):
                f.write((json.dumps(req) + "\n").encode())
                f.flush()
                line = f.readline()
                if not line:
                    raise ConnectionError("connection dropped")
                r = json.loads(line)
                if not r.get("ok"):
                    if "retry_after_ms" in r:
                        time.sleep(r["retry_after_ms"] / 1000.0)
                        raise ConnectionError("daemon busy")
                    raise ConnectionError(f"refused: {r.get('error')}")
            s.close()
            return r
        except (ConnectionError, OSError, ValueError):
            time.sleep(min(2.0, 0.02 * (2 ** min(attempt, 6))
                           * (0.5 + random.random())))
    raise SystemExit(f"no successful reply after {retries} attempts: {obj}")


def spec_text(path):
    with open(path) as f:
        return f.read()


def make_jobs():
    """~200 mixed jobs, keyed by deterministic ids for idempotent
    resubmission across faults and the daemon restart."""
    jobs = {}

    def add(kind, job, path):
        jobs[f"chaos-{len(jobs)}"] = (kind, job, path)

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


def submit_some(port, ids, jobs, submitted):
    for job_id in ids:
        _kind, job, _path = jobs[job_id]
        try:
            r = rpc_via(port, {"op": "submit", "id": job_id, "job": job},
                        retries=12, timeout=10.0)
            if r.get("ok"):
                submitted.append(job_id)
        except SystemExit:
            # mid-load the daemon is SIGTERMed: late submits may never
            # land; phase 2 resubmits everything
            return


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


def cli_client_via(port, runs=12):
    """The `mrefine client` binary through the chaos proxy: each run is
    a fresh process that authenticates with --token-file, submits a
    refine, waits for it and prints its output, retrying every transport
    failure under its own policy.  Every run must exit 0 with the cold
    CLI's bytes."""
    path = SPECS[0]
    cold = subprocess.run([MR, "refine", "-q", "-m", "2", path],
                          check=True, capture_output=True).stdout
    token_file = os.path.join(WORKDIR, "token")
    with open(token_file, "w") as f:
        f.write(TOKEN + "\n")
    for i in range(runs):
        r = subprocess.run(
            [MR, "client", "--connect", f"127.0.0.1:{port}",
             "--token-file", token_file, "--retries", "12",
             "--retry-backoff", "20", "--timeout", "10",
             "--submit", "refine", "--spec", path, "--arg", "model=model2",
             "--wait", "--print-output"],
            capture_output=True, timeout=120)
        assert r.returncode == 0, \
            f"mrefine client run {i} exited {r.returncode}: {r.stderr}"
        assert r.stdout == cold, \
            f"mrefine client run {i} differs from the cold CLI"
    print(f"{runs} mrefine client runs through the proxy byte-identical "
          "to the cold CLI")


def main():
    jobs = make_jobs()
    ids = sorted(jobs, key=lambda s: int(s.split("-")[1]))
    print(f"job mix: {len(ids)} jobs through chaos proxy (seed {SEED})")

    # Phase 1: submits through the fault-injecting proxy, then SIGTERM
    # (graceful drain) mid-load.
    daemon = start_daemon()
    proxy, proxy_port = start_proxy()
    submitted = []
    n_threads = 8
    slices = [ids[i::n_threads] for i in range(n_threads)]
    threads = [
        threading.Thread(target=submit_some,
                         args=(proxy_port, s, jobs, submitted))
        for s in slices
    ]
    for t in threads:
        t.start()
    deadline = time.time() + 30.0
    while len(submitted) < 60 and any(t.is_alive() for t in threads) \
            and time.time() < deadline:
        time.sleep(0.002)
    os.kill(daemon.pid, signal.SIGTERM)
    rc = daemon.wait(timeout=30)
    assert rc == 0, f"drained daemon exited {rc}, want 0"
    for t in threads:
        t.join()
    print(f"SIGTERM after {len(submitted)} acknowledged submits; "
          f"daemon drained and exited 0")

    # Phase 2: restart on the same journal and port; resubmit everything
    # through the (still faulty) proxy, then wait every job out.
    daemon = start_daemon()
    for job_id in ids:
        r = rpc_via(proxy_port,
                    {"op": "submit", "id": job_id, "job": jobs[job_id][1]})
        assert r.get("ok"), f"{job_id}: resubmit failed: {r}"
    states, outputs, metas, replayed = {}, {}, {}, 0
    for job_id in ids:
        r = rpc_via(proxy_port,
                    {"op": "result", "id": job_id, "wait": True})
        assert r.get("ok"), f"{job_id}: result failed: {r}"
        states[job_id] = r["state"]
        outputs[job_id] = r.get("output", "")
        metas[job_id] = r.get("meta", {})
        replayed += bool(r.get("replayed"))
    stats = rpc_via(proxy_port, {"op": "stats"})
    try:
        cli_client_via(proxy_port)
    except BaseException:
        proxy.kill()
        daemon.kill()
        raise
    proxy.terminate()
    proxy.wait(timeout=10)
    # shut the daemon down directly (not through the proxy): the
    # shutdown op is not idempotent, so it gets a clean transport
    s = socket.create_connection(("127.0.0.1", DAEMON_PORT), timeout=10.0)
    f = s.makefile("rwb")
    for req in ({"op": "auth", "token": TOKEN}, {"op": "shutdown"}):
        f.write((json.dumps(req) + "\n").encode())
        f.flush()
        f.readline()
    s.close()
    rc = daemon.wait(timeout=30)
    assert rc == 0, f"daemon exited {rc} after shutdown, want 0"

    failed = {i: s for i, s in states.items() if s != "done"}
    assert not failed, f"jobs did not complete: {failed}"
    print(f"all {len(ids)} jobs done after restart "
          f"({replayed} served from the journal)")

    # Byte-identity of served refine/lint results against the cold CLI:
    # transport chaos must never corrupt or fork a result.
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
    print(f"{checked} refine/lint results bit-identical to the cold CLI "
          f"under transport chaos; explore jobs at coverage 1.0")
    srv = stats.get("server", {})
    print("serve chaos ok:", json.dumps(
        {**{k: stats[k] for k in ("jobs", "done", "batches") if k in stats},
         **{k: srv[k] for k in ("connections_total", "auth_failures",
                                "reaped_timeouts", "accept_errors")
            if k in srv}}))


if __name__ == "__main__":
    main()
