#!/usr/bin/env python
"""CI smoke test for the scheduler service (see .github/workflows/ci.yml).

End to end, against real subprocesses and real sockets:

1. start ``repro serve`` (fsync=always, so every acknowledged op is
   durable) and run the closed-loop load generator across 8 sessions;
2. record every session's state, then SIGKILL the server mid-flight --
   the crash path, not the graceful one;
3. restart on the same data directory and assert every session recovers
   to exactly the pre-kill state (active jobs, objective, placements);
4. drive a second load-generation round on the recovered server, shut it
   down cleanly (rc=0), and check the load generator's result (every
   session served, exact latency percentiles present).

Exit code 0 means the durability contract held.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.service import LoadgenOptions, ServiceClient, run_loadgen_sync  # noqa: E402


def spawn_server(data_dir, *, fsync, timeout=30.0):
    """Start ``repro serve`` on an ephemeral port; return (proc, port)."""
    ready = os.path.join(data_dir, "ready.json")
    if os.path.exists(ready):
        os.unlink(ready)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", data_dir,
         "--port", "0", "--fsync", fsync, "--ready-file", ready],
        env=env,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early with rc={proc.returncode}")
        if os.path.exists(ready):
            try:
                with open(ready) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError):
                doc = None
            if doc and doc.get("port"):
                return proc, int(doc["port"])
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError(f"server not ready within {timeout}s")


def session_states(client, sids):
    """Full observable state per session: counts, objective, placements."""
    out = {}
    for sid in sids:
        client.open(sid)
        q = client.query(sid, jobs=True)
        out[sid] = {
            "active": q["active"],
            "objective": q["objective"],
            "jobs": q["jobs"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sessions", type=int, default=8)
    ap.add_argument("--duration", type=float, default=2.5,
                    help="seconds per load round (two rounds ~ 5 s total)")
    a = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as td:
        data = os.path.join(td, "data")
        opts = LoadgenOptions(
            sessions=a.sessions, duration=a.duration, seed=7,
            snapshot_every=50, session_prefix="sm",
        )
        sids = [f"sm{i}" for i in range(a.sessions)]

        # Round 1: load, observe, SIGKILL (the crash path).
        proc, port = spawn_server(data, fsync="always")
        doc = run_loadgen_sync(opts, port=port)
        with ServiceClient(port=port) as client:
            before = session_states(client, sids)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        print(f"round 1: {doc['totals']['ops']} ops served, server SIGKILLed")

        # Round 2: recover on the same data dir; state must match exactly.
        proc, port = spawn_server(data, fsync="always")
        with ServiceClient(port=port) as client:
            after = session_states(client, sids)
            if before != after:
                for sid in sids:
                    if before[sid] != after[sid]:
                        print(f"MISMATCH {sid}:\n  before={before[sid]}"
                              f"\n  after ={after[sid]}", file=sys.stderr)
                raise SystemExit("recovery state mismatch")
            print(f"recovery ok: {len(sids)} sessions match pre-kill state")

        # Round 3: the recovered server still serves load (fresh sessions,
        # since the sm* ones persist with their jobs); clean shutdown.
        doc = run_loadgen_sync(replace(opts, session_prefix="sm2-"), port=port)
        with ServiceClient(port=port) as client:
            client.shutdown()
        rc = proc.wait(timeout=30)
        if rc != 0:
            raise SystemExit(f"server exited with rc={rc} (want 0)")
        print(f"round 2: {doc['totals']['ops']} ops served after recovery, "
              f"clean shutdown rc=0")

    # The load generator's result: every session served, exact percentiles.
    assert doc["bench"] == "service_loadgen", doc.get("bench")
    assert len(doc["per_session"]) >= 8, "need >= 8 concurrent sessions"
    totals = doc["totals"]
    assert totals["ops"] > 0 and totals["throughput_ops_per_s"] > 0
    for key in ("mean", "p50", "p90", "p99", "max"):
        assert key in totals["latency_ms"], f"missing latency {key}"
    print(f"loadgen: {totals['ops']} ops, "
          f"{totals['throughput_ops_per_s']:.0f} ops/s, "
          f"p50={totals['latency_ms']['p50']:.3f}ms "
          f"p99={totals['latency_ms']['p99']:.3f}ms")
    print("service smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
