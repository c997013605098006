"""Crash-recovery property: SIGKILL mid-run, recover, match the
uninterrupted schedule.

The durability contract under test: with ``--fsync always`` every
acknowledged op survives a SIGKILL, and because scheduler decisions are
a deterministic function of the op order (the ``core/snapshot``
contract), the recovered server must place the *remaining* ops exactly
where an uninterrupted run would have -- same placements, same final
schedule, same objective.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.protocol import SessionConfig
from repro.service.image import build_scheduler

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

MAX_SIZE = 32


def spawn_server(data_dir, ready_path):
    if os.path.exists(ready_path):
        os.unlink(ready_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", data_dir,
            "--port", "0", "--fsync", "always", "--ready-file", ready_path,
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30
    while not os.path.exists(ready_path):
        if proc.poll() is not None:
            raise RuntimeError(f"server died on startup (rc={proc.returncode})")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("server did not become ready")
        time.sleep(0.02)
    with open(ready_path, encoding="utf-8") as fh:
        port = json.load(fh)["port"]
    return proc, port


def make_ops(rng, n):
    """A seeded insert/delete trace over a bounded active set."""
    ops, active, seq = [], [], 0
    for _ in range(n):
        if not active or (len(active) < 24 and rng.random() < 0.65):
            name = f"j{seq}"
            seq += 1
            ops.append(("insert", name, rng.randint(1, MAX_SIZE)))
            active.append(name)
        else:
            victim = active.pop(rng.randrange(len(active)))
            ops.append(("delete", victim, None))
    return ops


def reference_run(cfg, ops):
    """The uninterrupted schedule: placements per insert + final state."""
    sched = build_scheduler(cfg)
    placements = {}
    for op, name, size in ops:
        if op == "insert":
            pj = sched.insert(name, size)
            placements[name] = (name, size, pj.klass, pj.start, pj.server)
        else:
            sched.delete(name)
    jobs = sorted(
        [[str(pj.name), pj.size, pj.klass, pj.start, pj.server]
         for pj in sched.jobs()],
        key=lambda row: (row[4], row[3], row[0]),
    )
    return placements, jobs, sched.sum_completion_times()


def apply_ops(client, sid, ops, placements, snapshot_at=None):
    for i, (op, name, size) in enumerate(ops):
        if op == "insert":
            placed = client.insert(sid, name, size)["placed"]
            placements[name] = (
                placed["name"], placed["size"], placed["klass"],
                placed["start"], placed["server"],
            )
        else:
            client.delete(sid, name)
        if snapshot_at is not None and i == snapshot_at:
            client.snapshot(sid)


@pytest.mark.parametrize("p", [1, 2])
def test_sigkill_recovery_matches_uninterrupted_run(tmp_path, p):
    rng = random.Random(1234 + p)
    ops = make_ops(rng, 60)
    kill_at = rng.randrange(20, 40)  # acked ops before the crash
    cfg = SessionConfig(max_size=MAX_SIZE, p=p)
    ref_placements, ref_jobs, ref_objective = reference_run(cfg, ops)

    data = str(tmp_path / "data")
    ready = str(tmp_path / "ready.json")
    sid = "crashy"
    got_placements = {}

    proc, port = spawn_server(data, ready)
    try:
        with ServiceClient(port=port) as client:
            client.open(sid, {"max_size": MAX_SIZE, "p": p})
            # a mid-run checkpoint: recovery = snapshot + tail replay
            apply_ops(client, sid, ops[:kill_at], got_placements,
                      snapshot_at=kill_at // 2)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    proc, port = spawn_server(data, ready)
    try:
        with ServiceClient(port=port) as client:
            opened = client.open(sid)
            assert opened["created"] is False
            rec = opened["recovery"]
            assert rec["from_snapshot"] is True
            assert rec["last_lsn"] == kill_at  # nothing acked was lost
            apply_ops(client, sid, ops[kill_at:], got_placements)
            final = client.query(sid, jobs=True)
            client.shutdown()
        assert proc.wait(timeout=30) == 0  # graceful exit after shutdown op
    finally:
        if proc.poll() is None:
            proc.kill()

    # every insert -- before and after the crash -- landed exactly where
    # the uninterrupted run put it
    assert got_placements == ref_placements
    assert final["jobs"] == ref_jobs
    assert final["objective"] == ref_objective
    assert final["active"] == len(ref_jobs)
