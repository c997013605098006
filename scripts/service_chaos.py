#!/usr/bin/env python
"""Chaos soak for the scheduler service: seeded faults + SIGKILLs.

The harness spawns ``repro serve`` with a deterministic fault plan
(``--faults``; docs/FAULTS.md) active at every registered failpoint,
drives N sessions from threads of retrying idempotent clients, and
periodically SIGKILLs the server mid-load, respawning it on the same
port.  Clients ride out every disruption: transport errors reconnect,
``retry_later``/``degraded`` responses back off, and stable idempotency
keys make retries after ambiguous failures exactly-once.

The soak then asserts the cost-obliviousness durability contract end to
end: because scheduler decisions are a pure function of the op order,
every session's final schedule -- placements, job table, objective --
must equal an uninterrupted in-process reference run over exactly the
ops that were acknowledged, and an offline ``replay_journal_dir`` over
the surviving journals must agree as well.

Results land in ``benchmarks/results/BENCH_chaos.json``: fault
injection counts, availability, retry/reconnect totals, and
kill-to-ready recovery latency percentiles.  The default plan also arms
``exit`` behaviors inside journal appends and checkpoints (a crash at
the exact torn-record point), every server incarnation writes its own
request trace, and the soak asserts all killed-run trace files still
parse -- tolerating only a torn final line.

Usage::

    python scripts/service_chaos.py --seed 4 --duration 20
    python scripts/service_chaos.py --sessions 8 --kill-every 2
"""

import argparse
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.metrics import summarize  # noqa: E402
from repro.obs.trace import read_trace  # noqa: E402
from repro.service import RetryPolicy, ServiceClient  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    ErrorCode,
    ServiceError,
    SessionConfig,
)
from repro.recovery import run_fsck  # noqa: E402
from repro.service.image import build_scheduler, replay_journal_dir  # noqa: E402

DEFAULT_OUT = os.path.join(ROOT, "benchmarks", "results", "BENCH_chaos.json")
MAX_SIZE = 32

#: Every registered failpoint, firing probabilistically off the seeded
#: plan RNG.  Eviction/rehydration pressure comes from ``--max-live 2``.
#: The ``exit`` rules crash the server *inside* a journal append or
#: checkpoint -- the deterministic cousin of the harness's SIGKILLs,
#: landing at the exact point where a torn record is possible.  They are
#: safe to arm: startup recovery only reads (no append/checkpoint hits),
#: so a respawn cannot crash-loop.
DEFAULT_FAULTS = ";".join([
    "journal.append.io=error:EIO@p0.01",
    "journal.append.io=exit@p0.0005",
    "journal.append.fsync=delay:0.002@p0.05",
    "journal.append.fsync=error:ENOSPC@p0.005",
    "journal.roll.io=error:EIO@p0.01",
    "journal.checkpoint.io=error:ENOSPC@p0.05",
    "journal.checkpoint.io=exit@p0.002",
    "journal.recover.io=error:EIO@p0.05",
    "sessions.admit=error:EAGAIN@p0.005",
    "sessions.evict=error:EIO@p0.1",
    "sessions.rehydrate=error:EIO@p0.05",
    "server.conn.accept=drop@p0.02",
    "server.conn.read=drop@p0.005",
    "server.conn.write=drop@p0.005",
    # Half-open partition: the server keeps reading (and applying) ops
    # but answers nothing; the client times out into an ambiguous retry
    # that only the idempotency window keeps exactly-once.
    "server.conn.partition=drop@p0.001",
    # Deep-layer failpoints inside the k-cursor rebuild cascades.  Only
    # delay is armed in the background soak: these points also fire
    # while startup recovery replays the WAL through the scheduler, so
    # an armed exit would crash the same replay at the same hit on
    # every respawn -- a deterministic crash loop.  The crash-inside-
    # rebuild case runs as its own scenario (rebuild_crash_gate), which
    # respawns fault-free.  (pma.* points never fire here: the service
    # schedulers are k-cursor-backed; tests/test_faults.py drives them.)
    "kcursor.rebuild.enter=delay:0.001@p0.02",
    "kcursor.rebuild.exit=delay:0.001@p0.02",
    "kcursor.chunk.slide=delay:0@p0.01",
])

#: Error codes a worker keeps retrying past the client policy: the
#: server is down (INTERNAL: connection failed), shedding, or healing.
_RETRY_CODES = (ErrorCode.INTERNAL, ErrorCode.RETRY_LATER, ErrorCode.DEGRADED)


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def spawn_server(data_dir, port, *, faults, faults_seed, max_live,
                 trace=None, timeout=30.0):
    ready = os.path.join(data_dir, "..", "ready.json")
    if os.path.exists(ready):
        os.unlink(ready)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "repro", "serve", data_dir,
           "--port", str(port), "--fsync", "always",
           "--max-live", str(max_live), "--ready-file", ready]
    if faults:
        cmd += ["--faults", faults, "--faults-seed", str(faults_seed)]
    if trace is not None:
        cmd += ["--trace", trace]
    proc = subprocess.Popen(
        cmd,
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited on startup rc={proc.returncode}")
        if os.path.exists(ready):
            try:
                with open(ready) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError):
                doc = None
            if doc and doc.get("port"):
                return proc
        time.sleep(0.02)
    proc.kill()
    raise RuntimeError(f"server not ready within {timeout}s")


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
    """The uninterrupted schedule over the acked ops."""
    sched = build_scheduler(cfg)
    placements = {}
    for op, name, size in ops:
        if op == "insert":
            pj = sched.insert(name, size)
            placements[name] = [pj.name, pj.size, pj.klass, pj.start, pj.server]
        else:
            sched.delete(name)
    jobs = sorted(
        [[str(pj.name), pj.size, pj.klass, pj.start, pj.server]
         for pj in sched.jobs()],
        key=lambda row: (row[4], row[3], row[0]),
    )
    return placements, jobs, sched.sum_completion_times()


def fsck_gate(data):
    """Post-crash fsck: repair, prove idempotence, return the counts.

    ``repair=True`` may truncate torn tails and quarantine undecodable
    bytes (docs/RECOVERY.md); the second run must find *nothing* -- the
    repair contract is that re-running is a no-op.  Callers re-verify
    state after the gate, so a repair that lost acked data still fails
    the soak downstream.
    """
    first = run_fsck([data], repair=True)
    second = run_fsck([data], repair=True)
    assert second.clean, (
        "fsck --repair was not idempotent:\n" + "\n".join(second.human_lines())
    )
    return {
        "first_run_findings": len(first.findings),
        "repaired": sum(1 for f in first.findings if f.repaired),
        "second_run_findings": len(second.findings),
    }


def rebuild_crash_gate(a, host):
    """Deterministic crash *inside* a k-cursor rebuild cascade.

    Arms ``kcursor.rebuild.enter=exit`` so the server dies mid-cascade
    (after a fixed number of rebuilds), runs the fsck gate over the
    remains, respawns fault-free, and keeps driving.  The final
    schedule must equal the uninterrupted in-process reference over the
    acked ops -- the rebuild cascade is pure in-memory derived state,
    so a crash at its worst moment must cost nothing after replay.
    """
    sid = "rebuild"
    cfg = SessionConfig(max_size=MAX_SIZE)
    port = free_port()
    gate = None
    with tempfile.TemporaryDirectory(prefix="repro-rebuild-") as td:
        data = os.path.join(td, "data")
        proc = spawn_server(
            data, port, faults="kcursor.rebuild.enter=exit@after8",
            faults_seed=a.seed, max_live=4,
        )
        client = ServiceClient(
            host, port, timeout=5.0,
            retry=RetryPolicy(attempts=4, base=0.02, max_delay=0.2, seed=11),
        )

        def acked_call(fn):
            while True:
                try:
                    return fn()
                except ServiceError as e:
                    if e.code not in _RETRY_CODES:
                        raise
                    time.sleep(0.02)

        acked_call(lambda: client.open(sid, cfg.to_dict()))
        acked = []
        i = 0
        tail = None  # inserts still owed after the crash
        while tail is None or tail > 0:
            if proc.poll() is not None:
                assert tail is None, "server crashed again without faults"
                assert proc.returncode == 137, proc.returncode
                gate = fsck_gate(data)
                proc = spawn_server(data, port, faults="",
                                    faults_seed=a.seed, max_live=4)
                tail = 120
            if tail is None and i >= 2000:
                raise RuntimeError(
                    "rebuild-cascade exit failpoint never fired"
                )
            name = f"r{i}"
            size = i % MAX_SIZE + 1
            try:
                client.insert(sid, name, size, idem=f"{sid}.i.{name}")
            except ServiceError as e:
                if e.code not in _RETRY_CODES:
                    raise
                continue  # server mid-crash; retry the same op
            acked.append(("insert", name, size))
            i += 1
            if tail is not None:
                tail -= 1

        _, ref_jobs, ref_objective = reference_run(cfg, acked)
        final = acked_call(lambda: client.query(sid, jobs=True))
        assert final["jobs"] == ref_jobs, "rebuild-crash schedule diverged"
        assert final["objective"] == ref_objective, (
            f"rebuild-crash objective {final['objective']} != {ref_objective}"
        )
        try:
            client.shutdown()
        except ServiceError:
            pass
        client.close()
        proc.wait(timeout=60)
        _, infos = replay_journal_dir(data)
        info = {r["session"]: r for r in infos}[sid]
        assert (info["active"], info["objective"]) == (
            len(ref_jobs), ref_objective
        ), "rebuild-crash offline replay diverged"
        post = run_fsck([data])
        assert post.clean, "\n".join(post.human_lines())
    assert gate is not None
    return {"crashes": 1, "ops_acked": len(acked), "fsck": gate}


class Worker(threading.Thread):
    """One session's driver: sequential ops, retried until acked."""

    def __init__(self, idx, sid, cfg, ops, host, port, stop,
                 snapshot_every=40):
        super().__init__(name=f"chaos-{sid}", daemon=True)
        self.sid = sid
        self.cfg = cfg
        self.ops = ops
        self.stop_event = stop
        self.snapshot_every = snapshot_every
        self.client = ServiceClient(
            host, port, timeout=5.0,
            retry=RetryPolicy(attempts=6, base=0.02, max_delay=0.5,
                              seed=9000 + idx),
        )
        self.acked = []
        self.placements = {}
        self.failures = 0  # call() exhausted its policy; retried again
        self.error = None

    def _call_until_acked(self, fn):
        """Past the client's own policy, keep going: the server may be
        mid-respawn after a SIGKILL.  The stable idem key (threaded by
        the caller) keeps every retry exactly-once."""
        while True:
            try:
                return fn()
            except ServiceError as e:
                if e.code not in _RETRY_CODES:
                    raise
                self.failures += 1
                time.sleep(0.05)

    def run(self):
        try:
            c = self.client
            self._call_until_acked(
                lambda: c.open(self.sid, self.cfg.to_dict()))
            for op, name, size in self.ops:
                if self.stop_event.is_set():
                    break
                idem = f"{self.sid}.{op[0]}.{name}"
                if op == "insert":
                    res = self._call_until_acked(
                        lambda: c.insert(self.sid, name, size, idem=idem))
                    p = res["placed"]
                    self.placements[name] = [p["name"], p["size"], p["klass"],
                                             p["start"], p["server"]]
                else:
                    self._call_until_acked(
                        lambda: c.delete(self.sid, name, idem=idem))
                self.acked.append((op, name, size))
                if self.snapshot_every and len(self.acked) % self.snapshot_every == 0:
                    try:
                        c.snapshot(self.sid)
                    except ServiceError:
                        pass  # advisory; degraded snapshots may bounce
        except Exception as e:  # surfaced by the harness, fails the soak
            self.error = e
        finally:
            self.client.close()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--duration", type=float, default=20.0,
                    help="soak wall-clock seconds before the drain")
    ap.add_argument("--sessions", type=int, default=4)
    ap.add_argument("--kill-every", type=float, default=3.0,
                    help="seconds between SIGKILLs of the server")
    ap.add_argument("--max-live", type=int, default=2,
                    help="server --max-live (small = eviction pressure)")
    ap.add_argument("--faults", default=DEFAULT_FAULTS,
                    help="fault spec for the server (docs/FAULTS.md)")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--out", default=DEFAULT_OUT)
    a = ap.parse_args(argv)

    rng = random.Random(a.seed)
    port = free_port()
    stop = threading.Event()
    kills, unexpected_exits, recovery_lat = 0, 0, []

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as td:
        data = os.path.join(td, "data")
        # One trace file per server incarnation: all but the last writer
        # die by SIGKILL or an injected exit, so the post-soak assertion
        # that every file still parses (tolerant of the torn tail only)
        # exercises exactly the crash-forensics path.
        trace_files = []

        def next_trace():
            path = os.path.join(td, f"trace-{len(trace_files)}.jsonl")
            trace_files.append(path)
            return path

        proc = spawn_server(data, port, faults=a.faults, faults_seed=a.seed,
                            max_live=a.max_live, trace=next_trace())

        workers = []
        for i in range(a.sessions):
            cfg = SessionConfig(max_size=MAX_SIZE, p=1 + i % 2)
            ops = make_ops(random.Random(a.seed * 1000 + i), 100_000)
            w = Worker(i, f"chaos{i}", cfg, ops, a.host, port, stop)
            workers.append(w)
            w.start()

        def respawn():
            nonlocal proc
            t0 = time.monotonic()
            proc = spawn_server(data, port, faults=a.faults,
                                faults_seed=a.seed, max_live=a.max_live,
                                trace=next_trace())
            recovery_lat.append(time.monotonic() - t0)

        def ensure_server():
            """Injected ``exit`` faults can kill the server at any
            journal write -- including after the kill loop has ended, so
            the drain and verification phases watchdog it too."""
            nonlocal unexpected_exits
            if proc.poll() is not None:
                unexpected_exits += 1
                respawn()

        end = time.monotonic() + a.duration
        next_kill = time.monotonic() + a.kill_every * (0.5 + rng.random())
        while time.monotonic() < end:
            time.sleep(0.05)
            if proc.poll() is not None:
                unexpected_exits += 1
                respawn()
                continue
            if time.monotonic() >= next_kill:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=30)
                kills += 1
                respawn()
                next_kill = time.monotonic() + a.kill_every * (
                    0.5 + rng.random()
                )

        ensure_server()
        stop.set()
        drain_deadline = time.monotonic() + 120
        pending = list(workers)
        while pending and time.monotonic() < drain_deadline:
            ensure_server()
            for w in list(pending):
                w.join(timeout=0.2)
                if not w.is_alive():
                    pending.remove(w)
        stuck = [w.sid for w in pending]
        if stuck:
            raise RuntimeError(f"workers never drained: {stuck}")
        for w in workers:
            if w.error is not None:
                raise RuntimeError(f"worker {w.sid} failed: {w.error}")

        # -- differential verification --------------------------------
        mismatches = []
        bad_sids = set()

        def diverged(sid, msg):
            bad_sids.add(sid)
            mismatches.append(f"{sid}: {msg}")

        references = {}
        verify = ServiceClient(
            a.host, port, timeout=10.0,
            retry=RetryPolicy(attempts=8, base=0.05, seed=1),
        )
        for w in workers:
            ref_placements, ref_jobs, ref_objective = reference_run(
                w.cfg, w.acked
            )
            references[w.sid] = (ref_jobs, ref_objective)
            if w.placements != ref_placements:
                diverged(w.sid, "placements diverge")
            final = None
            for _ in range(200):
                ensure_server()
                try:
                    final = verify.query(w.sid, jobs=True)
                    break
                except ServiceError as e:
                    if e.code not in _RETRY_CODES:
                        raise
                    time.sleep(0.05)
            if final is None:
                diverged(w.sid, "final query never served")
                continue
            if final["jobs"] != ref_jobs:
                diverged(w.sid, "final schedule diverges")
            if final["objective"] != ref_objective:
                diverged(
                    w.sid,
                    f"objective {final['objective']} != {ref_objective}",
                )
        try:
            server_stats = verify.stats()
        except ServiceError:
            ensure_server()
            server_stats = verify.stats()
        try:
            verify.shutdown()
        except ServiceError:
            pass
        verify.close()
        rc = proc.wait(timeout=60)

        # -- post-crash fsck gate --------------------------------------
        # Every incarnation but the last died abruptly; before trusting
        # the journals offline, repair them and prove the repair is a
        # no-op when re-run.  The replay differential below then checks
        # the repair lost nothing that was acked.
        fsck_stats = fsck_gate(data)

        # -- offline replay over the surviving journals ----------------
        _, infos = replay_journal_dir(data)
        by_sid = {i["session"]: i for i in infos}
        for w in workers:
            ref_jobs, ref_objective = references[w.sid]
            info = by_sid.get(w.sid)
            if info is None:
                diverged(w.sid, "missing from offline replay")
            elif (info["active"], info["objective"]) != (
                len(ref_jobs), ref_objective
            ):
                diverged(w.sid, "offline replay diverges")

        # -- killed-run traces must still parse ------------------------
        # Every incarnation but the last died abruptly; the tolerant
        # reader may drop a torn final line but anything else raises
        # TraceSchemaError and fails the soak.
        trace_stats = {"files": 0, "records": 0, "server_ops": 0,
                       "fault_events": 0}
        for path in trace_files:
            if not os.path.exists(path):
                continue
            trace_stats["files"] += 1
            for rec in read_trace(path, tolerant=True):
                trace_stats["records"] += 1
                if rec.get("name") == "server.op" and rec["type"] == "span_start":
                    trace_stats["server_ops"] += 1
                elif rec["type"] == "span_event" and rec.get("name") == "fault.fired":
                    trace_stats["fault_events"] += 1

    # -- deterministic crash inside a rebuild cascade ------------------
    rebuild_crash = rebuild_crash_gate(a, a.host)

    acked = sum(len(w.acked) for w in workers)
    retries = sum(w.client.retries for w in workers)
    failures = sum(w.failures for w in workers)
    attempts = acked + retries + failures
    fault_stats = server_stats.get("faults", {})
    doc = {
        "bench": "service_chaos",
        "seed": a.seed,
        "duration_s": a.duration,
        "sessions": a.sessions,
        "fault_spec": a.faults,
        "kills": kills,
        "unexpected_exits": unexpected_exits,
        "server_exit": rc,
        "faults": fault_stats,  # final server process only
        "faults_survived": sum(fault_stats.get("fired", {}).values()),
        "totals": {
            "ops_acked": acked,
            "retries": retries,
            "policy_exhaustions": failures,
            "reconnects": sum(w.client.reconnects for w in workers),
            "availability": acked / attempts if attempts else 1.0,
        },
        "recovery_latency_s": summarize(recovery_lat),
        "traces": trace_stats,
        "fsck": fsck_stats,
        "rebuild_crash": rebuild_crash,
        "verified": {
            "sessions": {w.sid: w.sid not in bad_sids for w in workers},
            "mismatches": mismatches,
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
    with open(a.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    t = doc["totals"]
    print(f"wrote {a.out}")
    print(f"kills={kills} acked={t['ops_acked']} retries={t['retries']} "
          f"reconnects={t['reconnects']} "
          f"availability={t['availability']:.4f}")
    lat = doc["recovery_latency_s"]
    print(f"recovery s: mean={lat['mean']:.2f} p50={lat['p50']:.2f} "
          f"p90={lat['p90']:.2f} max={lat['max']:.2f}")
    print(f"faults fired (last server): {doc['faults_survived']}")
    ts = doc["traces"]
    print(f"traces: {ts['files']} file(s) parsed, {ts['records']} records, "
          f"{ts['server_ops']} server ops, {ts['fault_events']} fault "
          f"events (all killed-run files readable)")
    fs = doc["fsck"]
    print(f"fsck gate: {fs['first_run_findings']} finding(s), "
          f"{fs['repaired']} repaired, second run clean")
    rc_ = doc["rebuild_crash"]
    print(f"rebuild-crash gate: crashed inside the cascade, "
          f"{rc_['ops_acked']} ops acked, schedule + offline replay exact")
    if mismatches:
        print("DIVERGENCE:")
        for m in mismatches:
            print(f"  {m}")
        return 1
    print(f"all {a.sessions} sessions match the uninterrupted reference "
          f"(live query + offline replay)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
