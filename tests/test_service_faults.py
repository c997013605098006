"""Fault-tolerance stack end to end: degraded mode, retrying idempotent
clients, connection aborts, the chaos property (seeded faults at every
failpoint + a SIGKILL, recovering to the uninterrupted schedule), and
group commit's all-or-nothing batch append (a failed append leaves the
memory, the journal and the replica at the pre-batch state; a crash
inside it loses no acknowledged op).
"""

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.obs.metrics import MetricsRegistry
from repro.service.client import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.protocol import (
    ErrorCode,
    Request,
    ServiceError,
    SessionConfig,
)
from repro.recovery import run_fsck
from repro.service.server import ServiceServer
from repro.service.image import DedupWindow, build_scheduler
from repro.service.journal import Journal, durable_lsn
from repro.service.replica import Replicator
from repro.service.sessions import SessionManager

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")

MAX_SIZE = 32

#: Codes a driver loop keeps retrying past the client's own policy.
_RETRY_CODES = (ErrorCode.INTERNAL, ErrorCode.RETRY_LATER, ErrorCode.DEGRADED)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.deactivate()


def run(coro):
    return asyncio.run(coro)


def req(op, **kw):
    return Request(op=op, **kw)


# ----------------------------------------------------------------------
# Degraded (read-only) mode


def test_journal_fault_degrades_then_heals(tmp_path):
    async def main():
        reg = MetricsRegistry()
        m = SessionManager(
            str(tmp_path), fsync="never", registry=reg,
            recover_backoff=0.01, recover_backoff_max=0.05,
        )
        await m.dispatch(req("open", session="s"))
        await m.dispatch(req("insert", session="s", name="a", size=3))
        # the append fault flips the session to degraded; the checkpoint
        # fault then makes the first recovery-sweep attempt fail too
        faults.activate(faults.parse_plan(
            "journal.append.io=error:ENOSPC@times1;"
            "journal.checkpoint.io=error:ENOSPC@times1"
        ))
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("insert", session="s", name="b", size=2))
        assert exc.value.code is ErrorCode.DEGRADED
        assert exc.value.retry_after is not None

        # reads keep serving; mutations bounce instead of crashing
        q = await m.dispatch(req("query", session="s", jobs=True))
        assert q["active"] == 1 and q["jobs"][0][0] == "a"
        assert m.stats("s")["degraded"]
        assert m.stats()["sessions"]["degraded"] == 1
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("delete", session="s", name="a"))
        assert exc.value.code is ErrorCode.DEGRADED

        # the background sweep retries with backoff until the injected
        # faults are exhausted, then reopens the journal and heals
        for _ in range(500):
            if m.sessions["s"].degraded is None:
                break
            await asyncio.sleep(0.01)
        assert m.sessions["s"].degraded is None
        ins = await m.dispatch(req("insert", session="s", name="b", size=2))
        assert ins["lsn"] == 2  # the failed append consumed no LSN
        snap = reg.snapshot()["counters"]
        assert snap["service.degraded.entered"] == 1
        assert snap["service.degraded.recovered"] == 1
        assert snap["service.journal.errors"] == 1
        await m.shutdown()

    run(main())


def test_degraded_snapshot_op_restores_inline(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        await m.dispatch(req("open", session="s"))
        await m.dispatch(req("insert", session="s", name="a", size=3))
        faults.activate(faults.parse_plan("journal.append.io=error@times1"))
        with pytest.raises(ServiceError):
            await m.dispatch(req("insert", session="s", name="b", size=2))
        # an explicit snapshot on a degraded session retries the reopen
        # right now instead of waiting for the sweep
        snap = await m.dispatch(req("snapshot", session="s"))
        assert snap["recovered"] is True
        assert m.sessions["s"].degraded is None
        ins = await m.dispatch(req("insert", session="s", name="b", size=2))
        assert ins["lsn"] == 2
        await m.shutdown()

    run(main())


def test_admit_fault_sheds_with_advisory_delay(tmp_path):
    async def main():
        m = SessionManager(
            str(tmp_path), fsync="never", retry_after_hint=0.123
        )
        await m.dispatch(req("open", session="s"))
        faults.activate(faults.parse_plan("sessions.admit=error:EAGAIN@times1"))
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("insert", session="s", name="a", size=1))
        assert exc.value.code is ErrorCode.RETRY_LATER
        assert exc.value.retry_after == 0.123
        # the shed op was never journaled or applied; the retry is clean
        ins = await m.dispatch(req("insert", session="s", name="a", size=1))
        assert ins["lsn"] == 1
        await m.shutdown()

    run(main())


# ----------------------------------------------------------------------
# Dedup window


def test_dedup_window_eviction_boundaries():
    w = DedupWindow(2)
    assert w.put("k1", {"n": 1}) == 0
    assert w.put("k2", {"n": 2}) == 0
    assert len(w) == 2
    # a hit must NOT extend a key's lifetime (FIFO, not LRU)
    assert w.get("k1") == {"n": 1}
    assert w.put("k3", {"n": 3}) == 1  # k1 evicted despite the recent hit
    assert w.get("k1") is None
    assert w.get("k2") == {"n": 2} and w.get("k3") == {"n": 3}
    assert w.entries() == [("k2", {"n": 2}), ("k3", {"n": 3})]
    # overwriting a key keeps exactly one entry
    w.put("k3", {"n": 33})
    assert len(w) == 2 and w.get("k3") == {"n": 33}
    w.clear()
    assert len(w) == 0 and w.get("k2") is None


def test_dedup_window_cap_zero_remembers_nothing():
    w = DedupWindow(0)
    assert w.put("k", {"n": 1}) == 0
    assert len(w) == 0 and w.get("k") is None


def test_dedup_hit_returns_original_result(tmp_path):
    async def main():
        reg = MetricsRegistry()
        m = SessionManager(str(tmp_path), fsync="never", registry=reg)
        await m.dispatch(req("open", session="s"))
        first = await m.dispatch(
            req("insert", session="s", name="a", size=3, idem="k-1")
        )
        # the retry short-circuits before DUPLICATE_JOB validation
        again = await m.dispatch(
            req("insert", session="s", name="a", size=3, idem="k-1")
        )
        assert again == first
        assert reg.snapshot()["counters"]["service.dedup.hits"] == 1
        q = await m.dispatch(req("query", session="s"))
        assert q["active"] == 1  # applied exactly once
        await m.shutdown()

    run(main())


def test_dedup_window_survives_eviction_cycle(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never", dedup_window=8)
        await m.dispatch(req("open", session="s"))
        first = await m.dispatch(
            req("insert", session="s", name="a", size=3, idem="k-1")
        )
        # checkpoint + drop the live session, then retry the same key:
        # the window rides the snapshot sidecar through rehydration
        await m.dispatch(req("close", session="s"))
        await m.dispatch(req("open", session="s"))
        again = await m.dispatch(
            req("insert", session="s", name="a", size=3, idem="k-1")
        )
        assert again == first
        await m.shutdown()

    run(main())


def test_dedup_window_ages_out_inside_a_batch_as_one_at_a_time(tmp_path):
    """With a window of 2, a batch's own keyed writes push older keys
    out, inside the batch, exactly as the same writes one at a time do:
    a key aged out by the writes before it is a fresh op, not a hit."""
    writes = [
        ("insert", "c", 3, "k2"),  # pushes k0 out of [k0, k1]
        ("insert", "a", 1, "k0"),  # aged out: a fresh, duplicate insert
        ("insert", "b", 2, "k1"),  # still in: the cached answer
        ("insert", "d", 4, "k3"),  # pushes k1 out
        ("insert", "e", 5, "k2"),  # in-batch repeat, still in
        ("delete", "b", None, "k4"),  # pushes k2 out
        ("insert", "f", 6, "k2"),  # in-batch repeat, aged out: fresh
    ]

    async def answers(root, batched):
        m = SessionManager(str(root), fsync="never", dedup_window=2)
        await m.dispatch(req("open", session="s"))
        for name, size, key in (("a", 1, "k0"), ("b", 2, "k1")):
            await m.dispatch(req("insert", session="s", name=name, size=size, idem=key))
        reqs = [
            req(op, session="s", name=name, idem=key,
                **({"size": size} if size is not None else {}))
            for op, name, size, key in writes
        ]
        if batched:  # admitted together: one batch
            out = await asyncio.gather(
                *(m.dispatch(r) for r in reqs), return_exceptions=True
            )
        else:
            out = []
            for r in reqs:
                try:
                    out.append(await m.dispatch(r))
                except ServiceError as e:
                    out.append(e)
        final = await m.dispatch(req("query", session="s", jobs=True))
        await m.shutdown()
        return [o.code if isinstance(o, ServiceError) else o for o in out], final

    batch = run(answers(tmp_path / "batch", True))
    serial = run(answers(tmp_path / "serial", False))
    assert batch == serial
    codes = batch[0]
    assert codes[1] is ErrorCode.DUPLICATE_JOB and codes[6]["placed"]["name"] == "f"


# ----------------------------------------------------------------------
# RetryPolicy


def test_retry_schedule_is_deterministic():
    kw = dict(attempts=5, base=0.1, factor=2.0, max_delay=0.5,
              jitter=0.25, seed=42)
    s1 = RetryPolicy(**kw).schedule()
    s2 = RetryPolicy(**kw).schedule()
    assert s1 == s2  # byte-identical under a fixed seed
    assert len(s1) == 4  # attempts - 1 retries
    for i, d in enumerate(s1):
        nominal = min(0.1 * 2.0 ** i, 0.5)
        assert nominal * 0.75 <= d <= nominal * 1.25
    assert RetryPolicy(**{**kw, "seed": 43}).schedule() != s1


def test_retry_policy_codes_and_validation():
    p = RetryPolicy()
    assert p.retries_code(ErrorCode.RETRY_LATER)
    assert p.retries_code(ErrorCode.DEGRADED)
    assert not p.retries_code(ErrorCode.BAD_REQUEST)
    assert not RetryPolicy(retry_degraded=False).retries_code(
        ErrorCode.DEGRADED
    )
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(factor=0.5)


def test_jitter_zero_schedule_is_exact():
    p = RetryPolicy(attempts=4, base=0.02, factor=2.0, max_delay=1.0,
                    jitter=0.0)
    assert p.schedule() == [0.02, 0.04, 0.08]


# ----------------------------------------------------------------------
# Connection aborts (satellite: half-written frame regression)


def test_half_written_frame_aborts_only_that_connection(tmp_path):
    async def main():
        reg = MetricsRegistry()
        manager = SessionManager(
            str(tmp_path / "data"), fsync="never", registry=reg
        )
        srv = ServiceServer(manager, port=0)
        await srv.start()
        # a client dies mid-frame: bytes with no trailing newline
        _, writer = await asyncio.open_connection("127.0.0.1", srv.tcp_port)
        writer.write(b'{"op": "ping", "id": 1')
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        for _ in range(200):
            if reg.snapshot()["counters"].get("service.conn.aborted"):
                break
            await asyncio.sleep(0.01)
        assert reg.snapshot()["counters"]["service.conn.aborted"] == 1
        # the half-written frame was never parsed, and the server keeps
        # serving every other connection
        async with AsyncServiceClient(port=srv.tcp_port) as c:
            assert await c.ping() == {"pong": True}
        await srv.stop()

    run(main())


# ----------------------------------------------------------------------
# Per-call timeouts (satellite)


def test_per_call_timeout_against_hung_server():
    async def main():
        release = asyncio.Event()

        async def hang(reader, writer):
            await release.wait()
            writer.close()

        srv = await asyncio.start_server(hang, "127.0.0.1", 0)
        port = srv.sockets[0].getsockname()[1]

        async with AsyncServiceClient(port=port) as c:
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as exc:
                await c.ping(timeout=0.1)
            assert exc.value.code is ErrorCode.INTERNAL
            assert time.monotonic() - t0 < 5.0
            assert c._reader is None  # torn down: framing is ambiguous

        def drive_sync():
            with ServiceClient(port=port, timeout=30.0) as c:
                t0 = time.monotonic()
                with pytest.raises(ServiceError) as exc:
                    c.ping(timeout=0.1)
                assert exc.value.code is ErrorCode.INTERNAL
                assert time.monotonic() - t0 < 5.0
                assert c._fh is None

        await asyncio.get_running_loop().run_in_executor(None, drive_sync)
        release.set()
        srv.close()
        await srv.wait_closed()

    run(main())


# ----------------------------------------------------------------------
# Idempotent retry across a dropped connection (differential)


def test_insert_retried_across_dropped_connection_applies_once(tmp_path):
    async def main():
        reg = MetricsRegistry()
        manager = SessionManager(
            str(tmp_path / "data"), fsync="never", registry=reg
        )
        srv = ServiceServer(manager, port=0)
        await srv.start()
        port = srv.tcp_port

        def drive():
            policy = RetryPolicy(attempts=4, base=0.01, seed=0)
            with ServiceClient(port=port, retry=policy) as c:
                c.open("s", {"max_size": 16})
                # the op applies server-side, then the response is lost
                faults.activate(
                    faults.parse_plan("server.conn.write=drop@times1")
                )
                res = c.insert("s", "a", 5)
                assert c.reconnects == 1 and c.retries == 1
                q = c.query("s", jobs=True)
                return res, q

        res, q = await asyncio.get_running_loop().run_in_executor(None, drive)
        # differential: the retried insert landed exactly once, exactly
        # where the uninterrupted reference places it
        sched = build_scheduler(SessionConfig(max_size=16))
        pj = sched.insert("a", 5)
        assert res["placed"] == {
            "name": "a", "size": 5, "klass": pj.klass,
            "start": pj.start, "server": pj.server,
        }
        assert q["active"] == 1
        assert q["jobs"] == [["a", 5, pj.klass, pj.start, pj.server]]
        counters = reg.snapshot()["counters"]
        assert counters["service.dedup.hits"] == 1
        assert counters["service.conn.aborted"] == 1
        await srv.stop()

    run(main())


# ----------------------------------------------------------------------
# The chaos property: every failpoint + a SIGKILL, exact recovery


#: One rule per registered failpoint, deterministically scheduled.
ALL_POINTS_SPEC = ";".join([
    "journal.append.io=error:EIO@after5,times1",
    "journal.append.fsync=delay:0.001@after2,times2",
    "journal.roll.io=error:EIO@after1,times1",
    "journal.checkpoint.io=error:ENOSPC@times1",
    "journal.recover.io=error:EIO@times1",
    "sessions.admit=error:EAGAIN@after6,times1",
    "sessions.evict=error:EIO@times1",
    "sessions.rehydrate=error:EIO@times1",
    "server.conn.accept=drop@after1,times1",
    "server.conn.read=drop@after8,times1",
    "server.conn.write=drop@after5,times1",
])


def spawn_server(data_dir, ready_path, extra=()):
    if os.path.exists(ready_path):
        os.unlink(ready_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", data_dir,
         "--port", "0", "--fsync", "always", "--ready-file", ready_path,
         *extra],
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
    ops, active, seq = [], [], 0
    for _ in range(n):
        if not active or (len(active) < 20 and rng.random() < 0.65):
            name = f"j{seq}"
            seq += 1
            ops.append(("insert", name, rng.randint(1, MAX_SIZE)))
            active.append(name)
        else:
            victim = active.pop(rng.randrange(len(active)))
            ops.append(("delete", victim, None))
    return ops


def reference_run(cfg, ops):
    sched = build_scheduler(cfg)
    placements = {}
    for op, name, size in ops:
        if op == "insert":
            pj = sched.insert(name, size)
            placements[name] = [pj.name, pj.size, pj.klass, pj.start,
                                pj.server]
        else:
            sched.delete(name)
    jobs = sorted(
        [[str(pj.name), pj.size, pj.klass, pj.start, pj.server]
         for pj in sched.jobs()],
        key=lambda row: (row[4], row[3], row[0]),
    )
    return placements, jobs, sched.sum_completion_times()


def acked(client, fn):
    """Retry past the client's own policy until the op is acknowledged
    (the server may be degraded, shedding, or mid-respawn)."""
    deadline = time.monotonic() + 60
    while True:
        try:
            return fn()
        except ServiceError as e:
            if e.code not in _RETRY_CODES or time.monotonic() > deadline:
                raise
            time.sleep(0.02)


def apply_ops(client, sid, ops, placements, churn=None):
    for i, (op, name, size) in enumerate(ops):
        idem = f"{sid}.{op[0]}.{name}"
        if op == "insert":
            res = acked(
                client,
                lambda: client.insert(sid, name, size, idem=idem),
            )
            p = res["placed"]
            placements[name] = [p["name"], p["size"], p["klass"],
                                p["start"], p["server"]]
        else:
            acked(client, lambda: client.delete(sid, name, idem=idem))
        if churn is not None and i % 7 == 3:
            churn(i)


@pytest.mark.parametrize("p", [1, 2])
def test_chaos_every_failpoint_plus_sigkill_recovers_exactly(tmp_path, p):
    rng = random.Random(40 + p)
    ops = make_ops(rng, 70)
    kill_at = 40
    cfg = SessionConfig(max_size=MAX_SIZE, p=p)
    ref_placements, ref_jobs, ref_objective = reference_run(cfg, ops)

    data = str(tmp_path / "data")
    ready = str(tmp_path / "ready.json")
    extra = ["--max-live", "1",  # churn: every other-session op evicts
             "--faults", ALL_POINTS_SPEC, "--faults-seed", "4"]
    sid = "m"
    got_placements = {}
    policy = RetryPolicy(attempts=8, base=0.01, max_delay=0.2, seed=7)
    fired = set()

    proc, port = spawn_server(data, ready, extra)
    try:
        with ServiceClient(port=port, retry=policy, timeout=10.0) as c:
            acked(c, lambda: c.open(sid, cfg.to_dict()))
            acked(c, lambda: c.open("other", {"max_size": MAX_SIZE}))
            churn_seq = iter(range(10_000))

            def churn(_i):
                # bouncing the competing session through max_live=1
                # exercises evict/rehydrate (and their failpoints)
                n = next(churn_seq)
                acked(c, lambda: c.insert(
                    "other", f"o{n}", 1 + n % MAX_SIZE,
                    idem=f"other.i.o{n}"))

            apply_ops(c, sid, ops[:kill_at], got_placements, churn=churn)
            try:
                c.snapshot(sid)
            except ServiceError:
                pass
            fired |= set(acked(c, c.stats).get("faults", {}).get("fired", {}))
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    # respawn with the same fault plan: recovery itself runs under
    # injected faults (journal.recover.io fires on the first rehydrate)
    proc, port = spawn_server(data, ready, extra)
    try:
        with ServiceClient(port=port, retry=policy, timeout=10.0) as c:
            apply_ops(c, sid, ops[kill_at:], got_placements)
            final = acked(c, lambda: c.query(sid, jobs=True))
            fired |= set(acked(c, c.stats).get("faults", {}).get("fired", {}))
            acked(c, c.shutdown)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()

    # every acknowledged insert -- across faults, drops, degradation and
    # the SIGKILL -- landed exactly where the uninterrupted run put it
    assert got_placements == ref_placements
    assert final["jobs"] == ref_jobs
    assert final["objective"] == ref_objective
    assert final["active"] == len(ref_jobs)
    # and the soak genuinely exercised the fault surface
    assert {"journal.append.io", "journal.roll.io", "journal.recover.io",
            "sessions.evict", "sessions.rehydrate",
            "server.conn.write"} <= fired


# ----------------------------------------------------------------------
# Disk-full on the append path (dedicated ENOSPC failpoint)


def test_enospc_append_is_failure_atomic_and_heals(tmp_path):
    """An injected ENOSPC inside ``Journal.append`` consumes no LSN:
    the op bounces as DEGRADED, the recovery sweep heals the session,
    and the retried insert lands on the LSN the failed append tried."""

    async def main():
        reg = MetricsRegistry()
        m = SessionManager(
            str(tmp_path), fsync="never", registry=reg,
            recover_backoff=0.01, recover_backoff_max=0.05,
        )
        await m.dispatch(req("open", session="s"))
        await m.dispatch(req("insert", session="s", name="a", size=3))
        plan = faults.activate(
            faults.parse_plan("journal.append.enospc=error:ENOSPC@times1")
        )
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("insert", session="s", name="b", size=2))
        assert exc.value.code is ErrorCode.DEGRADED
        assert plan.stats()["fired"] == {"journal.append.enospc": 1}
        # failure-atomic: the journal did not grow past LSN 1
        st = m.stats("s")
        assert st["degraded"]  # the ENOSPC reason string

        # the background sweep heals once the "disk" has space again
        for _ in range(500):
            if m.sessions["s"].degraded is None:
                break
            await asyncio.sleep(0.01)
        assert m.sessions["s"].degraded is None
        ins = await m.dispatch(req("insert", session="s", name="b", size=2))
        assert ins["lsn"] == 2  # the failed append consumed no LSN
        counters = reg.snapshot()["counters"]
        assert counters["service.degraded.entered"] == 1
        assert counters["service.degraded.recovered"] == 1
        await m.shutdown()

        # and the on-disk journal replays to exactly the acked state
        m2 = SessionManager(str(tmp_path), fsync="never")
        q = await m2.dispatch(req("query", session="s", jobs=True))
        assert q["active"] == 2
        assert sorted(j[0] for j in q["jobs"]) == ["a", "b"]
        await m2.shutdown()

    run(main())


# ----------------------------------------------------------------------
# Group commit: one all-or-nothing append per batch


#: One batch: six keyed inserts and a keyed delete of a pre-batch job.
BATCH = [("insert", f"b{k}", 1 + k % 5) for k in range(6)] + [("delete", "p0", None)]


def batch_requests():
    return [
        req(op, session="s", name=name, idem=f"b.{op}.{name}",
            **({"size": size} if size is not None else {}))
        for op, name, size in BATCH
    ]


@pytest.mark.parametrize("point", ["journal.append.fsync", "journal.append.io"])
def test_failed_batch_append_is_all_or_nothing(tmp_path, monkeypatch, point):
    """The one journal append of a multi-op batch fails (its fsync, or
    its write): no op of the batch is acknowledged; once the session
    heals, its memory, its journal and its quorum replica hold the
    pre-batch state; and an idempotent retry applies each op once."""
    appends = []
    real_append = Journal.append_batch

    def spy(journal, recs):
        appends.append((journal.root, len(recs)))
        return real_append(journal, recs)

    monkeypatch.setattr(Journal, "append_batch", spy)
    sdir = str(tmp_path / "primary" / "s")

    def primary_batches():
        return [n for root, n in appends if root == sdir]

    async def main():
        replica = SessionManager(
            str(tmp_path / "replica"), fsync="always", replica_of="primary"
        )
        rsrv = ServiceServer(replica, port=0)
        await rsrv.start()
        m = SessionManager(
            str(tmp_path / "primary"), fsync="always",
            recover_backoff=0.01, recover_backoff_max=0.05,
        )
        m.set_replicator(Replicator([("127.0.0.1", rsrv.tcp_port)], ack_mode="quorum"))
        try:
            await m.dispatch(req("open", session="s", config={"max_size": 16}))
            for k in range(3):
                await m.dispatch(
                    req("insert", session="s", name=f"p{k}", size=k + 1, idem=f"p{k}")
                )
            before = await m.dispatch(req("query", session="s", jobs=True))
            appends.clear()

            # gather admits every write before the worker wakes: one batch
            plan = faults.activate(faults.parse_plan(f"{point}=error:EIO@times1"))
            failed = await asyncio.gather(
                *(m.dispatch(r) for r in batch_requests()), return_exceptions=True
            )
            faults.deactivate()
            assert plan.stats()["fired"] == {point: 1}
            assert primary_batches() == [len(BATCH)]  # one append, all of it
            assert all(
                isinstance(e, ServiceError) and e.code is ErrorCode.DEGRADED
                for e in failed
            ), failed

            for _ in range(500):
                if m.sessions["s"].degraded is None:
                    break
                await asyncio.sleep(0.01)
            assert m.sessions["s"].degraded is None
            # memory, journal and replica: the pre-batch state
            assert await m.dispatch(req("query", session="s", jobs=True)) == before
            assert m.stats("s")["journal"]["last_lsn"] == 3
            assert durable_lsn(sdir) == 3
            assert replica.repl_status()["sessions"] == {"s": 3}
            assert await replica.dispatch(req("query", session="s", jobs=True)) == before

            # the idempotent retry applies each op exactly once
            appends.clear()
            first = await asyncio.gather(*(m.dispatch(r) for r in batch_requests()))
            assert [a["lsn"] for a in first] == list(range(4, 4 + len(BATCH)))
            again = await asyncio.gather(*(m.dispatch(r) for r in batch_requests()))
            assert again == first  # dedup hits: no new records
            assert primary_batches() == [len(BATCH)]
            after = await m.dispatch(req("query", session="s", jobs=True))
            assert sorted(row[0] for row in after["jobs"]) == sorted(
                ["p1", "p2"] + [f"b{k}" for k in range(6)]
            )
            assert replica.repl_status()["sessions"] == {"s": 3 + len(BATCH)}
            assert await replica.dispatch(req("query", session="s", jobs=True)) == after
        finally:
            faults.deactivate()
            await m.shutdown()
            await rsrv.stop()

    run(main())


def test_exit_inside_a_batch_append_keeps_every_acked_op(tmp_path):
    """``journal.append.fsync=exit`` kills the server inside the append
    of a pipelined burst's batch (written, not yet fsynced): none of the
    burst was acknowledged, and the restarted server holds every
    acknowledged op and replays cleanly."""
    data = str(tmp_path / "data")
    ready = str(tmp_path / "ready.json")
    proc, port = spawn_server(
        data, ready, ["--faults", "journal.append.fsync=exit@after3,times1"]
    )
    try:
        with ServiceClient(port=port, timeout=10.0) as c:
            c.open("s", {"max_size": MAX_SIZE})
            acked = [c.insert("s", f"a{k}", k + 1, idem=f"a{k}") for k in range(3)]
        burst = b"".join(
            (json.dumps({"op": "insert", "id": k, "session": "s",
                         "name": f"b{k}", "size": 1 + k % 5}) + "\n").encode()
            for k in range(8)
        )
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(burst)
            got = b""
            try:
                while chunk := sock.recv(65536):
                    got += chunk
            except ConnectionResetError:
                pass
        assert got == b""  # the server died before answering any of it
        assert proc.wait(timeout=30) == 137
    finally:
        if proc.poll() is None:
            proc.kill()

    assert run_fsck([os.path.join(data, "s")]).clean
    proc, port = spawn_server(data, ready)
    try:
        with ServiceClient(port=port, timeout=10.0) as c:
            q = c.query("s", jobs=True)
            c.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
    names = {row[0] for row in q["jobs"]}
    assert {res["placed"]["name"] for res in acked} == {f"a{k}" for k in range(3)}
    assert {f"a{k}" for k in range(3)} <= names
    # What survived of the burst is a prefix of it, and the server holds
    # exactly what replaying the acked ops and that prefix produces.
    survived = sum(f"b{k}" in names for k in range(8))
    ops = [("insert", f"a{k}", k + 1) for k in range(3)]
    ops += [("insert", f"b{k}", 1 + k % 5) for k in range(survived)]
    _, ref_jobs, ref_objective = reference_run(SessionConfig(max_size=MAX_SIZE), ops)
    assert q["jobs"] == ref_jobs
    assert q["objective"] == ref_objective
