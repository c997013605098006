"""The session cache-miss path: LRU eviction and rehydration.

An LRU eviction checkpoints only once the records the session's
rehydrations have replayed since its last checkpoint, plus the journal
tail the next one would replay, reach the smaller of one checkpoint's
cost in replayed records (``16 + jobs // 20``) and the image's size
(``max(1, jobs)``); otherwise it closes the journal and drops the
scheduler.  The differential property drives random keyed/unkeyed
insert/delete scripts with retries over three sessions and checks that
a manager with ``max_live=1`` answers exactly as one that never evicts,
before and after it is dropped without a shutdown and reopened, and
that after every eviction each evicted session is below that threshold.

The work a cache miss costs is pinned too: one ``decode_record`` per
on-disk record, one ``SingleServerScheduler`` build per server, and a
checkpoint encoder that writes the bytes ``json.dump`` wrote.
"""

import asyncio
import glob
import io
import json
import os
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core import ParallelScheduler, SingleServerScheduler
from repro.core.snapshot import restore_parallel, snapshot_parallel
from repro.obs.metrics import MetricsRegistry
from repro.recovery.fsck import run_fsck
from repro.service import journal as journal_mod
from repro.service.image import SessionImage
from repro.service.journal import (
    Journal,
    durable_lsn,
    segment_files,
    snapshot_files,
    write_json_durable,
)
from repro.service.protocol import Request, ServiceError
from repro.service.sessions import SessionManager
from tests.conftest import drive_scheduler

SIDS = ("a", "b", "c")
NAMES = 5


def req(op, **kw):
    return Request(op=op, **kw)


async def _answer(m, r):
    """The answer, or the error code, a request gets."""
    try:
        return await m.dispatch(r)
    except ServiceError as e:
        return ("error", e.code)


def _disk_tail(sdir):
    """Records past the newest snapshot, read from disk."""
    snaps = snapshot_files(sdir)
    return durable_lsn(sdir) - (snaps[-1][0] if snaps else 0)


def _below_threshold(sess, jobs):
    """The eviction rule's inequality, for an evicted session."""
    owed = sess.replayed + _disk_tail(sess.root)
    return owed < min(max(1, jobs), 16 + jobs // 20)


async def _settle(m):
    """Let every queued eviction run."""
    for sess in list(m.sessions.values()):
        await sess.queue.join()


def _check_rule(m, jobs):
    """Every evicted session is below the eviction rule's threshold."""
    for sid, sess in m.sessions.items():
        if not sess.live:
            assert _below_threshold(sess, jobs[sid]), sid


async def _final(m):
    """Per session: placements and ledger totals."""
    out = {}
    for sid in SIDS:
        q = await m.dispatch(req("query", session=sid, jobs=True))
        out[sid] = (q, m.sessions[sid].scheduler.ledger.summary())
    return out


async def _dedup_hits(m, keyed, window):
    """Answers to every keyed request still in the reference's window."""
    return [await _answer(m, r) for r in keyed if r.idem in window[r.session]]


def _drop(m):
    """Abandon a manager the way a crash does: no checkpoint, no
    shutdown; the workers stop and the file handles close."""
    for sess in m.sessions.values():
        if sess.worker is not None:
            sess.worker.cancel()
        if sess.journal is not None:
            sess.journal.close()


async def _differential(base, steps, p):
    kw = {"fsync": "never", "dedup_window": 4}
    ref = SessionManager(os.path.join(base, "ref"), **kw)
    miss = SessionManager(os.path.join(base, "miss"), max_live=1, **kw)
    for m in (ref, miss):
        for sid in SIDS:
            await m.dispatch(req("open", session=sid,
                                 config={"max_size": 64, "p": p}))
    active = {sid: set() for sid in SIDS}
    keyed = []
    for n, step in enumerate(steps):
        if step[0] == "retry":
            if not keyed:
                continue
            r = keyed[step[1] % len(keyed)]
        else:
            _, s_i, name_i, size, with_key = step
            sid, name = SIDS[s_i], f"j{name_i}"
            idem = f"k{n}" if with_key else None
            if name in active[sid]:
                r = req("delete", session=sid, name=name, idem=idem)
            else:
                r = req("insert", session=sid, name=name, size=size, idem=idem)
            if idem is not None:
                keyed.append(r)
        want = await _answer(ref, r)
        assert await _answer(miss, r) == want, (n, r)
        sched = ref.sessions[r.session].scheduler
        active[r.session] = {pj.name for pj in sched.jobs()}
        await _settle(miss)
        _check_rule(miss, {sid: len(active[sid]) for sid in SIDS})
    want = await _final(ref)
    window = {sid: dict(ref.sessions[sid].dedup.entries()) for sid in SIDS}
    hits = await _dedup_hits(ref, keyed, window)
    assert await _final(miss) == want
    assert await _dedup_hits(miss, keyed, window) == hits

    _drop(miss)
    back = SessionManager(os.path.join(base, "miss"), max_live=1, **kw)
    for sid in SIDS:
        await back.dispatch(req("open", session=sid))
    assert await _final(back) == want
    assert await _dedup_hits(back, keyed, window) == hits
    for m in (ref, back):
        await m.shutdown()


_step = st.one_of(
    st.tuples(
        st.just("op"),
        st.integers(0, len(SIDS) - 1),
        st.integers(0, NAMES - 1),
        st.integers(1, 64),
        st.booleans(),
    ),
    st.tuples(st.just("retry"), st.integers(0, 1000)),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_step, min_size=1, max_size=50), p=st.sampled_from([1, 4]))
def test_max_live_one_answers_as_a_manager_that_never_evicts(steps, p):
    with tempfile.TemporaryDirectory() as base:
        asyncio.run(_differential(base, steps, p))


def test_alternating_writes_keep_a_bounded_tail(tmp_path):
    """Two p=4 sessions over a one-session cache, 40 alternating
    inserts: each rehydration replays its session's tail and adds one
    record and one segment, so the rule checkpoints 10 times in 41
    evictions, every evicted session stays below the threshold, and
    each session ends as a snapshot plus 5 tail segments, which fsck
    calls clean."""

    async def main():
        reg = MetricsRegistry()
        m = SessionManager(str(tmp_path), fsync="never", max_live=1, registry=reg)
        for sid in ("a", "b"):
            await m.dispatch(req("open", session=sid,
                                 config={"max_size": 64, "p": 4}))
        for k in range(40):
            sid = "ab"[k % 2]
            await m.dispatch(req("insert", session=sid, name=f"j{k}", size=1 + k))
            await _settle(m)
            _check_rule(m, {"a": (k + 2) // 2, "b": (k + 1) // 2})
        assert reg.value("service.evictions") == 41
        assert reg.value("service.journal.checkpoints") == 10
        # a healthy evicted session: a snapshot plus tail segments
        for sid in ("a", "b"):
            sdir = m.sessions[sid].root
            [_, (snap_lsn, _)] = snapshot_files(sdir)
            assert snap_lsn == 15
            assert [start for start, _ in segment_files(sdir)] == [16, 17, 18, 19, 20]
        assert run_fsck([str(tmp_path)]).clean
        # the tail stat is what the next rehydration replays
        await m.dispatch(req("query", session="a"))
        tail = m.stats("a")["journal"]["tail"]
        assert tail == m.sessions["a"].last_recovery["replayed"] == 5
        await m.shutdown()

    asyncio.run(main())


async def _misses(m, sid, other, reads):
    """``reads`` read-only cache misses on ``sid``, each after a touch of
    ``other`` evicts it; the records each miss replayed."""
    replayed = []
    for _ in range(reads):
        await m.dispatch(req("query", session=other))
        await _settle(m)
        await m.dispatch(req("query", session=sid))
        replayed.append(m.sessions[sid].last_recovery["replayed"])
    return replayed


def test_read_only_misses_pay_for_a_checkpoint(tmp_path):
    """A session snapshotted at 40 jobs takes inserts in one live period,
    then only reads.  Its evictions skip the checkpoint while the replay
    owed is below ``min(jobs, 16 + jobs // 20)``; the replay its
    read-only misses pay counts toward that, so they stop replaying
    after one miss, and a bulk load past the snapshot is checkpointed at
    its first eviction."""

    async def main():
        reg = MetricsRegistry()
        m = SessionManager(str(tmp_path), fsync="never", max_live=1, registry=reg)
        for sid in ("a", "b"):
            await m.dispatch(req("open", session=sid,
                                 config={"max_size": 1024, "p": 4}))
        await m.dispatch(req("query", session="a"))
        for k in range(40):
            await m.dispatch(req("insert", session="a", name=f"j{k}", size=1 + k))
        await m.dispatch(req("snapshot", session="a"))
        for k in range(40, 50):  # 10 records past the snapshot, 50 jobs
            await m.dispatch(req("insert", session="a", name=f"j{k}", size=1 + k))
        # 10 < 18: skipped; 10 replayed + 10 owed >= 18: checkpointed
        assert await _misses(m, "a", "b", 3) == [10, 0, 0]
        assert reg.value("service.journal.checkpoints") == 2
        for k in range(50, 150):  # a bulk load: 100 records, 150 jobs
            await m.dispatch(req("insert", session="a", name=f"j{k}", size=1 + k % 61))
        # 100 >= 16 + 150 // 20: checkpointed at the first eviction
        assert await _misses(m, "a", "b", 2) == [0, 0]
        assert reg.value("service.journal.checkpoints") == 3
        await m.shutdown()

    asyncio.run(main())


def test_rehydration_decodes_each_record_once(tmp_path, monkeypatch):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never", max_live=1)
        await m.dispatch(req("open", session="a", config={"max_size": 64, "p": 4}))
        for k in range(30):
            await m.dispatch(req("insert", session="a", name=f"j{k}", size=1 + k))
        await m.dispatch(req("open", session="b"))  # a checkpoints: 30 >= 17
        for k in range(5):
            # each write rehydrates its session: one record and one
            # segment past a's snapshot per round; a owes 15 < 17 replays
            await m.dispatch(req("delete", session="a", name=f"j{k}"))
            await m.dispatch(req("insert", session="b", name=f"j{k}", size=1))
        await _settle(m)
        sdir = m.sessions["a"].root
        assert not m.sessions["a"].live and snapshot_files(sdir)
        on_disk = 0
        for path in glob.glob(os.path.join(sdir, "wal-*.seg")):
            with open(path, encoding="utf-8") as fh:
                on_disk += sum(1 for line in fh if line.strip())
        assert on_disk == 5 and len(segment_files(sdir)) == 5

        calls = []
        real = journal_mod.decode_record

        def counting(line):
            calls.append(line)
            return real(line)

        monkeypatch.setattr(journal_mod, "decode_record", counting)
        await m.dispatch(req("query", session="a"))
        monkeypatch.undo()
        assert len(calls) == on_disk
        assert m.sessions["a"].last_recovery["replayed"] == on_disk
        await m.shutdown()

    asyncio.run(main())


def test_restore_parallel_builds_each_server_once(monkeypatch):
    p = 4
    sched = ParallelScheduler(p, 64, delta=0.5)
    drive_scheduler(sched, 200, 64, seed=3)
    snap = json.loads(json.dumps(snapshot_parallel(sched, include_ledger=True)))
    builds = []
    real = SingleServerScheduler.__init__

    def counting(self, *args, **kw):
        builds.append(kw.get("server"))
        real(self, *args, **kw)

    monkeypatch.setattr(SingleServerScheduler, "__init__", counting)
    back = restore_parallel(snap)
    monkeypatch.undo()
    assert builds == list(range(p))
    assert back.p == p and len(back.servers) == p
    assert snapshot_parallel(back, include_ledger=True) == snap


def _images():
    single = SingleServerScheduler(64, delta=0.5)
    drive_scheduler(single, 150, 64, seed=5)
    single.insert("jé-☃", 7)  # escaped the same way by both encoders
    par = ParallelScheduler(4, 64, delta=0.5)
    drive_scheduler(par, 150, 64, seed=6)
    dedup = [("k1", {"lsn": 1, "size": 3}), ("k2", {"lsn": 2, "placed": {}})]
    return [SessionImage(s, dedup).encode() for s in (single, par)]


def test_checkpoint_writes_the_bytes_json_dump_wrote(tmp_path):
    for n, doc in enumerate(_images()):
        buf = io.StringIO()
        json.dump(doc, buf, sort_keys=True)
        want = buf.getvalue().encode("utf-8")
        root = str(tmp_path / f"j{n}")
        with Journal(root, fsync="never") as j:
            j.append("insert", "x", 1)
            j.checkpoint(doc)
        [(_, snap)] = snapshot_files(root)
        with open(snap, "rb") as fh:
            assert fh.read() == want
        path = str(tmp_path / f"marker{n}.json")
        write_json_durable(path, doc)
        with open(path, "rb") as fh:
            assert fh.read() == want
