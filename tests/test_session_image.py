"""Every way a session's state moves rebuilds the same session.

A session is rebuilt five ways: crash recovery from the journal alone,
checkpoint + rehydrate, ``migrate_out`` -> ``migrate_in`` into a second
manager, a replica applying the primary's record lines (``repl_apply``)
and a replica seeded by ``repl_install``.  The differential property
drives random insert/delete scripts -- with and without idempotency
keys, retries included -- and checks that every rebuild equals the live
session in ``query(jobs=True)``, in ``Ledger.summary()`` and in the
dedup window (keys, order and values), and that every keyed retry gets
the live answer back.

The pin test fixes one script through every transfer and asserts the
exact journal, eviction, recovery, replication and dedup counters, so a
change that adds a checkpoint, a re-install or a journal write to any
transfer fails here.
"""

import asyncio
import glob
import json
import os
import shutil
import tempfile

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import faults
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import ErrorCode, Request, ServiceError
from repro.service.sessions import SessionManager

SID = "s"
NAMES = 6


def req(op, **kw):
    return Request(op=op, **kw)


def _wire(doc):
    """What a payload looks like after a trip over the wire."""
    return json.loads(json.dumps(doc))


async def _state(m):
    """(query doc, ledger summary, dedup entries) of the session."""
    q = await m.dispatch(req("query", session=SID, jobs=True))
    sess = m.sessions[SID]
    return q, sess.scheduler.ledger.summary(), sess.dedup.entries()


async def _run_script(m, steps):
    """Drive ``steps`` against ``m``; returns the keyed requests sent.

    A step ``("op", name, size, keyed)`` inserts the name when it is
    inactive and deletes it otherwise; ``("retry", j)`` resends the
    ``j``-th keyed request verbatim.  Errors (a retry whose key left the
    window and no longer applies) are part of the script, not failures.
    """
    active = set()
    keyed = []
    for n, step in enumerate(steps):
        if step[0] == "retry":
            if not keyed:
                continue
            r = keyed[step[1] % len(keyed)]
        else:
            _, name_i, size, with_key = step
            name = f"j{name_i}"
            idem = f"k{n}" if with_key else None
            if name in active:
                r = req("delete", session=SID, name=name, idem=idem)
            else:
                r = req("insert", session=SID, name=name, size=size, idem=idem)
            if idem is not None:
                keyed.append(r)
        try:
            await m.dispatch(r)
        except ServiceError:
            pass
        q = await m.dispatch(req("query", session=SID, jobs=True))
        active = {row[0] for row in q["jobs"]}
    return keyed


async def _check_retries(m, keyed, answers):
    """Every key still in the live window answers exactly as live did."""
    for r in keyed:
        if r.idem in answers:
            assert await m.dispatch(r) == answers[r.idem]


async def _rebuild_all(base, steps, p, window):
    cfg = {"max_size": 64, "p": p}
    kw = {"fsync": "never", "dedup_window": window}
    live = SessionManager(os.path.join(base, "live"), **kw)
    await live.dispatch(req("open", session=SID, config=cfg))
    empty_doc, empty_cfg = live._op_repl_snapshot(live.sessions[SID])
    keyed = await _run_script(live, steps)
    want = await _state(live)
    answers = dict(want[2])
    sdir = os.path.join(base, "live", SID)
    lines = []
    for seg in sorted(glob.glob(os.path.join(sdir, "wal-*.seg"))):
        with open(seg, encoding="utf-8") as fh:
            lines.extend(line.rstrip("\n") for line in fh if line.strip())
    managers = [live]

    # 1. crash recovery from the journal alone (no snapshot exists yet)
    assert not glob.glob(os.path.join(sdir, "snap-*.json"))
    shutil.copytree(sdir, os.path.join(base, "crash", SID))
    crash = SessionManager(os.path.join(base, "crash"), **kw)
    managers.append(crash)
    await crash.dispatch(req("open", session=SID))
    assert await _state(crash) == want

    # 2. checkpoint + rehydrate (close checkpoints; open reads it back)
    await crash.dispatch(req("close", session=SID))
    assert glob.glob(os.path.join(base, "crash", SID, "snap-*.json"))
    await crash.dispatch(req("open", session=SID))
    assert crash.sessions[SID].last_recovery["replayed"] == 0
    assert await _state(crash) == want
    await _check_retries(crash, keyed, answers)

    # 4. a replica applying the primary's record lines onto an install
    #    of the empty session
    rep = SessionManager(os.path.join(base, "rep"), replica_of="live", **kw)
    managers.append(rep)
    await rep.dispatch(req("repl_install", session=SID,
                           snapshot=_wire(empty_doc), config=empty_cfg))
    out = await rep.dispatch(req("repl_apply", session=SID, records=lines))
    assert out["lsn"] == live.sessions[SID].journal.last_lsn
    assert await _state(rep) == want

    # 5. a replica seeded by repl_install of the live image
    doc, cfg_doc = live._op_repl_snapshot(live.sessions[SID])
    inst = SessionManager(os.path.join(base, "inst"), replica_of="live", **kw)
    managers.append(inst)
    await inst.dispatch(req("repl_install", session=SID,
                            snapshot=_wire(doc), config=cfg_doc))
    assert await _state(inst) == want
    for m in (rep, inst):
        m.repl_promote(1)
        await _check_retries(m, keyed, answers)

    # 3. migrate_out -> migrate_in into a second manager
    moved = await live.dispatch(req("migrate_out", session=SID))
    tgt = SessionManager(os.path.join(base, "tgt"), **kw)
    managers.append(tgt)
    await tgt.dispatch(req("migrate_in", session=SID,
                           snapshot=_wire(moved["snapshot"]),
                           config=moved["config"]))
    assert await _state(tgt) == want
    await _check_retries(tgt, keyed, answers)
    assert (await _state(tgt))[2] == want[2]  # retries changed nothing

    for m in managers:
        await m.shutdown()


_step = st.one_of(
    st.tuples(
        st.just("op"),
        st.integers(0, NAMES - 1),
        st.integers(1, 16),
        st.booleans(),
    ),
    st.tuples(st.just("retry"), st.integers(0, 1000)),
)


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(_step, min_size=1, max_size=40),
    p=st.sampled_from([1, 4]),
    window=st.sampled_from([2, 1024]),
)
def test_every_rebuild_path_equals_the_live_session(steps, p, window):
    with tempfile.TemporaryDirectory() as base:
        asyncio.run(_rebuild_all(base, steps, p, window))


# ----------------------------------------------------------------------
# The I/O each transfer costs, pinned

#: Counter values of :func:`_pinned_script`, per manager.
PINNED = {
    "primary": {
        "service.journal.appends": 8,
        "service.journal.checkpoints": 3,
        "service.journal.bytes": 538,
        "service.evictions": 2,
        "service.recovery.count": 3,
        "service.recovery.replayed": 0,
        "service.repl.applies": 0,
        "service.repl.installs": 0,
        "service.dedup.hits": 1,
        "service.dedup.evictions": 3,
    },
    "target": {
        "service.journal.appends": 3,
        "service.journal.checkpoints": 2,
        "service.journal.bytes": 206,
        "service.evictions": 0,
        "service.recovery.count": 0,
        "service.recovery.replayed": 0,
        "service.repl.applies": 0,
        "service.repl.installs": 0,
        "service.dedup.hits": 0,
        "service.dedup.evictions": 3,
    },
    "replica": {
        "service.journal.appends": 1,
        "service.journal.checkpoints": 1,
        "service.journal.bytes": 68,
        "service.evictions": 0,
        "service.recovery.count": 0,
        "service.recovery.replayed": 0,
        "service.repl.applies": 1,
        "service.repl.installs": 1,
        "service.dedup.hits": 0,
        "service.dedup.evictions": 0,
    },
}

_PINNED_NAMES = (
    "service.journal.appends",
    "service.journal.checkpoints",
    "service.journal.bytes",
    "service.evictions",
    "service.recovery.count",
    "service.recovery.replayed",
    "service.repl.applies",
    "service.repl.installs",
    "service.dedup.hits",
    "service.dedup.evictions",
)


async def _pinned_script(base):
    regs = {name: MetricsRegistry() for name in PINNED}
    a = SessionManager(os.path.join(base, "a"), fsync="never", max_live=1,
                       dedup_window=4, registry=regs["primary"])
    b = SessionManager(os.path.join(base, "b"), fsync="never",
                       dedup_window=4, recover_backoff=60.0,
                       recover_backoff_max=60.0, registry=regs["target"])
    r = SessionManager(os.path.join(base, "r"), fsync="never",
                       replica_of="b", registry=regs["replica"])

    # open + keyed inserts (the window of 4 evicts two keys) + a retry
    await a.dispatch(req("open", session="s1"))
    for i in range(6):
        await a.dispatch(req("insert", session="s1", name=f"j{i}",
                             size=i + 1, idem=f"k{i}"))
    await a.dispatch(req("insert", session="s1", name="j5", size=6,
                         idem="k5"))
    # evict + rehydrate: with max_live=1, s2 pushes s1 out; the query on
    # s1 queues behind that eviction and rehydrates from its snapshot
    await a.dispatch(req("open", session="s2"))
    await a.dispatch(req("insert", session="s2", name="x", size=2))
    await a.dispatch(req("query", session="s1"))
    await a.dispatch(req("delete", session="s1", name="j0", idem="k6"))
    # migrate_out -> migrate_in
    moved = await a.dispatch(req("migrate_out", session="s1"))
    await b.dispatch(req("migrate_in", session="s1",
                         snapshot=_wire(moved["snapshot"]),
                         config=moved["config"]))
    await a.dispatch(req("migrate_seal", session="s1", target="b"))
    await b.dispatch(req("insert", session="s1", name="j6", size=3,
                         idem="k7"))
    # repl_install, then repl_apply of the next record line
    doc, cfg = b._op_repl_snapshot(b.sessions["s1"])
    await r.dispatch(req("repl_install", session="s1", snapshot=_wire(doc),
                         config=cfg))
    await b.dispatch(req("insert", session="s1", name="j7", size=1,
                         idem="k8"))
    line = b.sessions["s1"].journal.last_lines[-1]
    await r.dispatch(req("repl_apply", session="s1", records=[line]))
    await r.dispatch(req("repl_apply", session="s1", records=[line]))
    # degraded heal: a failed append, then a snapshot heals inline
    faults.activate(faults.parse_plan("journal.append.io=error@times1"))
    try:
        try:
            await b.dispatch(req("insert", session="s1", name="j8", size=2,
                                 idem="k9"))
        except ServiceError:
            pass
        await b.dispatch(req("snapshot", session="s1"))
    finally:
        faults.deactivate()
    await b.dispatch(req("insert", session="s1", name="j8", size=2,
                         idem="k9"))
    counters = {
        name: {c: reg.value(c) for c in _PINNED_NAMES}
        for name, reg in regs.items()
    }
    for m in (a, b, r):
        await m.shutdown()
    return counters


def test_transfer_io_is_pinned(tmp_path):
    got = asyncio.run(_pinned_script(str(tmp_path)))
    assert got == PINNED


# ----------------------------------------------------------------------
# The LSN floor: repl_install adopts it, migrate_in ignores it


def _disk(root):
    """Every file under ``root``: relative path -> bytes."""
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "**"), recursive=True)):
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


async def _floor_script(base):
    src = SessionManager(os.path.join(base, "src"), fsync="never")
    await src.dispatch(req("open", session=SID))
    for i in range(3):
        await src.dispatch(req("insert", session=SID, name=f"j{i}",
                               size=i + 1, idem=f"k{i}"))
    doc, cfg = src._op_repl_snapshot(src.sessions[SID])
    assert doc["service_lsn"] == 3

    # repl_install adopts a valid floor and refuses a malformed one
    # without touching the replica's state
    rep = SessionManager(os.path.join(base, "rep"), fsync="never",
                         replica_of="src")
    out = await rep.dispatch(req("repl_install", session=SID,
                                 snapshot=_wire(doc), config=cfg))
    assert out["lsn"] == 3
    want, files = await _state(rep), _disk(os.path.join(base, "rep"))
    for bad in (-1, "x", None):
        payload = dict(_wire(doc), service_lsn=bad)
        try:
            await rep.dispatch(req("repl_install", session=SID,
                                   snapshot=payload, config=cfg))
        except ServiceError as e:
            assert e.code is ErrorCode.BAD_REQUEST
            assert e.message == "install snapshot lacks a valid service_lsn"
        else:
            raise AssertionError(f"repl_install took service_lsn {bad!r}")
        assert await _state(rep) == want
        assert rep.sessions[SID].journal.last_lsn == 3
        assert _disk(os.path.join(base, "rep")) == files

    # migrate_in keeps the local numbering whatever floor the payload has
    moved = await src.dispatch(req("migrate_out", session=SID))
    tgt = SessionManager(os.path.join(base, "tgt"), fsync="never")
    for floor, lsn in ((999, 0), ("x", 1), (-1, 1)):
        payload = dict(_wire(moved["snapshot"]), service_lsn=floor)
        out = await tgt.dispatch(req("migrate_in", session=SID,
                                     snapshot=payload,
                                     config=moved["config"]))
        assert out == {"adopted": True, "lsn": lsn, "active": 3}
        if floor == 999:
            out = await tgt.dispatch(req("insert", session=SID, name="z",
                                         size=1))
            assert out["lsn"] == 1
    assert tgt.sessions[SID].journal.last_lsn == 1
    for m in (src, rep, tgt):
        await m.shutdown()


def test_lsn_floor_is_read_by_repl_install_only(tmp_path):
    asyncio.run(_floor_script(str(tmp_path)))
