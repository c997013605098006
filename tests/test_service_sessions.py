"""SessionManager: serialization, load shedding, LRU eviction, recovery."""

import asyncio
import os

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import ErrorCode, Request, ServiceError
from repro.service.image import replay_journal_dir
from repro.service.sessions import SessionManager


def run(coro):
    return asyncio.run(coro)


def req(op, **kw):
    return Request(op=op, **kw)


async def insert_many(m, sid, n, start=0):
    for i in range(start, start + n):
        await m.dispatch(req("insert", session=sid, name=f"j{i}", size=i % 7 + 1))


# ----------------------------------------------------------------------
# The op surface


def test_basic_op_cycle(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        opened = await m.dispatch(req("open", session="s"))
        assert opened["created"] is True
        assert opened["active"] == 0
        assert opened["config"]["max_size"] == 1024

        ins = await m.dispatch(req("insert", session="s", name="a", size=3))
        assert ins["lsn"] == 1
        assert ins["placed"]["name"] == "a" and ins["placed"]["size"] == 3
        assert set(ins["placed"]) == {"name", "size", "klass", "start", "server"}

        q = await m.dispatch(req("query", session="s", name="a", jobs=True))
        assert q["active"] == 1
        assert q["volume"] == 3
        assert q["job"]["name"] == "a"
        assert q["jobs"] == [["a", 3, q["job"]["klass"],
                             q["job"]["start"], q["job"]["server"]]]
        assert q["makespan"] >= 3

        snap = await m.dispatch(req("snapshot", session="s"))
        assert snap == {"lsn": 1, "active": 1}

        dele = await m.dispatch(req("delete", session="s", name="a"))
        assert dele["lsn"] == 2 and dele["size"] == 3

        st = m.stats("s")
        assert st["open"] and st["live"] and st["active"] == 0
        assert st["ops"] == 4  # insert + query + snapshot + delete
        assert st["journal"]["last_lsn"] == 2
        assert "ledger" in st and "competitiveness" in st

        closed = await m.dispatch(req("close", session="s"))
        assert closed["closed"] is True and closed["checkpoint_lsn"] == 2
        assert m.live_count() == 0
        await m.shutdown()

    run(main())


def test_error_codes(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("insert", session="nope", name="a", size=1))
        assert exc.value.code is ErrorCode.NO_SUCH_SESSION

        await m.dispatch(req("open", session="s"))
        await m.dispatch(req("insert", session="s", name="a", size=1))
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("insert", session="s", name="a", size=2))
        assert exc.value.code is ErrorCode.DUPLICATE_JOB

        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("delete", session="s", name="ghost"))
        assert exc.value.code is ErrorCode.NO_SUCH_JOB

        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("query", session="s", name="ghost"))
        assert exc.value.code is ErrorCode.NO_SUCH_JOB

        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("open", session="s", config={"p": 2}))
        assert exc.value.code is ErrorCode.SESSION_EXISTS

        with pytest.raises(ServiceError) as exc:
            await m.open("bad id!", None)
        assert exc.value.code is ErrorCode.BAD_REQUEST

        with pytest.raises(ServiceError) as exc:
            m.stats("ghost")
        assert exc.value.code is ErrorCode.NO_SUCH_SESSION
        await m.shutdown()

    run(main())


def test_reopen_is_idempotent(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        first = await m.dispatch(req("open", session="s", config={"p": 2}))
        assert first["created"] is True
        again = await m.dispatch(req("open", session="s", config={"p": 2}))
        assert again["created"] is False
        # config is optional once the session exists
        bare = await m.dispatch(req("open", session="s"))
        assert bare["config"]["p"] == 2
        await m.shutdown()

    run(main())


# ----------------------------------------------------------------------
# Load shedding


def test_shedding_is_exact(tmp_path):
    async def main():
        reg = MetricsRegistry()
        m = SessionManager(
            str(tmp_path), fsync="never", queue_depth=4, registry=reg
        )
        await m.dispatch(req("open", session="s"))
        # All 10 enqueue attempts happen before the worker resumes (each
        # dispatch hits put_nowait synchronously at its first step), so
        # exactly queue_depth are accepted and the rest bounce.
        results = await asyncio.gather(
            *(
                m.dispatch(req("insert", session="s", name=f"j{i}", size=1))
                for i in range(10)
            ),
            return_exceptions=True,
        )
        rejected = [r for r in results if isinstance(r, ServiceError)]
        accepted = [r for r in results if isinstance(r, dict)]
        assert len(accepted) == 4 and len(rejected) == 6
        assert all(r.code is ErrorCode.RETRY_LATER for r in rejected)
        assert all(r.retry_after is not None for r in rejected)
        assert reg.snapshot()["counters"]["service.shed"] == 6
        q = await m.dispatch(req("query", session="s"))
        assert q["active"] == 4
        await m.shutdown()

    run(main())


# ----------------------------------------------------------------------
# Eviction / rehydration / recovery


def test_lru_eviction_and_rehydration(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never", max_live=2)
        for i in range(2):
            await m.dispatch(req("open", session=f"s{i}"))
            await insert_many(m, f"s{i}", 3)
        before = m.stats("s0")
        # the third live session pushes the LRU one (s0) out
        await m.dispatch(req("open", session="s2"))
        await m.sessions["s0"].queue.join()  # eviction rides s0's queue
        assert m.live_count() == 2
        assert m.sessions["s0"].live is False
        assert m.sessions["s1"].live and m.sessions["s2"].live
        # ... but it is still open, and the next op rehydrates it
        q = await m.dispatch(req("query", session="s0"))
        assert q["active"] == 3
        rec = m.sessions["s0"].last_recovery
        assert rec["from_snapshot"] is True and rec["replayed"] == 0
        after = m.stats("s0")
        # exact accounting across evict/rehydrate: ledger rides the snapshot
        assert after["ledger"] == before["ledger"]
        assert after["objective"] == before["objective"]
        await m.shutdown()

    run(main())


def test_close_then_reopen_recovers_state(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        await m.dispatch(req("open", session="s", config={"p": 2, "max_size": 32}))
        await insert_many(m, "s", 8)
        await m.dispatch(req("delete", session="s", name="j3"))
        want = await m.dispatch(req("query", session="s", jobs=True))
        before = m.stats("s")
        await m.dispatch(req("close", session="s"))
        assert "s" not in m.sessions
        assert m.session_ids_on_disk() == ["s"]

        opened = await m.dispatch(req("open", session="s"))
        assert opened["created"] is False
        assert opened["recovery"]["from_snapshot"] is True
        assert opened["config"] == {"max_size": 32, "delta": 0.5,
                                    "p": 2, "dynamic": False}
        got = await m.dispatch(req("query", session="s", jobs=True))
        assert got == want
        assert m.stats("s")["ledger"] == before["ledger"]
        await m.shutdown()

    run(main())


def test_tail_replay_without_snapshot(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        await m.dispatch(req("open", session="s"))
        await insert_many(m, "s", 5)
        want = await m.dispatch(req("query", session="s", jobs=True))
        # drop the in-memory state WITHOUT checkpointing: replay the WAL
        sess = m.sessions["s"]
        assert sess.journal is not None
        sess.journal.close()
        sess.scheduler = None
        sess.journal = None
        got = await m.dispatch(req("query", session="s", jobs=True))
        assert got == want
        rec = m.sessions["s"].last_recovery
        assert rec["from_snapshot"] is False and rec["replayed"] == 5
        await m.shutdown()

    run(main())


def test_corrupt_journal_surfaces_as_service_error(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        await m.dispatch(req("open", session="s"))
        await insert_many(m, "s", 2)
        await m.dispatch(req("close", session="s"))
        # the snapshot is now the only copy of LSNs 1-2; corrupt it
        sdir = os.path.join(str(tmp_path), "s")
        snaps = [f for f in os.listdir(sdir) if f.startswith("snap-")]
        with open(os.path.join(sdir, snaps[0]), "w", encoding="utf-8") as fh:
            fh.write("{broken")
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("open", session="s"))
        assert exc.value.code is ErrorCode.JOURNAL_CORRUPT
        await m.shutdown()

    run(main())


# ----------------------------------------------------------------------
# Shutdown


def test_shutdown_checkpoints_and_rejects(tmp_path):
    async def main():
        m = SessionManager(str(tmp_path), fsync="never")
        for i in range(3):
            await m.dispatch(req("open", session=f"s{i}"))
            await insert_many(m, f"s{i}", 2)
        res = await m.shutdown()
        assert res == {"checkpointed": 3}
        assert m.sessions == {}
        with pytest.raises(ServiceError) as exc:
            await m.dispatch(req("open", session="late"))
        assert exc.value.code is ErrorCode.SHUTTING_DOWN
        # global stats still serve (read-only), sessions survive on disk
        assert m.stats()["sessions"] == {
            "open": 0, "live": 0, "on_disk": 3, "degraded": 0,
        }

    run(main())


# ----------------------------------------------------------------------
# Offline replay


def test_replay_journal_dir_matches_live_state(tmp_path):
    root = str(tmp_path)

    async def main():
        m = SessionManager(root, fsync="never")
        await m.dispatch(req("open", session="a"))
        await insert_many(m, "a", 6)
        await m.dispatch(req("delete", session="a", name="j1"))
        await m.dispatch(req("open", session="b", config={"p": 3}))
        await insert_many(m, "b", 4)
        live = {
            "a": await m.dispatch(req("query", session="a")),
            "b": await m.dispatch(req("query", session="b")),
        }
        await m.shutdown()
        return live

    live = run(main())
    reg, infos = replay_journal_dir(root)
    assert [i["session"] for i in infos] == ["a", "b"]
    by_sid = {i["session"]: i for i in infos}
    for sid in ("a", "b"):
        assert by_sid[sid]["active"] == live[sid]["active"]
        assert by_sid[sid]["objective"] == live[sid]["objective"]
    assert by_sid["b"]["config"]["p"] == 3
    assert reg.snapshot()["counters"]["service.recovery.count"] == 2

    # a single session directory works too
    _, solo = replay_journal_dir(os.path.join(root, "a"))
    assert len(solo) == 1 and solo[0]["session"] == "a"

    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError):
        replay_journal_dir(str(tmp_path / "empty"))


def test_replay_journal_dir_skips_tombstoned_sessions(tmp_path):
    """A migrated-away session dir is a tombstone, not a journal; the
    offline report surfaces it as ``skipped_moved`` instead of failing
    (or replaying state that now lives on another shard)."""
    root = str(tmp_path)

    async def main():
        a = SessionManager(root, fsync="never")
        b = SessionManager(str(tmp_path / "elsewhere"), fsync="never")
        await a.dispatch(req("open", session="stay"))
        await insert_many(a, "stay", 3)
        await a.dispatch(req("open", session="gone"))
        await insert_many(a, "gone", 5)
        out = await a.dispatch(req("migrate_out", session="gone"))
        await b.dispatch(req(
            "migrate_in", session="gone",
            snapshot=out["snapshot"], config=out.get("config"),
        ))
        await a.dispatch(req("migrate_seal", session="gone", target="shard-B"))
        await a.shutdown()
        await b.shutdown()

    run(main())
    _, infos = replay_journal_dir(root)
    by_sid = {i["session"]: i for i in infos}
    assert set(by_sid) == {"stay", "gone"}
    assert by_sid["stay"]["active"] == 3
    assert "skipped_moved" not in by_sid["stay"]
    assert by_sid["gone"]["skipped_moved"] is True
    assert by_sid["gone"]["moved_to"] == "shard-B"

    # pointing straight at the tombstoned dir skips it too
    _, direct = replay_journal_dir(str(tmp_path / "gone"))
    assert direct == [
        {"session": "gone", "skipped_moved": True, "moved_to": "shard-B"}
    ]
