"""Cluster layer: placement, rebalance planning, migration, routing.

Covers the pure pieces (rendezvous hashing, the placement map, the
cost-oblivious rebalance planner, the reallocation ledger), the
migration handshake between two independent ``SessionManager``
instances (including the dedup-window carry that makes cross-shard
retries exactly-once), and the cluster clients' MOVED-following against
real in-process servers.
"""

import asyncio
import json
import os
import time

import pytest

from repro.cluster.client import AsyncClusterClient, ClusterClient
from repro.cluster.group import ShardSpec
from repro.cluster.placement import PlacementMap, rendezvous_owner
from repro.cluster.rebalance import (
    Migration,
    ReallocationLedger,
    plan_rebalance,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.client import RetryPolicy
from repro.service.protocol import (
    ErrorCode,
    Request,
    ServiceError,
    error_response,
    result_from_response,
)
from repro.service.server import ServiceServer
from repro.service.sessions import SessionManager
from repro.service.top import render_top


def run(coro):
    return asyncio.run(coro)


def req(op, **kw):
    return Request(op=op, **kw)


SHARDS = ("shard-0", "shard-1", "shard-2")


# ----------------------------------------------------------------------
# Rendezvous hashing + the placement map


def test_rendezvous_deterministic_and_total():
    owners = {f"s{i}": rendezvous_owner(f"s{i}", SHARDS) for i in range(200)}
    assert owners == {
        f"s{i}": rendezvous_owner(f"s{i}", SHARDS) for i in range(200)
    }
    assert set(owners.values()) == set(SHARDS)  # all shards used


def test_rendezvous_minimal_disruption():
    sessions = [f"s{i}" for i in range(500)]
    before = {s: rendezvous_owner(s, SHARDS) for s in sessions}
    grown = SHARDS + ("shard-3",)
    after = {s: rendezvous_owner(s, grown) for s in sessions}
    moved = [s for s in sessions if before[s] != after[s]]
    # Only sessions claimed by the new shard move; everything else stays.
    assert all(after[s] == "shard-3" for s in moved)
    assert 0 < len(moved) < len(sessions) / 2


def test_placement_overrides_and_epoch():
    pm = PlacementMap(SHARDS)
    sid = "alpha"
    home = pm.owner(sid)
    other = next(s for s in SHARDS if s != home)
    pm.assign(sid, other)
    assert pm.owner(sid) == other and pm.epoch == 1
    # Assigning back to the hash owner drops the override entirely.
    pm.assign(sid, home)
    assert pm.overrides == {} and pm.owner(sid) == home
    pm.assign(sid, other)
    pm.clear(sid)
    assert pm.owner(sid) == home
    with pytest.raises(ValueError):
        pm.assign(sid, "nope")


def test_placement_round_trip(tmp_path):
    pm = PlacementMap(SHARDS)
    pm.assign("a", next(s for s in SHARDS if s != pm.owner("a")))
    path = str(tmp_path / "placement.json")
    pm.save(path)
    back = PlacementMap.load(path)
    assert back.to_doc() == pm.to_doc()
    assert back.owner("a") == pm.owner("a")


def test_placement_sessions_on():
    pm = PlacementMap(SHARDS)
    sessions = [f"s{i}" for i in range(50)]
    split = {sh: pm.sessions_on(sh, sessions) for sh in SHARDS}
    assert sorted(sum(split.values(), [])) == sorted(sessions)


# ----------------------------------------------------------------------
# Cost-oblivious rebalance planning


def test_plan_rebalance_moves_toward_mean():
    loads = {
        "shard-0": {"a": 10.0, "b": 8.0, "c": 6.0},
        "shard-1": {"d": 1.0},
        "shard-2": {},
    }
    moves = plan_rebalance(loads, tolerance=0.1)
    assert moves  # badly skewed: something must move
    assert all(m.source == "shard-0" for m in moves)
    # Replay the plan and check the max load actually dropped.
    totals = {s: sum(w.values()) for s, w in loads.items()}
    for m in moves:
        totals[m.source] -= m.weight
        totals[m.target] += m.weight
    assert max(totals.values()) < sum(totals.values())  # sanity
    assert max(totals.values()) < 24.0


def test_plan_rebalance_deterministic_and_balanced_noop():
    loads = {
        "shard-0": {"a": 5.0},
        "shard-1": {"b": 5.0},
    }
    assert plan_rebalance(loads) == []
    skew = {
        "shard-0": {"a": 9.0, "b": 3.0},
        "shard-1": {},
    }
    assert plan_rebalance(skew) == plan_rebalance(skew)


def test_plan_rebalance_max_moves_and_validation():
    loads = {
        "shard-0": {f"s{i}": 2.0 for i in range(10)},
        "shard-1": {},
    }
    capped = plan_rebalance(loads, tolerance=0.0, max_moves=3)
    assert len(capped) == 3
    with pytest.raises(ValueError):
        plan_rebalance(loads, tolerance=-1.0)
    assert plan_rebalance({}) == []


def test_reallocation_ledger_prices_after_the_fact(tmp_path):
    led = ReallocationLedger(str(tmp_path / "realloc.jsonl"))
    assert led.read() == [] and led.summary() == {
        "migrations": 0, "volume": 0.0,
    }
    led.append(
        Migration(session="a", source="shard-0", target="shard-1", weight=3.0),
        volume=12.0, epoch=1,
    )
    led.append(
        Migration(session="b", source="shard-0", target="shard-2", weight=1.0),
        volume=4.0, epoch=2, reason="drain",
    )
    records = led.read()
    assert [r["session"] for r in records] == ["a", "b"]
    assert records[0]["kind"] == "migrate" and records[1]["reason"] == "drain"
    assert led.summary() == {"migrations": 2, "volume": 16.0}
    # The policy never saw a cost function; analysis applies one now.
    assert ReallocationLedger.price(records, lambda v: 1.0) == 2.0
    assert ReallocationLedger.price(records, lambda v: v) == 16.0


def test_reallocation_ledger_survives_a_torn_final_row(tmp_path):
    """A crash mid-append leaves a torn last row: reading drops it, the
    next append starts a line of its own, and only damage with rows
    after it is an error (fsck's ``ledger_torn`` repairs that)."""
    path = str(tmp_path / "realloc.jsonl")
    led = ReallocationLedger(path)
    move = Migration(session="a", source="shard-0", target="shard-1", weight=1.0)
    led.append(move, volume=3.0, epoch=1)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "migr')
    assert led.summary() == {"migrations": 1, "volume": 3.0}
    led.append(move, volume=4.0, epoch=2)
    led.append(move, volume=5.0, epoch=3)
    assert [r["epoch"] for r in led.read()] == [1, 2, 3]
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "migrate", "volume": 1.0}')  # whole, no newline
    led.append(move, volume=6.0, epoch=4)
    assert led.summary() == {"migrations": 5, "volume": 19.0}
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    rows[1] = "garbage"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=r"realloc.jsonl:2: .*followed by more data"):
        led.read()


# ----------------------------------------------------------------------
# MOVED on the wire


def test_moved_error_round_trip():
    resp = error_response(
        7, ErrorCode.MOVED, "session moved", moved="shard-1"
    )
    assert resp["error"]["moved"] == "shard-1"
    with pytest.raises(ServiceError) as ei:
        result_from_response(resp)
    assert ei.value.code is ErrorCode.MOVED
    assert ei.value.moved == "shard-1"


# ----------------------------------------------------------------------
# Migration between two independent managers


async def _drive(m, sid, n, start=0):
    for i in range(start, start + n):
        await m.dispatch(
            req("insert", session=sid, name=f"j{i}", size=i % 5 + 1)
        )


def _managers(tmp_path, **kw):
    a = SessionManager(str(tmp_path / "A"), fsync="never", **kw)
    b = SessionManager(str(tmp_path / "B"), fsync="never", **kw)
    return a, b


async def _migrate(a, b, sid, target="shard-B"):
    out = await a.dispatch(req("migrate_out", session=sid))
    adopted = await b.dispatch(
        req(
            "migrate_in",
            session=sid,
            snapshot=out["snapshot"],
            config=out.get("config"),
        )
    )
    await a.dispatch(req("migrate_seal", session=sid, target=target))
    return out, adopted


def test_migration_preserves_state_exactly(tmp_path):
    async def main():
        a, b = _managers(tmp_path)
        ref = SessionManager(str(tmp_path / "ref"), fsync="never")
        await a.dispatch(req("open", session="s", config={"max_size": 128}))
        await ref.dispatch(req("open", session="s", config={"max_size": 128}))
        await _drive(a, "s", 12)
        await _drive(ref, "s", 12)
        out, adopted = await _migrate(a, b, "s")
        assert adopted["adopted"] is True
        # Continue the exact same tail on both the migrated session and
        # the never-migrated reference.
        await _drive(b, "s", 6, start=12)
        await _drive(ref, "s", 6, start=12)
        moved_q = await b.dispatch(req("query", session="s", jobs=True))
        ref_q = await ref.dispatch(req("query", session="s", jobs=True))
        assert moved_q["active"] == ref_q["active"]
        assert moved_q["jobs"] == ref_q["jobs"]
        await a.shutdown()
        await b.shutdown()
        await ref.shutdown()

    run(main())


def test_sealed_source_answers_moved(tmp_path):
    async def main():
        a, b = _managers(tmp_path)
        await a.dispatch(req("open", session="s"))
        await _drive(a, "s", 3)
        await _migrate(a, b, "s", target="shard-B")
        with pytest.raises(ServiceError) as ei:
            await a.dispatch(req("query", session="s"))
        assert ei.value.code is ErrorCode.MOVED
        assert ei.value.moved == "shard-B"
        # The tombstone is durable: a fresh manager on the same data
        # directory still redirects.
        await a.shutdown()
        a2 = SessionManager(str(tmp_path / "A"), fsync="never")
        with pytest.raises(ServiceError) as ei2:
            await a2.dispatch(req("query", session="s"))
        assert ei2.value.code is ErrorCode.MOVED
        await a2.shutdown()
        await b.shutdown()

    run(main())


def test_dedup_window_survives_migration(tmp_path):
    """A retried idempotent op lands exactly once across the handoff.

    The dedup window travels inside the migration snapshot, so the
    *target* manager -- a different SessionManager instance -- answers
    the retry from cache instead of double-applying it.
    """

    async def main():
        a, b = _managers(tmp_path)
        await a.dispatch(req("open", session="s"))
        first = await a.dispatch(
            req("insert", session="s", name="dup", size=4, idem="carry-1")
        )
        await _migrate(a, b, "s")
        replay = await b.dispatch(
            req("insert", session="s", name="dup", size=4, idem="carry-1")
        )
        assert replay == first  # cached response, not a re-execution
        q = await b.dispatch(req("query", session="s"))
        assert q["active"] == 1
        await a.shutdown()
        await b.shutdown()

    run(main())


def test_migrating_hold_shields_then_expires(tmp_path):
    async def main():
        a = SessionManager(
            str(tmp_path / "A"), fsync="never", migrate_hold=0.05
        )
        await a.dispatch(req("open", session="s"))
        await _drive(a, "s", 4)
        await a.dispatch(req("migrate_out", session="s"))
        # Frozen: the handoff is in flight, callers must back off.
        with pytest.raises(ServiceError) as ei:
            await a.dispatch(req("query", session="s"))
        assert ei.value.code is ErrorCode.RETRY_LATER
        assert ei.value.retry_after is not None
        # Abandoned handoff: past the hold the source resumes authority
        # from its own checkpoint -- nothing was lost.
        await asyncio.sleep(0.08)
        q = await a.dispatch(req("query", session="s"))
        assert q["active"] == 4
        await a.shutdown()

    run(main())


def test_migrate_seal_is_idempotent(tmp_path):
    async def main():
        a, b = _managers(tmp_path)
        await a.dispatch(req("open", session="s"))
        await _drive(a, "s", 2)
        await _migrate(a, b, "s", target="shard-B")
        again = await a.dispatch(
            req("migrate_seal", session="s", target="shard-B")
        )
        assert again["sealed"] is True
        await a.shutdown()
        await b.shutdown()

    run(main())


def test_migrate_out_unknown_session(tmp_path):
    async def main():
        a = SessionManager(str(tmp_path / "A"), fsync="never")
        with pytest.raises(ServiceError) as ei:
            await a.dispatch(req("migrate_out", session="ghost"))
        assert ei.value.code is ErrorCode.NO_SUCH_SESSION
        await a.shutdown()

    run(main())


# ----------------------------------------------------------------------
# Cluster clients against in-process servers


async def _two_servers(tmp_path):
    servers = []
    specs = []
    for i in range(2):
        m = SessionManager(str(tmp_path / f"shard-{i}"), fsync="never")
        srv = ServiceServer(m, port=0)
        await srv.start()
        servers.append(srv)
        specs.append(
            ShardSpec(
                name=f"shard-{i}",
                host="127.0.0.1",
                port=srv.tcp_port,
                data=str(tmp_path / f"shard-{i}"),
            )
        )
    return servers, specs


def test_async_cluster_client_routes_and_pipelines(tmp_path):
    async def main():
        servers, specs = await _two_servers(tmp_path)
        reg = MetricsRegistry()
        async with AsyncClusterClient(
            specs, timeout=10.0, registry=reg
        ) as cc:
            sids = [f"s{i}" for i in range(6)]
            await asyncio.gather(
                *[cc.call("open", session=s) for s in sids]
            )
            await asyncio.gather(
                *[
                    cc.call("insert", session=s, name=f"j{k}", size=1)
                    for s in sids
                    for k in range(5)
                ]
            )
            for s in sids:
                q = await cc.call("query", session=s)
                assert q["active"] == 5
            # Sessions really landed on the shard the map routes to.
            per_shard = {
                sp.name: (await cc.call("stats"))  # sessionless -> shard 0
                for sp in specs[:1]
            }
            assert per_shard  # smoke: sessionless ops route somewhere
            health = await cc.health_all()
            total = sum(h["sessions"] for h in health.values())
            assert total == len(sids)
        snap = reg.snapshot()
        assert snap["counters"]["cluster.ops"] >= len(sids) * 7
        for srv in servers:
            await srv.stop()

    run(main())


def test_async_cluster_client_timeout_is_a_whole_call_budget(tmp_path):
    """A frozen session answers RETRY_LATER with a 1 s hint; under a
    4-attempt policy and ``timeout=0.2`` the call must give up within
    its budget instead of sleeping the hint three times."""

    async def main():
        m = SessionManager(
            str(tmp_path / "shard-0"), fsync="never", retry_after_hint=1.0
        )
        srv = ServiceServer(m, port=0)
        await srv.start()
        spec = ShardSpec(
            name="shard-0", host="127.0.0.1", port=srv.tcp_port,
            data=str(tmp_path / "shard-0"),
        )
        async with AsyncClusterClient(
            [spec], retry=RetryPolicy(attempts=4)
        ) as cc:
            await cc.call("open", session="s")
            await cc.call("migrate_out", session="s")
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as ei:
                await cc.call("query", session="s", timeout=0.2)
            elapsed = time.monotonic() - t0
        assert ei.value.code is ErrorCode.RETRY_LATER
        assert elapsed < 0.5
        await srv.stop()
        await m.shutdown()

    run(main())


def test_async_client_follows_moved(tmp_path):
    async def main():
        servers, specs = await _two_servers(tmp_path)
        reg = MetricsRegistry()
        async with AsyncClusterClient(
            specs, timeout=10.0, registry=reg
        ) as cc:
            await cc.call("open", session="mv")
            await cc.call("insert", session="mv", name="a", size=3)
            src = cc.placement.owner("mv")
            dst = next(sp.name for sp in specs if sp.name != src)
            managers = {
                sp.name: srv.manager
                for sp, srv in zip(specs, servers)
            }
            out = await managers[src].dispatch(
                req("migrate_out", session="mv")
            )
            await managers[dst].dispatch(
                req(
                    "migrate_in",
                    session="mv",
                    snapshot=out["snapshot"],
                    config=out.get("config"),
                )
            )
            await managers[src].dispatch(
                req("migrate_seal", session="mv", target=dst)
            )
            q = await cc.call("query", session="mv")
            assert q["active"] == 1
            assert cc.redirects == 1
            assert cc.placement.owner("mv") == dst
        snap = reg.snapshot()
        assert snap["counters"]["cluster.redirects"] == 1
        for srv in servers:
            await srv.stop()

    run(main())


def test_sync_cluster_client_follows_moved(tmp_path):
    async def main():
        servers, specs = await _two_servers(tmp_path)
        managers = {
            sp.name: srv.manager for sp, srv in zip(specs, servers)
        }

        def drive():
            with ClusterClient(specs, timeout=10.0) as cc:
                cc.call("open", session="mv")
                cc.call("insert", session="mv", name="a", size=2)
                return cc.placement.owner("mv")

        loop = asyncio.get_running_loop()
        src = await loop.run_in_executor(None, drive)
        dst = next(sp.name for sp in specs if sp.name != src)
        out = await managers[src].dispatch(req("migrate_out", session="mv"))
        await managers[dst].dispatch(
            req(
                "migrate_in",
                session="mv",
                snapshot=out["snapshot"],
                config=out.get("config"),
            )
        )
        await managers[src].dispatch(
            req("migrate_seal", session="mv", target=dst)
        )

        def query():
            with ClusterClient(specs, timeout=10.0) as cc:
                q = cc.call("query", session="mv")
                return q, cc.redirects, cc.placement.owner("mv")

        q, redirects, owner = await loop.run_in_executor(None, query)
        assert q["active"] == 1 and redirects == 1 and owner == dst
        for srv in servers:
            await srv.stop()

    run(main())


def test_cluster_client_validation():
    with pytest.raises(ValueError):
        ClusterClient([])
    spec = ShardSpec(name="s", host="h", port=1, data="d")
    with pytest.raises(ValueError):
        ClusterClient([spec, spec])


# ----------------------------------------------------------------------
# Trace sampling


def test_trace_sampling_counts_and_subsets(tmp_path):
    from repro.obs.trace import Tracer, read_trace

    async def main(rate, path):
        reg = MetricsRegistry()
        tracer = Tracer(path, label="service")
        m = SessionManager(
            str(tmp_path / f"d{rate}"), fsync="never",
            registry=reg, tracer=tracer,
        )
        srv = ServiceServer(m, port=0, trace_sample=rate, trace_seed=7)
        await srv.start()
        from repro.service.client import AsyncServiceClient

        async with AsyncServiceClient(port=srv.tcp_port) as c:
            await c.open("s")
            for i in range(40):
                await c.insert("s", f"j{i}", 1)
        await srv.stop()
        tracer.close()
        return reg.snapshot()

    full = str(tmp_path / "full.jsonl")
    snap_full = run(main(1.0, full))
    assert "service.trace.sampled" not in snap_full["counters"]
    ops_full = [
        r for r in read_trace(full) if r.get("name") == "server.op"
    ]
    assert len(ops_full) >= 41  # every op traced at rate 1.0

    half = str(tmp_path / "half.jsonl")
    snap_half = run(main(0.5, half))
    sampled = snap_half["counters"]["service.trace.sampled"]
    skipped = snap_half["counters"]["service.trace.skipped"]
    assert sampled + skipped == 41
    assert 0 < sampled < 41
    ops_half = [
        r for r in read_trace(half)
        if r.get("name") == "server.op" and r.get("type") == "span_start"
    ]
    assert len(ops_half) == sampled
    # Metrics are never sampled: the op counters match the untraced run.
    assert (
        snap_half["counters"]["service.op.count"]
        == snap_full["counters"]["service.op.count"]
    )

    with pytest.raises(ValueError):
        ServiceServer(
            SessionManager(str(tmp_path / "bad"), fsync="never"),
            port=0, trace_sample=1.5,
        )

    run(asyncio.sleep(0))  # keep the loop policy tidy


# ----------------------------------------------------------------------
# repro top --watch journal


def test_render_top_journal_view():
    stats = {
        "uptime_s": 1.0,
        "ops": 9,
        "per_session": [
            {
                "session": "a", "live": True, "ops": 9,
                "journal": {
                    "last_lsn": 12, "appends": 11, "fsyncs": 2,
                    "checkpoints": 1, "segments": 1, "snapshots": 1,
                },
            },
            {"session": "b", "live": False, "ops": 0, "journal": None},
        ],
    }
    frame = render_top(stats, target="x:1", watch="journal")
    assert "lsn" in frame and "appends" in frame
    lines = frame.splitlines()
    row_a = next(ln for ln in lines if ln.strip().startswith("a"))
    assert "12" in row_a and "11" in row_a
    row_b = next(ln for ln in lines if ln.strip().startswith("b"))
    assert "-" in row_b
    # Default view unchanged.
    classic = render_top(stats, target="x:1")
    assert "queue" in classic
    with pytest.raises(ValueError):
        render_top(stats, watch="nope")
