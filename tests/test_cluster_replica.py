"""Replicated shards: journal shipping, quorum acks, failover.

In-process coverage of the replication stream (``repl_apply`` tail
shipping, ``repl_install`` catch-up, quorum vs async ack modes, the
promote/fence cycle, the ``replica.stream.drop`` failpoint) plus two
end-to-end properties:

* a ``server.conn.partition`` against one shard of a pipelined
  :class:`AsyncClusterClient` fails exactly the partitioned
  connection's in-flight ops -- wire-id matching never mispairs the
  healthy shard's responses;
* a subprocess :class:`ShardGroup` with ``--replicas 2 --ack-mode
  quorum`` survives a SIGKILL of the primary -- at a seeded random op
  and under each replication failpoint -- with zero acked-write loss,
  an exact differential against an uninterrupted reference replay,
  a fenced ex-primary, and the promotion in the reallocation ledger.
"""

import asyncio
import os
import random
import time

import pytest

from repro import faults
from repro.cli import main
from repro.cluster.client import AsyncClusterClient, ClusterClient
from repro.cluster.group import ShardGroup, ShardSpec
from repro.cluster.placement import PlacementMap
from repro.cluster.rebalance import REALLOC_FILE, ReallocationLedger, migrate_session
from repro.obs.metrics import MetricsRegistry
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.protocol import ErrorCode, Request, ServiceError
from repro.service.replica import Replicator, parse_targets
from repro.service.server import ServiceServer
from repro.service.sessions import SessionManager


def run(coro):
    return asyncio.run(coro)


def req(op, **kw):
    return Request(op=op, **kw)


@pytest.fixture(autouse=True)
def _no_faults():
    yield
    faults.deactivate()


# ----------------------------------------------------------------------
# parse_targets


def test_parse_targets():
    assert parse_targets("127.0.0.1:9001") == [("127.0.0.1", 9001)]
    assert parse_targets(" a:1 , b:2 ,") == [("a", 1), ("b", 2)]
    for bad in ("", "noport", ":7", "host:notaport"):
        with pytest.raises(ValueError):
            parse_targets(bad)


# ----------------------------------------------------------------------
# The replication stream against in-process servers


class _Replicated:
    """A primary shipping to N in-process replica servers."""

    def __init__(self, tmp_path, replicas=1, ack_mode="quorum",
                 registry=None, primary_registry=None):
        self.tmp_path = tmp_path
        self.replicas = replicas
        self.ack_mode = ack_mode
        self.registry = registry
        self.primary_registry = primary_registry
        self.servers = []
        self.replica_mgrs = []
        self.primary = None
        self.repl = None

    async def __aenter__(self):
        targets = []
        for i in range(self.replicas):
            rm = SessionManager(
                str(self.tmp_path / f"r{i}"), fsync="never",
                replica_of="primary", registry=self.registry,
            )
            srv = ServiceServer(rm, port=0)
            await srv.start()
            self.replica_mgrs.append(rm)
            self.servers.append(srv)
            targets.append(("127.0.0.1", srv.tcp_port))
        self.primary = SessionManager(
            str(self.tmp_path / "primary"), fsync="never",
            registry=self.primary_registry,
        )
        self.repl = Replicator(
            targets, ack_mode=self.ack_mode, timeout=5.0,
            registry=self.primary_registry,
        )
        self.primary.set_replicator(self.repl)
        return self

    async def __aexit__(self, *exc):
        await self.primary.shutdown()  # also closes the replicator
        for srv in self.servers:
            await srv.stop()
        for rm in self.replica_mgrs:
            await rm.shutdown()


def test_ship_and_replica_state(tmp_path):
    async def main():
        reg = MetricsRegistry()
        async with _Replicated(tmp_path, primary_registry=reg) as env:
            p, (r,) = env.primary, env.replica_mgrs
            await p.dispatch(req("open", session="sa"))
            for k in range(5):
                await p.dispatch(
                    req("insert", session="sa", name=f"j{k}", size=k + 1)
                )
            await p.dispatch(req("delete", session="sa", name="j0"))
            # Replica holds a byte-identical replay: same LSN, same doc.
            st = r.repl_status()
            assert st["replica_of"] == "primary" and not st["fenced"]
            assert st["sessions"] == {"sa": 6} and st["total"] == 6
            qa = await p.dispatch(req("query", session="sa", jobs=True))
            qb = await r.dispatch(req("query", session="sa", jobs=True))
            assert qa == qb
            # Reads pass on the replica; writes answer MOVED(primary).
            with pytest.raises(ServiceError) as ei:
                await r.dispatch(req("insert", session="sa", name="x", size=1))
            assert ei.value.code is ErrorCode.MOVED
            assert ei.value.moved == "primary"
            assert env.repl.ships >= 6 and env.repl.installs <= 1
            assert reg.value("cluster.replica.lag") == 0.0
            doc = env.repl.status()
            assert doc["need"] == 1 and not doc["links"][0]["behind"]

    run(main())


def test_catchup_install_carries_config_and_dedup(tmp_path):
    """A replica attached after the fact is seeded by ``repl_install``:
    one snapshot carries the scheduler state, the session config, and
    the dedup window, so a later promotion answers retries exactly."""

    async def main():
        async with _Replicated(tmp_path) as env:
            p, (r,) = env.primary, env.replica_mgrs
            env.primary.replicator = None  # history predates the replica
            await p.dispatch(
                req("open", session="sa", config={"max_size": 32})
            )
            first = await p.dispatch(
                req("insert", session="sa", name="j0", size=4, idem="k0")
            )
            for k in range(1, 4):
                await p.dispatch(
                    req("insert", session="sa", name=f"j{k}", size=1)
                )
            p.set_replicator(env.repl)
            last = await p.dispatch(
                req("insert", session="sa", name="j4", size=2, idem="k4")
            )
            # The tail could not bridge LSN 0 -> 5: install path taken.
            assert env.repl.installs == 1
            assert r.repl_status()["sessions"] == {"sa": 5}
            # Promote the replica and replay both idempotency keys: the
            # shipped dedup window must answer with the original docs.
            assert r.repl_promote(2)["epoch"] == 2
            assert r.health()["role"] == "primary"
            again = await r.dispatch(
                req("insert", session="sa", name="j0", size=4, idem="k0")
            )
            assert again == first
            again = await r.dispatch(
                req("insert", session="sa", name="j4", size=2, idem="k4")
            )
            assert again == last
            q = await r.dispatch(req("query", session="sa"))
            assert q["active"] == 5  # replays deduped, not re-applied

    run(main())


def test_quorum_blocks_async_does_not(tmp_path):
    """With every replica unreachable, quorum mode fails the op with
    ``retry_later`` while async mode acks locally and marks the link
    behind."""

    async def main():
        # A port that nothing listens on: bind-and-release.
        import socket

        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()

        for mode in ("quorum", "async"):
            m = SessionManager(str(tmp_path / mode), fsync="never")
            m.set_replicator(Replicator([("127.0.0.1", port)], ack_mode=mode))
            await m.dispatch(req("open", session="sa"))
            if mode == "quorum":
                with pytest.raises(ServiceError) as ei:
                    await m.dispatch(
                        req("insert", session="sa", name="a", size=1)
                    )
                assert ei.value.code is ErrorCode.RETRY_LATER
                assert ei.value.retry_after is not None
            else:
                res = await m.dispatch(
                    req("insert", session="sa", name="a", size=1)
                )
                assert res["lsn"] == 1  # acked without the replica
            await m.shutdown()

    run(main())


def test_promote_fence_cycle(tmp_path):
    """The failover sequence, distilled: fence the old primary, promote
    the replica, and the fence steers stale writes to the winner."""

    async def main():
        reg = MetricsRegistry()
        async with _Replicated(tmp_path, primary_registry=reg) as env:
            p, (r,) = env.primary, env.replica_mgrs
            await p.dispatch(req("open", session="sa"))
            await p.dispatch(req("insert", session="sa", name="j0", size=2))
            # The failover driver's moves, in order.
            p._write_marker("fence.json", {"epoch": 1, "promoted": "r0"})
            assert r.repl_promote(1) == {"promoted": True, "epoch": 1}
            # Stale primary: reads fine, writes MOVED toward the winner.
            q = await p.dispatch(req("query", session="sa"))
            assert q["active"] == 1
            with pytest.raises(ServiceError) as ei:
                await p.dispatch(req("insert", session="sa", name="x", size=1))
            assert ei.value.code is ErrorCode.MOVED
            assert ei.value.moved == "r0"
            assert reg.value("cluster.replica.fence_refusals") == 1
            # The winner is a real primary now.
            assert r.health()["role"] == "primary"
            res = await r.dispatch(
                req("insert", session="sa", name="j1", size=1)
            )
            assert res["lsn"] == 2
            # Re-promotion at a later epoch clears the old fence: the
            # cycle can run the other way.
            r._write_marker("fence.json", {"epoch": 2, "promoted": "primary"})
            promoted_back = p.repl_promote(2)
            assert promoted_back["epoch"] == 2
            assert r.repl_promote(1)["noop"] is True  # stale epoch

    run(main())


def test_stream_drop_failpoint_heals_via_dedup(tmp_path):
    """``replica.stream.drop`` severs one ship: the op fails with
    ``retry_later``; the client's retry is a dedup hit that re-ships
    after the link backoff, converging the replica."""

    async def main():
        async with _Replicated(tmp_path) as env:
            p, (r,) = env.primary, env.replica_mgrs
            await p.dispatch(req("open", session="sa"))
            faults.activate(
                faults.parse_plan("replica.stream.drop=drop@times1")
            )
            with pytest.raises(ServiceError) as ei:
                await p.dispatch(
                    req("insert", session="sa", name="j0", size=3, idem="k")
                )
            assert ei.value.code is ErrorCode.RETRY_LATER
            faults.deactivate()
            await asyncio.sleep(0.6)  # outlive the link backoff
            res = await p.dispatch(
                req("insert", session="sa", name="j0", size=3, idem="k")
            )
            assert res["lsn"] == 1  # the dedup hit, now quorum-durable
            assert r.repl_status()["sessions"] == {"sa": 1}

    run(main())


# ----------------------------------------------------------------------
# Partitioned connection vs pipelined in-flight ops (AsyncClusterClient)


def test_partition_fails_only_that_connections_inflight_ops(tmp_path):
    """``server.conn.partition`` silences one shard connection under a
    pipelined client: every in-flight op on that connection fails, every
    op pipelined to the healthy shard completes -- and wire-id matching
    pairs each response with its own request (the placed doc echoes the
    request's name/size).  A fresh call after the partition reconnects
    and succeeds."""

    async def main():
        regs = [MetricsRegistry(), MetricsRegistry()]
        servers, specs = [], []
        for i in range(2):
            m = SessionManager(
                str(tmp_path / f"shard-{i}"), fsync="never", registry=regs[i]
            )
            srv = ServiceServer(m, port=0)
            await srv.start()
            servers.append(srv)
            specs.append(ShardSpec(
                name=f"shard-{i}", host="127.0.0.1", port=srv.tcp_port,
                data=str(tmp_path / f"shard-{i}"),
            ))
        placement = PlacementMap([s.name for s in specs])
        placement.assign("sa", "shard-0")
        placement.assign("sb", "shard-1")
        try:
            async with AsyncClusterClient(
                specs, placement=placement, timeout=1.5, retry=None
            ) as cc:
                # Warm both pipes before arming the fault, so the
                # partition lands on an established connection.
                await cc.call("open", session="sa")
                await cc.call("open", session="sb")
                faults.activate(
                    faults.parse_plan("server.conn.partition=drop@times1")
                )
                # Fire the one-shot deterministically on shard-0's pipe:
                # this response write trips the fault and the connection
                # goes silent (the server keeps executing, never answers).
                victim = asyncio.ensure_future(cc.call(
                    "insert", session="sa", name="v", size=1, idem="v"
                ))
                await asyncio.sleep(0.2)
                a_ops = [
                    cc.call("insert", session="sa", name=f"a{k}", size=1,
                            idem=f"a{k}")
                    for k in range(8)
                ]
                b_ops = [
                    cc.call("insert", session="sb", name=f"b{k}", size=k + 1,
                            idem=f"b{k}")
                    for k in range(8)
                ]
                results = await asyncio.gather(
                    victim, *a_ops, *b_ops, return_exceptions=True
                )
                failed, healthy = results[:9], results[9:]
                for r in failed:
                    assert isinstance(r, ServiceError), r
                    assert r.code is ErrorCode.INTERNAL
                for k, r in enumerate(healthy):
                    assert isinstance(r, dict), r
                    assert r["placed"]["name"] == f"b{k}"  # never mispaired
                    assert r["placed"]["size"] == k + 1
                # The one-shot is spent: a reconnect serves shard-0 again.
                res = await cc.call(
                    "insert", session="sa", name="after", size=2
                )
                assert res["placed"]["name"] == "after"
                assert regs[0].value("service.conn.partitioned") == 1
                assert regs[1].value("service.conn.partitioned") == 0
        finally:
            faults.deactivate()
            for srv in servers:
                await srv.stop()

    run(main())


# ----------------------------------------------------------------------
# Failover torture: SIGKILL the primary of a replicated subprocess group


TORTURE = [
    ("clean", None),
    ("stream-drop", "replica.stream.drop=error:EIO@p0.2"),
    ("ack-delay", "replica.ack.delay=delay:0.05@p0.3"),
    ("apply-exit", "replica.apply.exit=exit@after25,times1"),
    ("promote-delay", None),  # delays check_failover in-process instead
]


def _drive(cc, group, fields, rounds=3):
    """One acked op, surviving replica blackouts: a failed call respawns
    dead processes and retries the *same* idempotency key, so the op
    applies exactly once no matter how many attempts it took."""
    last = None
    for _ in range(rounds):
        try:
            return cc.call(**fields)
        except ServiceError as e:
            last = e
            group.respawn_dead()
            time.sleep(0.7)  # outlive the replica links' backoff
    raise last


def _replay_reference(root, sid, acked):
    async def go():
        mgr = SessionManager(str(root), fsync="never")
        try:
            await mgr.dispatch(req("open", session=sid))
            for op, name, size in acked:
                if op == "insert":
                    await mgr.dispatch(
                        req("insert", session=sid, name=name, size=size)
                    )
                else:
                    await mgr.dispatch(req("delete", session=sid, name=name))
            return await mgr.dispatch(req("query", session=sid, jobs=True))
        finally:
            await mgr.shutdown()

    return run(go())


@pytest.mark.parametrize("scenario,fault", TORTURE, ids=[t[0] for t in TORTURE])
def test_failover_torture(tmp_path, scenario, fault):
    root = tmp_path / "cluster"
    extra = ("--faults", fault) if fault else ()
    group = ShardGroup(
        str(root), 1, fsync="interval", replicas=2, ack_mode="quorum",
        extra_args=extra, registry=MetricsRegistry(),
    )
    specs = group.start()
    rng = random.Random(sum(map(ord, scenario)))
    kill_at = rng.randrange(18, 30)
    if scenario == "apply-exit":
        kill_at = max(kill_at, 28)  # the blackout at apply 26 is pre-kill
    sid = "tor"
    placement = PlacementMap(
        [s.name for s in specs if s.of is None],
        members=[s.name for s in specs if s.of is not None],
    )
    retry = RetryPolicy(attempts=6, base=0.05, max_delay=0.5, seed=7)
    acked = []  # (op, name, size) in ack order
    results = {}  # idem -> result doc (the dedup-window oracle)
    try:
        with ClusterClient(
            specs, placement=placement, timeout=8.0, retry=retry
        ) as cc:
            cc.call("open", session=sid)
            live = {}

            def one_op(i):
                if live and rng.random() < 0.25:
                    name = rng.choice(sorted(live))
                    fields = dict(op="delete", session=sid, name=name,
                                  idem=f"i{i}")
                    _drive(cc, group, fields)
                    acked.append(("delete", name, live.pop(name)))
                else:
                    name, size = f"j{i}", rng.randint(1, 8)
                    fields = dict(op="insert", session=sid, name=name,
                                  size=size, idem=f"i{i}")
                    results[f"i{i}"] = (_drive(cc, group, fields), name, size)
                    acked.append(("insert", name, size))
                    live[name] = size

            for i in range(kill_at):
                one_op(i)

            pre_kill = len(acked)
            group.kill("shard-0")
            if scenario == "promote-delay":
                faults.activate(
                    faults.parse_plan("cluster.promote.enter=delay:0.2")
                )
            try:
                events = group.check_failover()
            finally:
                faults.deactivate()
            assert len(events) == 1, events
            ev = events[0]
            winner = ev["promoted"]
            assert ev["shard"] == "shard-0" and sid in ev["sessions"]
            assert group.promotions == 1
            # The corpse comes back read-only behind the fence.
            assert "shard-0" in group.respawn_dead()

            for i in range(kill_at, kill_at + 12):
                one_op(i)
            assert len(acked) == pre_kill + 12

            # Zero acked-write loss, exactly: the promoted shard equals
            # an uninterrupted replay of the acked log -- schedule,
            # objective, and journal LSN (one record per acked op).
            q = cc.call("query", session=sid, jobs=True)
            ref = _replay_reference(tmp_path / "ref", sid, acked)
            assert q == ref
            st = cc.shard_client(winner).call("repl_status")
            assert st["sessions"][sid] == len(acked)

            # The dedup window survived the promotion: replaying a
            # pre-kill insert's key answers the original doc verbatim.
            pre_inserts = [
                k for k in results if int(k[1:]) < kill_at
            ]
            idem = max(pre_inserts, key=lambda k: int(k[1:]))
            original, name, size = results[idem]
            assert cc.call(
                "insert", session=sid, name=name, size=size, idem=idem
            ) == original
            assert cc.call("query", session=sid) == {
                k: v for k, v in ref.items() if k != "jobs"
            }

            # The fence holds against the revived ex-primary.
            with pytest.raises(ServiceError) as ei:
                cc.shard_client("shard-0").call(
                    "insert", session=sid, name="stale", size=1
                )
            assert ei.value.code is ErrorCode.MOVED
            assert ei.value.moved == winner

        # Every promotion is in the ledger, priced like any other move.
        ledger = ReallocationLedger(str(root / REALLOC_FILE))
        rows = [r for r in ledger.read() if r.get("reason") == "failover"]
        assert [r["session"] for r in rows] == [sid]
        assert rows[0]["from"] == "shard-0" and rows[0]["to"] == winner
        assert rows[0]["epoch"] == ev["epoch"]
    finally:
        group.stop()


# ----------------------------------------------------------------------
# Rebalancing a replicated cluster


def test_rebalance_refuses_a_replicated_cluster(tmp_path):
    """Migration moves only the primary's copy of a session, so the
    source's replicas would keep the stale pre-move state; rebalance
    refuses before it connects to a shard or writes anything."""
    root = tmp_path / "cluster"
    group = ShardGroup(str(root), 2, fsync="never", replicas=1)
    specs = group.start()
    try:
        primary = next(s for s in specs if s.name == "shard-0")
        with ServiceClient(primary.host, primary.port, timeout=10.0) as c:
            for i in range(6):
                c.open(f"s{i}")
                c.insert(f"s{i}", "j", i + 1)
        with pytest.raises(SystemExit) as ei:
            main(["cluster", "rebalance", str(root), "--tolerance", "0.1"])
        assert "replicated" in str(ei.value.code)
        assert ReallocationLedger(str(root / REALLOC_FILE)).read() == []
        assert not os.path.exists(root / "placement.json")
        with ServiceClient(primary.host, primary.port, timeout=10.0) as c:
            assert c.query("s0")["active"] == 1  # nothing moved
    finally:
        group.stop()


def test_replicated_primary_refuses_migrate_out(tmp_path):
    """A hand-driven ``migrate_session`` off a primary that ships to
    replicas stops at ``migrate_out``: nothing freezes, nothing lands in
    the ledger, and a failover still serves every acknowledged write."""
    root = tmp_path / "cluster"
    group = ShardGroup(
        str(root), 2, fsync="always", replicas=1, ack_mode="quorum"
    )
    specs = {s.name: s for s in group.start()}
    ledger = ReallocationLedger(str(root / REALLOC_FILE))
    try:
        with ServiceClient(specs["shard-0"].host, specs["shard-0"].port,
                           timeout=10.0) as src, \
                ServiceClient(specs["shard-1"].host, specs["shard-1"].port,
                              timeout=10.0) as dst:
            src.open("mv")
            for i in range(10):
                src.insert("mv", f"j{i}", i + 1)
            with pytest.raises(ServiceError) as ei:
                migrate_session(src, dst, "mv", target_name="shard-1",
                                source_name="shard-0", ledger=ledger)
            assert ei.value.code is ErrorCode.BAD_REQUEST
            assert "replicas" in str(ei.value)
            assert ledger.read() == []
            # Not frozen: the next write is acknowledged where it was.
            src.insert("mv", "after", 3)
            acked = src.query("mv", jobs=True)
            assert acked["active"] == 11
            with pytest.raises(ServiceError):
                dst.query("mv")  # the target never adopted it

        group.kill("shard-0")
        events = group.check_failover()
        assert [ev["shard"] for ev in events] == ["shard-0"]
        winner = next(s for s in group.all_specs()
                      if s.name == events[0]["promoted"])
        with ServiceClient(winner.host, winner.port, timeout=10.0) as c:
            promoted = c.query("mv", jobs=True)
        assert promoted == acked
    finally:
        group.stop()
