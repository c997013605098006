#!/usr/bin/env python
"""Profile the hot paths (HPC workflow: measure before optimizing).

Usage: python scripts/profile_hotpaths.py [scheduler|kcursor|pma|service|evict|commit] [--metrics]

With ``--metrics`` the run is also instrumented through the obs layer
(:mod:`repro.obs`): machine-model counters (``kcursor.*`` / ``sched.*`` /
``pma.*``) plus a ``profile.<target>.seconds`` timer are printed in the
same snapshot format as ``repro report``, so profiling and benching share
one output format.

``service`` measures the request path instead: an in-process
``ServiceServer`` (``fsync=never``, a metrics registry as ``repro serve``
has) driven by an ``AsyncClusterClient`` over loopback TCP, doing
insert/delete round trips on 1 and then 8 sessions with one request in
flight each, after a warm-up.  It prints cProfile's total function calls
per op (client and server share the one event loop, so both count): a
deterministic work number that, unlike wall-clock time, does not move
with the machine or its load.

``scheduler`` then profiles two benchmark session shapes, each a
scheduler from ``repro.service.image.build_scheduler`` taking 19,200
requests after a prefill, half inserts and half deletes of a uniformly
chosen live job, all seeded here: ``planner`` (p = 1, Delta = 65,536,
delta = 0.5, a 4,096-job prefill, no cap on live jobs) and ``evict``
(p = 4, so ``ParallelScheduler``; Delta = 1,024, delta = 0.5, a 16-job
prefill, a delete whenever 64 jobs are live).  For each it prints
cProfile calls per request, ``district_extent`` and ``ClassLayout.evicted``
calls per request, and how many per-op reports the scheduler's ledger
retains: deterministic counts of the kernel's work per op.

``evict`` measures the session cache-miss path on an in-process
``SessionManager`` (``fsync=never``, a registry) fed through
``dispatch`` (no sockets), in two shapes.  ``round-robin``: 6 p=4
sessions over a 2-session cache take round-robin writes, so every op
rehydrates its session and queues another's eviction.  ``bulk``: one
p=4 session bulk-loaded with 1,000 jobs past a 2-job snapshot takes 40
misses over a 1-session cache, 20 read-only and then 20 one-write.
Each prints cProfile calls per op, checkpoints per eviction, and
``decode_record`` calls and ``SingleServerScheduler`` builds per
rehydration -- deterministic counts of the work a cache miss costs.

``commit`` counts what durability costs per write on the replicated
path: one session on an in-process primary (``fsync=always``, a quorum
replica served in the same process) takes 1,000 inserts pipelined on
one connection.  It prints, per write, the ``os.fsync`` calls made on
the primary's and on the replica's data directories (``os.fsync`` is
wrapped, and each call is attributed by the path of its descriptor) and
the ``repl_apply`` frames the replica executed (its
``service.op.repl_apply`` counter).  Both are counted outside the
service code, so the target runs unchanged on an older checkout.
"""

import asyncio
import cProfile
import io
import math
import os
import pstats
import random
import sys
import tempfile


def profile_scheduler():
    from repro.core import SingleServerScheduler
    from repro.workloads import generators
    from repro.workloads.trace import replay

    trace = generators.mixed(6000, 1024, seed=0)
    sched = SingleServerScheduler(1024, delta=0.5)
    return lambda: replay(trace, sched), sched


def _calls_to(stats: pstats.Stats, func: str, module: str) -> int:
    """Calls cProfile counted to ``func`` defined in a file ending ``module``."""
    return sum(
        nc for (path, _, name), (_, nc, *_) in stats.stats.items()
        if name == func and path.endswith(module)
    )


#: (label, session config, prefill, live-job cap, seed) of the kernel
#: shapes ``scheduler`` profiles: the benchmark's ``planner`` and ``evict``
#: sessions.
KERNEL_SHAPES = [
    ("planner", {"max_size": 65536, "delta": 0.5}, 4096, None, 0),
    ("evict", {"max_size": 1024, "delta": 0.5, "p": 4}, 16, 64, 1),
]


def profile_kernel_shape(label: str, cfg: dict, prefill: int, cap, seed: int) -> None:
    from repro.service.image import build_scheduler
    from repro.service.protocol import SessionConfig

    max_size, ops = cfg["max_size"], 19_200
    rng = random.Random(seed)
    live: list[str] = []
    made = 0

    def size() -> int:  # log-uniform on [1, max_size]: every class gets a share
        return max(1, min(max_size, int(math.exp(rng.uniform(0.0, math.log(max_size + 1))))))

    def insert() -> tuple[str, str, int]:
        nonlocal made
        made += 1
        live.append(f"j{made}")
        return ("insert", live[-1], size())

    def delete() -> tuple[str, str, int]:
        k = rng.randrange(len(live))
        live[k], live[-1] = live[-1], live[k]
        return ("delete", live.pop(), 0)

    def write() -> tuple[str, str, int]:
        if not live or ((cap is None or len(live) < cap) and rng.random() < 0.5):
            return insert()
        return delete()

    first = [insert() for _ in range(prefill)]
    reqs = [write() for _ in range(ops)]
    sched = build_scheduler(SessionConfig.from_mapping(cfg))
    for _, name, w in first:
        sched.insert(name, w)
    pr = cProfile.Profile()
    pr.enable()
    for op, name, w in reqs:
        if op == "insert":
            sched.insert(name, w)
        else:
            sched.delete(name)
    pr.disable()
    stats = pstats.Stats(pr)
    extents = _calls_to(stats, "district_extent", os.path.join("kcursor", "table.py"))
    evicted = _calls_to(stats, "evicted", os.path.join("core", "placement.py"))
    reports = sched.ledger.reports
    print(f"scheduler/{label}: {stats.total_calls / ops:.1f} calls/op ({ops} requests "
          f"after a {prefill}-job prefill)")
    print(f"scheduler/{label}: {extents / ops:.2f} district_extent calls/op, "
          f"{evicted / ops:.2f} ClassLayout.evicted calls/op")
    print(f"scheduler/{label}: {len(reports) if reports is not None else 0} "
          f"per-op reports retained by the ledger")


def profile_kcursor():
    from repro.kcursor import KCursorSparseTable, Params

    t = KCursorSparseTable(16, params=Params.explicit(16, 2))
    rng = random.Random(0)

    def run():
        for _ in range(150_000):
            j = rng.randrange(16)
            if rng.random() < 0.55 or t.district_len(j) == 0:
                t.insert(j)
            else:
                t.delete(j)

    return run, t


def profile_pma():
    from repro.pma import PackedMemoryArray

    pma = PackedMemoryArray()
    rng = random.Random(0)

    def run():
        for i in range(50_000):
            pma.insert(rng.randrange(len(pma) + 1), i)

    return run, pma


def profile_service() -> None:
    from repro.cluster.client import AsyncClusterClient
    from repro.cluster.group import ShardSpec
    from repro.obs import MetricsRegistry
    from repro.service import ServiceServer, SessionManager

    sessions = [f"s{i}" for i in range(8)]
    warmup, ops = 200, 2000

    async def main(root: str) -> None:
        manager = SessionManager(root, fsync="never", registry=MetricsRegistry())
        srv = ServiceServer(manager, port=0)
        await srv.start()
        spec = ShardSpec(name="shard-0", host="127.0.0.1", port=srv.tcp_port, data=root)
        try:
            async with AsyncClusterClient([spec]) as cc:
                for sid in sessions:
                    await cc.call("open", session=sid, config={"max_size": 16})

                async def lane(sid: str, n: int) -> None:
                    for k in range(n // 2):
                        await cc.call("insert", session=sid, name=f"j{k}", size=1 + k % 16)
                        await cc.call("delete", session=sid, name=f"j{k}")

                for inflight in (1, 8):
                    lanes = sessions[:inflight]
                    await asyncio.gather(*(lane(sid, warmup) for sid in lanes))
                    per_lane = ops // inflight
                    pr = cProfile.Profile()
                    pr.enable()
                    await asyncio.gather(*(lane(sid, per_lane) for sid in lanes))
                    pr.disable()
                    calls = pstats.Stats(pr).total_calls
                    done = per_lane // 2 * 2 * inflight
                    print(f"service: {inflight} in flight: {calls / done:.1f} calls/op "
                          f"({done} ops)")
        finally:
            await srv.stop()

    with tempfile.TemporaryDirectory() as root:
        asyncio.run(main(root))


def profile_evict() -> None:
    from repro.obs import MetricsRegistry
    from repro.service import SessionManager
    from repro.service.protocol import Request

    names = (
        "service.evictions",
        "service.journal.checkpoints",
        "service.recovery.count",
        "service.recovery.replayed",
    )

    async def measure(shape, manager, reg, ops, run) -> None:
        """Profile ``run()`` (``ops`` dispatches) and print its counts."""
        before = {name: reg.value(name) for name in names}
        pr = cProfile.Profile()
        pr.enable()
        await run()
        for sess in list(manager.sessions.values()):  # let evictions run
            await sess.queue.join()
        pr.disable()
        delta = {name: reg.value(name) - before[name] for name in names}
        await manager.shutdown()
        stats = pstats.Stats(pr)

        decodes = _calls_to(stats, "decode_record", os.path.join("service", "journal.py"))
        builds = _calls_to(stats, "__init__", os.path.join("core", "single.py"))
        evictions = delta["service.evictions"]
        rehydrations = delta["service.recovery.count"]
        print(f"evict/{shape}: {stats.total_calls / ops:.1f} calls/op ({ops} ops, "
              f"{evictions} evictions, {rehydrations} rehydrations)")
        print(f"evict/{shape}: {delta['service.journal.checkpoints'] / evictions:.3f} "
              f"checkpoints/eviction")
        print(f"evict/{shape}: {decodes / rehydrations:.2f} decode_record "
              f"calls/rehydration ({delta['service.recovery.replayed'] / rehydrations:.2f} "
              f"records replayed)")
        print(f"evict/{shape}: {builds / rehydrations:.2f} SingleServerScheduler "
              f"builds/rehydration")

    async def round_robin(root: str) -> None:
        """6 p=4 sessions over a 2-session cache, every write a miss."""
        sessions = [f"s{i}" for i in range(6)]
        prefill, ops, keep = 24, 1200, 24
        reg = MetricsRegistry()
        manager = SessionManager(root, fsync="never", max_live=2, registry=reg)
        active: dict[str, list[str]] = {sid: [] for sid in sessions}
        made = dict.fromkeys(sessions, 0)

        async def write(sid: str) -> None:
            # Grow to ``keep`` jobs, then alternate delete and insert.
            jobs, k = active[sid], made[sid]
            made[sid] += 1
            if len(jobs) >= keep and k % 2:
                req = Request(op="delete", session=sid, name=jobs.pop(0))
            else:
                jobs.append(f"j{k}")
                req = Request(op="insert", session=sid, name=f"j{k}", size=1 + k % 61)
            await manager.dispatch(req)

        for sid in sessions:
            cfg = {"p": 4, "max_size": 64}
            await manager.dispatch(Request(op="open", session=sid, config=cfg))
        for _ in range(prefill):
            for sid in sessions:
                await write(sid)

        async def run() -> None:
            for k in range(ops):
                await write(sessions[k % len(sessions)])

        await measure("round-robin", manager, reg, ops, run)

    async def bulk(root: str) -> None:
        """A p=4 session bulk-loaded with 1,000 jobs past a 2-job
        snapshot, then 40 misses over a 1-session cache: each a read of
        another session that evicts it, then a touch of it, read-only
        for the first 20 and one write for the last 20."""
        reg = MetricsRegistry()
        manager = SessionManager(root, fsync="never", max_live=1, registry=reg)
        for sid in ("big", "other"):
            cfg = {"p": 4, "max_size": 1024}
            await manager.dispatch(Request(op="open", session=sid, config=cfg))
        made = 0

        async def insert() -> None:
            nonlocal made
            made += 1
            await manager.dispatch(
                Request(op="insert", session="big", name=f"j{made}", size=1 + made % 61)
            )

        for _ in range(2):
            await insert()
        await manager.dispatch(Request(op="snapshot", session="big"))
        for _ in range(1000):
            await insert()

        async def run() -> None:
            for k in range(40):
                await manager.dispatch(Request(op="query", session="other"))
                if k >= 20:
                    await insert()
                else:
                    await manager.dispatch(Request(op="query", session="big"))

        await measure("bulk", manager, reg, 80, run)

    for shape in (round_robin, bulk):
        with tempfile.TemporaryDirectory() as root:
            asyncio.run(shape(root))


def profile_commit() -> None:
    from repro.obs import MetricsRegistry
    from repro.service import AsyncServiceClient, ServiceServer, SessionManager
    from repro.service.replica import Replicator

    writes = 1000
    real_fsync = os.fsync

    async def main(root: str) -> None:
        roots = {role: os.path.join(root, role) for role in ("primary", "replica")}
        fsyncs = dict.fromkeys(roots, 0)

        def counted(fd: int) -> None:
            path = os.readlink(f"/proc/self/fd/{fd}")
            for role, top in roots.items():
                if path == top or path.startswith(top + os.sep):
                    fsyncs[role] += 1
            real_fsync(fd)

        reg = MetricsRegistry()
        replica = SessionManager(
            roots["replica"], fsync="always", replica_of="primary", registry=reg
        )
        rsrv = ServiceServer(replica, port=0)
        await rsrv.start()
        primary = SessionManager(roots["primary"], fsync="always")
        primary.set_replicator(
            Replicator([("127.0.0.1", rsrv.tcp_port)], ack_mode="quorum")
        )
        psrv = ServiceServer(primary, port=0)
        await psrv.start()
        try:
            async with AsyncServiceClient(port=psrv.tcp_port) as c:
                await c.open("s", {"max_size": 64})
                frames = reg.value("service.op.repl_apply")
                os.fsync = counted
                try:
                    await asyncio.gather(
                        *(c.insert("s", f"j{k}", 1 + k % 64) for k in range(writes))
                    )
                finally:
                    os.fsync = real_fsync
                frames = reg.value("service.op.repl_apply") - frames
        finally:
            await psrv.stop()
            await rsrv.stop()
        print(f"commit: {fsyncs['primary'] / writes:.3f} primary fsyncs/write "
              f"({writes} pipelined quorum inserts, fsync=always)")
        print(f"commit: {fsyncs['replica'] / writes:.3f} replica fsyncs/write")
        print(f"commit: {frames / writes:.3f} repl_apply frames/write")

    with tempfile.TemporaryDirectory() as root:
        asyncio.run(main(os.path.realpath(root)))


TARGETS = {
    "scheduler": profile_scheduler,
    "kcursor": profile_kcursor,
    "pma": profile_pma,
}


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    with_metrics = "--metrics" in sys.argv[1:]
    which = args[0] if args else "scheduler"
    if which == "service":
        profile_service()
        return 0
    if which == "evict":
        profile_evict()
        return 0
    if which == "commit":
        profile_commit()
        return 0
    run, target = TARGETS[which]()

    registry = attachment = None
    if with_metrics:
        from repro.obs import MetricsRegistry, attach

        registry = MetricsRegistry()
        attachment = attach(target, registry)

    pr = cProfile.Profile()
    if registry is not None:
        with registry.timer(f"profile.{which}.seconds"):
            pr.enable()
            run()
            pr.disable()
    else:
        pr.enable()
        run()
        pr.disable()
    buf = io.StringIO()
    stats = pstats.Stats(pr, stream=buf)
    stats.sort_stats("cumulative").print_stats(25)
    print(buf.getvalue())
    if registry is not None:
        from repro.obs import format_snapshot

        attachment.detach()
        print(format_snapshot(registry.snapshot(), title=f"metrics ({which}):"))
    if which == "scheduler":
        for shape in KERNEL_SHAPES:
            profile_kernel_shape(*shape)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
