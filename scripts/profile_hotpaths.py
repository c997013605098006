#!/usr/bin/env python
"""Profile the hot paths (HPC workflow: measure before optimizing).

Usage: python scripts/profile_hotpaths.py [scheduler|kcursor|pma|service] [--metrics]

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
"""

import asyncio
import cProfile
import io
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
