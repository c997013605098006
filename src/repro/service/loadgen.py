"""Closed-loop load generator for the scheduler service.

Drives ``N`` concurrent sessions, each from its own connection and its
own seeded RNG (RL003: reproducible given ``seed``), in a closed loop:
one request in flight per session, the next issued when the response
lands.  Reported numbers are therefore *served* latency under
self-limiting load -- the honest baseline for a single-process asyncio
server -- and throughput is the sum over sessions.

Latencies feed the shared :class:`~repro.obs.metrics.MetricsRegistry`
(``service.client.*``) *and* are kept raw per session so the summary can
report exact p50/p90/p99 (power-of-two buckets are too coarse for tail
percentiles).  ``scripts/service_smoke.py`` and
``scripts/service_trace_smoke.py`` drive the service with it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry, summarize
from repro.obs.trace import Tracer
from repro.service.client import AsyncServiceClient
from repro.service.protocol import ErrorCode, ServiceError

__all__ = [
    "LoadgenOptions",
    "run_loadgen",
    "run_loadgen_sync",
]


@dataclass(frozen=True)
class LoadgenOptions:
    """Knobs for one load-generation run (see ``repro serve --help``)."""

    sessions: int = 8
    ops: Optional[int] = None  # per-session op budget ...
    duration: Optional[float] = None  # ... or wall-clock seconds (either/or)
    max_size: int = 64
    p: int = 1
    delta: float = 0.5
    p_insert: float = 0.6
    max_active: int = 256  # force deletes above this many live jobs
    snapshot_every: int = 0  # checkpoint every N ops (0 = never)
    seed: int = 0
    session_prefix: str = "lg"


def _latency_summary(lat_s: list[float]) -> dict[str, float]:
    out = summarize(lat_s, scale=1000.0)
    out.pop("count")
    return out


async def _drive_session(
    index: int,
    opts: LoadgenOptions,
    registry: MetricsRegistry,
    deadline: Optional[float],
    *,
    host: str,
    port: Optional[int],
    unix_path: Optional[str],
    tracer: Optional[Tracer] = None,
) -> dict[str, Any]:
    rng = random.Random((opts.seed << 16) ^ index)
    sid = f"{opts.session_prefix}{index}"
    hist = registry.histogram("service.client.latency_seconds")
    latencies: list[float] = []
    seq = 0
    inserts = deletes = retries = 0
    active: list[str] = []
    async with AsyncServiceClient(
        host, port, unix_path=unix_path, tracer=tracer
    ) as client:
        await client.open(
            sid,
            config={"max_size": opts.max_size, "p": opts.p, "delta": opts.delta},
        )
        while True:
            if opts.ops is not None and len(latencies) >= opts.ops:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            do_insert = not active or (
                len(active) < opts.max_active and rng.random() < opts.p_insert
            )
            t0 = time.perf_counter()
            try:
                if do_insert:
                    name = f"{sid}-j{seq}"
                    await client.insert(sid, name, rng.randint(1, opts.max_size))
                    seq += 1
                    active.append(name)
                    inserts += 1
                else:
                    victim = active.pop(rng.randrange(len(active)))
                    await client.delete(sid, victim)
                    deletes += 1
            except ServiceError as e:
                if e.code in (ErrorCode.RETRY_LATER, ErrorCode.DEGRADED):
                    retries += 1
                    registry.inc_all({"service.client.retries": 1})
                    await asyncio.sleep(
                        e.retry_after if e.retry_after is not None else 0.001
                    )
                    continue
                raise
            dt = time.perf_counter() - t0
            latencies.append(dt)
            hist.observe(dt)
            registry.inc_all({"service.client.ops": 1})
            if opts.snapshot_every and len(latencies) % opts.snapshot_every == 0:
                await client.snapshot(sid)
    return {
        "session": sid,
        "ops": len(latencies),
        "inserts": inserts,
        "deletes": deletes,
        "retries": retries,
        "latency_ms": _latency_summary(latencies),
        "_raw_latencies": latencies,
    }


async def run_loadgen(
    opts: LoadgenOptions,
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict[str, Any]:
    """Run the closed loop; returns the result document.

    ``tracer`` is shared by every driven session's client (the detached
    span API interleaves safely), so one loadgen run produces a single
    client-side trace file joinable against the server's.
    """
    if (opts.ops is None) == (opts.duration is None):
        raise ValueError("set exactly one of ops= or duration=")
    if opts.sessions < 1:
        raise ValueError("sessions must be >= 1")
    reg = registry if registry is not None else MetricsRegistry()
    t0 = time.perf_counter()
    deadline = t0 + opts.duration if opts.duration is not None else None
    per_session = await asyncio.gather(
        *(
            _drive_session(
                i, opts, reg, deadline,
                host=host, port=port, unix_path=unix_path, tracer=tracer,
            )
            for i in range(opts.sessions)
        )
    )
    wall = time.perf_counter() - t0
    all_lat: list[float] = []
    for res in per_session:
        all_lat.extend(res.pop("_raw_latencies"))
    total_ops = sum(res["ops"] for res in per_session)
    doc: dict[str, Any] = {
        "bench": "service_loadgen",
        "options": asdict(opts),
        "totals": {
            "ops": total_ops,
            "wall_seconds": round(wall, 6),
            "throughput_ops_per_s": round(total_ops / wall, 3) if wall > 0 else 0.0,
            "latency_ms": _latency_summary(all_lat),
        },
        "per_session": list(per_session),
        "metrics": reg.snapshot(),
    }
    return doc


def run_loadgen_sync(
    opts: LoadgenOptions,
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict[str, Any]:
    """Blocking wrapper around :func:`run_loadgen` (CLI/scripts)."""
    return asyncio.run(
        run_loadgen(
            opts,
            host=host,
            port=port,
            unix_path=unix_path,
            registry=registry,
            tracer=tracer,
        )
    )
