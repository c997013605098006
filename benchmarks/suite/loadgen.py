"""Load generation: one pass of a workload against the program.

``planner`` runs the scheduler in-process.  The three service workloads
start real ``repro serve`` processes through ``ShardGroup`` and drive
them from this one process over at most two connections, keeping each
session's requests in stream order on the wire (one request in flight
per session, or a pipelined connection written in stream order), so
every answer is deterministic and checkable.

A pass is a number of *rounds*: each sets the program up from nothing
(timed: ``setup_s``) and sends its round's request stream.  The last
round's sessions are then read back for the correctness gate (and, in
``replicated``, killed and recovered).  With ``trace_dir`` the servers
run with ``--trace`` and the clients carry an in-memory tracer; the
joined spans become the pass's server-side diagnostics.
"""

from __future__ import annotations

import asyncio
import io
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from layers import Gate, Reference, paper_terms

from repro.cluster.client import AsyncClusterClient
from repro.cluster.group import ShardGroup
from repro.obs.trace import Tracer, read_trace
from repro.service.client import AsyncServiceClient
from repro.service.introspect import collect_spans, read_spans
from repro.service.protocol import ServiceError

#: Per-call timeout: a hung server fails the run instead of stalling it.
CALL_TIMEOUT = 30.0

#: SIGKILL/respawn cycles the ``replicated`` workload runs after its load.
RECOVERY_CYCLES = 3

#: ``ShardGroup`` settings per service workload (defaults otherwise:
#: ``fsync=interval``, ``max_live=64``).
GROUPS: dict[str, dict[str, Any]] = {
    "churn": {"shards": 1},
    "evict": {"shards": 1},
    "replicated": {"shards": 1, "replicas": 1, "fsync": "always", "ack_mode": "quorum"},
}


@dataclass
class Round:
    """One set-up plus one run of a request stream."""

    stream: Any
    setup_s: float
    lat: list  # seconds per request; inf when it failed
    late: list  # seconds the generator sent each request late
    window: float  # seconds from the first send (or due time) to the last answer
    rss_mb: float  # peak resident memory of the process(es) under test
    results: list = field(default_factory=list)  # service answers (None = failed)
    prefill_results: list = field(default_factory=list)
    #: ``(send, answer)`` clock readings per request, for the span file.
    times: list = field(default_factory=list)
    #: The round's :func:`layers.paper_terms`, filled in by the gate.
    terms: tuple = ()

    @property
    def throughput(self) -> float:
        return len(self.lat) / self.window


@dataclass
class Pass:
    """What one pass observed."""

    rounds: list
    observed: dict = field(default_factory=dict)  # session -> {"query", "stats"}
    recoveries: list = field(default_factory=list)  # per SIGKILL cycle
    ref: Optional[Reference] = None  # planner: the last round's schedulers
    gate: Gate = field(default_factory=Gate)  # planner: checked as rounds end
    diag: dict = field(default_factory=dict)
    client_trace: str = ""  # the client tracer's JSONL (traced passes)

    @property
    def failed(self) -> int:
        return sum(
            sum(r is None for r in rnd.results) + sum(r is None for r in rnd.prefill_results)
            for rnd in self.rounds
        )

    def median(self, fn: Any) -> float:
        return statistics.median(fn(rnd) for rnd in self.rounds)


# ---------------------------------------------------------------------------
# planner: in-process


def planner_pass(streams: list, *, instrument: bool = False) -> Pass:
    """Closed loop, one thread, straight into the scheduler.  Each round's
    schedules are checked and priced as the round ends, then dropped, so
    no round pays for the previous one's heap."""
    p = Pass(rounds=[])
    ref: Optional[Reference] = None
    for stream in streams:
        ref = None  # drop the previous round's schedules first
        t0 = time.perf_counter()
        ref = Reference(stream, p.gate)
        if instrument:
            ref.instrument()
        ref.apply(stream.prefill)
        setup_s = time.perf_counter() - t0
        ref.mark()
        times: list = [None] * len(stream.requests)
        wall = ref.apply(stream.requests, times=times)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref.check_schedules()
        p.rounds.append(Round(
            stream=stream,
            setup_s=setup_s,
            lat=[t1 - t0 for t0, t1 in times],
            # The generator's own time between one answer and the next call.
            late=[0.0] + [times[i][0] - times[i - 1][1] for i in range(1, len(times))],
            window=wall,
            rss_mb=rss,
            terms=paper_terms(ref.scheds),
            times=times,
        ))
    p.ref = ref
    return p


# ---------------------------------------------------------------------------
# service workloads


class _Group(ShardGroup):
    """A ``ShardGroup`` whose every spawn (respawns included) writes its
    own server trace file when ``trace_dir`` is set."""

    def __init__(self, root: str, *, trace_dir: Optional[str] = None, **kw: Any) -> None:
        super().__init__(root, **kw)
        self.trace_dir = trace_dir
        self.trace_files: list[tuple[str, str]] = []

    def _spawn(self, name: str, port: int, **kw: Any) -> Any:
        if self.trace_dir is not None:
            path = os.path.join(self.trace_dir, f"{name}.{len(self.trace_files)}.jsonl")
            self.trace_files.append((name, path))
            self.extra_args = ("--trace", path)
        return super()._spawn(name, port, **kw)


def _vm_hwm_mb(pid: Optional[int]) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


async def _call(client: Any, r: Any) -> Optional[dict]:
    try:
        result: dict = await client.call(r.op, timeout=CALL_TIMEOUT, **r.fields())
        return result
    except (ServiceError, OSError):
        return None


async def _prefill(client: AsyncClusterClient, stream: Any) -> list:
    """Open every session, then prefill it, one session at a time (its
    inserts pipelined in stream order)."""
    by_session: dict[str, list] = {sid: [] for sid in stream.configs}
    for r in stream.prefill:
        by_session[r.session].append(r)
    out: list = []
    for sid, cfg in stream.configs.items():
        await client.call("open", session=sid, config=cfg, timeout=CALL_TIMEOUT)
        out.extend(await asyncio.gather(*(_call(client, r) for r in by_session[sid])))
    return out


async def _observe(client: Any, sessions: Any) -> dict:
    """``query(jobs=True)`` then ``stats`` per session (the query makes an
    evicted session live, so its stats carry the ledger)."""
    out = {}
    for sid in sessions:
        q = await client.call("query", session=sid, jobs=True, timeout=CALL_TIMEOUT)
        st = await client.call("stats", session=sid, timeout=CALL_TIMEOUT)
        out[sid] = {"query": q, "stats": st}
    return out


async def _open_loop(client: AsyncClusterClient, reqs: list, rate: float) -> tuple:
    """Send request ``i`` at ``start + i / rate`` whatever came back."""
    n = len(reqs)
    sent = [0.0] * n
    done = [0.0] * n
    results: list = [None] * n

    async def one(i: int, r: Any) -> None:
        sent[i] = time.perf_counter()
        results[i] = await _call(client, r)
        done[i] = time.perf_counter()

    loop = asyncio.get_running_loop()
    start = time.perf_counter() + 0.05
    tasks = []
    for i, r in enumerate(reqs):
        wait = start + i / rate - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        tasks.append(loop.create_task(one(i, r)))
    await asyncio.gather(*tasks)
    due = [start + i / rate for i in range(n)]
    lat = [done[i] - due[i] if results[i] is not None else float("inf") for i in range(n)]
    late = [sent[i] - due[i] for i in range(n)]
    return lat, late, max(done) - start, results, list(zip(sent, done))


async def _closed_lanes(clients: list, reqs: list) -> tuple:
    """One request in flight per lane; lane ``k`` sends through ``clients[k]``."""
    n = len(reqs)
    sent = [0.0] * n
    done = [0.0] * n
    late = [0.0] * n
    results: list = [None] * n

    async def lane(k: int) -> None:
        prev: Optional[float] = None
        for i, r in enumerate(reqs):
            if r.lane != k:
                continue
            sent[i] = time.perf_counter()
            if prev is not None:
                late[i] = sent[i] - prev
            results[i] = await _call(clients[k], r)
            done[i] = prev = time.perf_counter()

    await asyncio.gather(*(lane(k) for k in range(len(clients))))
    lat = [done[i] - sent[i] if results[i] is not None else float("inf") for i in range(n)]
    return lat, late, max(done) - min(sent), results, list(zip(sent, done))


async def _ping_ms(client: AsyncClusterClient, n: int = 100) -> float:
    pings = []
    for _ in range(n):
        t0 = time.perf_counter()
        await client.call("ping", timeout=CALL_TIMEOUT)
        pings.append(time.perf_counter() - t0)
    return statistics.median(pings) * 1e3


async def _round(
    stream: Any, root: str, trace_dir: Optional[str], last: bool, p: Pass
) -> Round:
    """Set up from nothing, send the stream; after the ``last`` round also
    read every session back (and run the recovery cycles)."""
    t0 = time.perf_counter()
    group = _Group(root, trace_dir=trace_dir, **GROUPS[stream.workload])
    client: Optional[AsyncClusterClient] = None
    lanes: list = []
    tracer: Optional[Tracer] = None
    spans = io.StringIO()
    try:
        specs = group.start()
        client = AsyncClusterClient(specs, timeout=CALL_TIMEOUT)
        prefill_results = await _prefill(client, stream)
        setup_s = time.perf_counter() - t0
        primary = group.specs()[0]
        if trace_dir is not None:
            p.diag["wire.ping_ms"] = await _ping_ms(client)
        before = (await client.call("stats", timeout=CALL_TIMEOUT))["counters"]
        if trace_dir is not None:
            tracer = Tracer(spans, label="bench-client")
            client.tracer = tracer
        if stream.rate > 0:
            lat, late, window, results, times = await _open_loop(
                client, stream.requests, stream.rate
            )
        else:
            if stream.workload == "evict":
                for _ in range(stream.lanes):
                    c = AsyncServiceClient(primary.host, primary.port, tracer=tracer)
                    lanes.append(await c.connect())
            else:
                lanes = [client] * stream.lanes
            lat, late, window, results, times = await _closed_lanes(lanes, stream.requests)
        client.tracer = None
        after = (await client.call("stats", timeout=CALL_TIMEOUT))["counters"]
        p.diag["sessions.evictions_per_req"] = (
            after["service.evictions"] - before["service.evictions"]
        ) / len(results)
        rss = sum(_vm_hwm_mb(group.pid(s.name)) for s in group.all_specs())
        if last:
            p.observed = await _observe(client, stream.configs)
        if last and stream.workload == "replicated":
            client = await _recover(stream, group, client, p)
    finally:
        for c in lanes:
            if c is not client:
                await c.close()
        if client is not None:
            await client.close()
        if last:
            group.stop()
        else:
            for spec in group.all_specs():
                group.kill(spec.name)
            shutil.rmtree(root, ignore_errors=True)
    if tracer is not None:
        p.client_trace = spans.getvalue()
        p.diag.update(_trace_diagnostics(stream, p.client_trace, group))
    return Round(stream, setup_s, lat, late, window, rss, results, prefill_results, times=times)


async def _recover(
    stream: Any, group: _Group, client: AsyncClusterClient, p: Pass
) -> AsyncClusterClient:
    """SIGKILL the primary, respawn it, read every session back from the
    primary and from the replica; repeated ``RECOVERY_CYCLES`` times."""
    primary, replica = group.all_specs()
    status = [(await _direct(s, "repl_status"))["total"] for s in (primary, replica)]
    p.diag["replica.lag_records"] = status[0] - status[1]
    for _ in range(RECOVERY_CYCLES):
        await client.close()
        t0 = time.perf_counter()
        group.kill(primary.name)
        await asyncio.get_running_loop().run_in_executor(None, group.respawn_dead)
        t_ready = time.perf_counter()
        client = AsyncClusterClient(group.all_specs(), timeout=CALL_TIMEOUT)
        observed = await _observe(client, stream.configs)
        p.recoveries.append({
            "recovery_s": time.perf_counter() - t0,
            "spawn_s": t_ready - t0,
            "primary": observed,
            "replica": await _observe_direct(replica, stream.configs),
            # Sum of the sessions' durable LSNs on the respawned primary:
            # the state it recovered, not the records it replayed (the
            # server exposes no replay count outside its trace).
            "durable_lsn_total": (await _direct(primary, "repl_status"))["total"],
        })
    return client


async def _direct(spec: Any, op: str) -> dict:
    async with AsyncServiceClient(spec.host, spec.port) as c:
        result: dict = await c.call(op, timeout=CALL_TIMEOUT)
        return result


async def _observe_direct(spec: Any, sessions: Any) -> dict:
    async with AsyncServiceClient(spec.host, spec.port) as c:
        return await _observe(c, sessions)


async def _service_pass(streams: list, work: str, trace_dir: Optional[str]) -> Pass:
    p = Pass(rounds=[])
    for k, stream in enumerate(streams):
        last = k == len(streams) - 1
        root = os.path.join(work, f"round{k}")
        p.rounds.append(await _round(stream, root, trace_dir if last else None, last, p))
    return p


def service_pass(streams: list, work: str, trace_dir: Optional[str] = None) -> Pass:
    return asyncio.run(_service_pass(streams, work, trace_dir))


def _trace_diagnostics(stream: Any, client_trace: str, group: _Group) -> dict[str, float]:
    """Join the client's measured spans to the servers' ``server.op``
    spans by trace id and split each request's time by layer."""
    client = collect_spans(read_trace(io.StringIO(client_trace)))
    calls = {
        s.trace: s.duration
        for s in client.values()
        if s.name in ("cluster.call", "client.call") and s.duration is not None
    }
    first: dict[str, str] = {}
    spawns: dict[str, list] = {}
    for name, path in group.trace_files:
        first.setdefault(name, path)
        spawns.setdefault(name, []).append(path)
    primary = group.specs()[0].name
    server = read_spans(first[primary], tolerant=True)
    tot = qw = ex = jn = cl = 0.0
    joined = 0
    lo, hi = float("inf"), 0.0
    for s in server.values():
        if s.name != "server.op" or s.trace not in calls:
            continue
        f = s.fields
        joined += 1
        cl += calls[s.trace]
        tot += f.get("total", 0.0)
        qw += f.get("queue_wait", 0.0)
        ex += f.get("execute", 0.0)
        jn += f.get("journal", 0.0)
        lo, hi = min(lo, s.t_start), max(hi, s.t_end or s.t_start)
    n = max(joined, 1)
    # Server-side spans inside the measured window (server clock).
    inside = [s for s in server.values() if lo <= s.t_start <= hi]
    rehydrations = [s.fields.get("seconds", 0.0) for s in inside if s.name == "recovery"]
    out = {
        "trace.joined_frac": joined / len(stream.requests),
        "trace.unattributed_frac": 1.0 - (qw + ex + jn) / cl if cl else 0.0,
        "wire.overhead_ms": (cl - tot) / n * 1e3,
        "sessions.op_total_ms": tot / n * 1e3,
        "sessions.queue_wait_ms": qw / n * 1e3,
        "sessions.execute_ms": ex / n * 1e3,
        "journal.server_ms": jn / n * 1e3,
        "sessions.unattributed_frac": 1.0 - (qw + ex + jn) / tot if tot else 0.0,
        "sessions.rehydrations_per_req": len(rehydrations) / len(stream.requests),
        "sessions.rehydrate_ms": statistics.mean(rehydrations) * 1e3 if rehydrations else 0.0,
    }
    if stream.workload == "replicated":
        ships = [
            s.duration for s in inside
            if s.name == "replica.ship" and s.duration is not None
        ]
        out["replica.ship_ms"] = statistics.mean(ships) * 1e3
        out["replica.records_per_ship"] = sum(r.op != "query" for r in stream.requests) / len(ships)
        replica = read_spans(first[group.all_specs()[1].name], tolerant=True)
        out["replica.installs"] = float(sum(
            s.name == "server.op" and s.fields.get("op") == "repl_install"
            for s in replica.values()
        ))
        replay = [
            sum(
                s.fields.get("seconds", 0.0)
                for s in read_spans(path, tolerant=True).values()
                if s.name == "recovery"
            )
            for path in spawns[primary][1:]
        ]
        out["recovery.replay_ms"] = statistics.median(replay) * 1e3
    return out
