"""In-process measurements: the correctness reference and the layer rungs.

Everything here drives the program through its public functions -- the
schedulers that ``repro.service.sessions.build_scheduler`` builds, the
``repro.obs.attach`` counters, ``Journal``, ``take_snapshot`` /
``restore_snapshot``, ``recover_scheduler`` and the wire codec -- and
times the calls from outside.  Nothing under ``src/`` knows it is being
benchmarked.

:class:`Reference` is both the correctness oracle (one scheduler per
session fed that session's requests in stream order, answering each
request the way the service must) and the source of the ``core`` and
``kcursor`` layer numbers.  The ``*_rung`` functions each time one
layer on the workload's own stream or end state.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from typing import Any, Optional

from repro.analysis.opt import opt_sum_completion
from repro.core.costfn import STANDARD_FAMILY
from repro.core.parallel import ParallelScheduler
from repro.obs.instrument import attach
from repro.obs.metrics import MetricsRegistry
from repro.service.journal import Journal
from repro.service.protocol import (
    SessionConfig,
    decode_line,
    encode,
    ok_response,
    request_from_doc,
)
from repro.service.sessions import (
    build_scheduler,
    recover_scheduler,
    restore_snapshot,
    take_snapshot,
)

LINEAR = STANDARD_FAMILY["linear"]

#: Records the journal rung appends, spread evenly over the first
#: ``JOURNAL_RUNG_SESSIONS`` sessions: enough for stable per-append
#: means, few enough that ``fsync=always`` stays within a second or two.
JOURNAL_RUNG_RECORDS = 2000
JOURNAL_RUNG_SESSIONS = 8

#: Request/response frame pairs the codec rung encodes and decodes.
PROTOCOL_RUNG_FRAMES = 20000

#: Differences reported in full; the rest are only counted.
MAX_REPORTED = 20


def _placed(pj: Any) -> dict[str, Any]:
    return {
        "name": str(pj.name),
        "size": pj.size,
        "klass": pj.klass,
        "start": pj.start,
        "server": pj.server,
    }


def expected_query(sched: Any, name: str, jobs: bool) -> dict[str, Any]:
    """The ``query`` answer the service owes for ``sched``'s state."""
    if isinstance(sched, ParallelScheduler):
        makespan = max((child.makespan() for child in sched.servers), default=0)
    else:
        makespan = sched.makespan()
    out: dict[str, Any] = {
        "active": len(sched),
        "objective": sched.sum_completion_times(),
        "volume": sched.total_volume(),
        "makespan": makespan,
    }
    if name:
        out["job"] = _placed(sched.placement(name))
    if jobs:
        out["jobs"] = sorted(
            ([str(pj.name), pj.size, pj.klass, pj.start, pj.server] for pj in sched.jobs()),
            key=lambda row: (row[4], row[3], row[0]),
        )
    return out


def _tables(sched: Any) -> list[Any]:
    if isinstance(sched, ParallelScheduler):
        return [child.segments.table for child in sched.servers]
    return [sched.segments.table]


class _TableTap:
    """Wraps a table's ``repro.obs`` observer to also record each table
    operation as ``(table, kind, district, units)`` for the k-cursor rung."""

    __slots__ = ("inner", "key", "sink")

    def __init__(self, inner: Any, key: int, sink: list) -> None:
        self.inner = inner
        self.key = key
        self.sink = sink

    def before_op(self, table: Any, kind: str, district: int) -> None:
        self.inner.before_op(table, kind, district)

    def after_op(self, table: Any, op: Any, units: int) -> None:
        self.sink.append((self.key, op.kind, op.district, units))
        self.inner.after_op(table, op, units)


class Gate:
    """Differences found by the correctness gate (the first few in full)."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self.count = 0

    def mismatch(self, text: str) -> None:
        self.count += 1
        if len(self.mismatches) < MAX_REPORTED:
            self.mismatches.append(text)


class Reference:
    """One scheduler per session, fed requests in stream order.

    :meth:`apply` can time every scheduler call and produce the answer
    the service owes for each request (placements, objective, LSN);
    :meth:`compare` checks recorded answers against those.
    :meth:`instrument` attaches the ``repro.obs`` registry and a table
    tap before any request is applied.
    """

    def __init__(self, stream: Any, gate: Optional[Gate] = None) -> None:
        self.stream = stream
        self.gate = gate if gate is not None else Gate()
        self.scheds = {
            sid: build_scheduler(SessionConfig.from_mapping(cfg))
            for sid, cfg in stream.configs.items()
        }
        self.lsn = dict.fromkeys(stream.configs, 0)
        self.registry: Optional[MetricsRegistry] = None
        self.table_ops: list[tuple[int, str, int, int]] = []
        self._mark: tuple[dict[str, float], int] = ({}, 0)

    def instrument(self) -> None:
        self.registry = MetricsRegistry()
        key = 0
        for sched in self.scheds.values():
            attach(sched, self.registry)
            for table in _tables(sched):
                table._observer = _TableTap(table._observer, key, self.table_ops)
                key += 1

    def _counters(self) -> dict[str, float]:
        if self.registry is None:
            return {}
        return dict(self.registry.snapshot()["counters"])

    def mark(self) -> None:
        """Start of the measured phase for :meth:`measured_counts`."""
        self._mark = (self._counters(), len(self.table_ops))

    def measured_counts(self) -> tuple[dict[str, float], int]:
        """Registry deltas since :meth:`mark`, and the index of the first
        table operation after it."""
        before, first_op = self._mark
        now = self._counters()
        return {k: v - before.get(k, 0) for k, v in now.items()}, first_op

    def apply(
        self,
        reqs: list,
        *,
        times: Optional[list] = None,
        answers: Optional[list] = None,
    ) -> float:
        """Apply ``reqs``; returns the loop's wall seconds.

        ``times`` receives each scheduler call's ``(start, end)`` clock
        readings; ``answers`` receives the answer the service owes for
        each request (placement and LSN, or the query result).
        """
        scheds = self.scheds
        perf = time.perf_counter
        t_loop = perf()
        for i, r in enumerate(reqs):
            sched = scheds[r.session]
            t0 = perf()
            if r.op == "insert":
                pj = sched.insert(r.name, r.size)
            elif r.op == "delete":
                sched.delete(r.name)
            t1 = perf()
            if times is not None:
                times[i] = (t0, t1)
            if answers is None:
                continue
            if r.op == "query":
                answers.append(expected_query(sched, r.name, r.jobs))
                continue
            self.lsn[r.session] += 1
            if r.op == "insert":
                answers.append({"lsn": self.lsn[r.session], "placed": _placed(pj)})
            else:
                answers.append({"lsn": self.lsn[r.session], "size": r.size})
        return perf() - t_loop

    def compare(self, reqs: list, expected: list, results: list, label: str) -> None:
        """Record every recorded service answer that differs from ``expected``."""
        for r, exp, got in zip(reqs, expected, results):
            if got != exp:
                self.gate.mismatch(
                    f"{label}: {r.session} {r.op} {r.name or '*'}: service answered "
                    f"{_short(got)}, reference {_short(exp)}"
                )

    def check_schedules(self) -> None:
        """``check_schedule()`` on every scheduler, plus :meth:`check_generator`."""
        for sid, sched in self.scheds.items():
            try:
                sched.check_schedule()
            except AssertionError as e:
                self.gate.mismatch(f"{sid}: check_schedule: {e}")
        self.check_generator()

    def check_generator(self) -> None:
        """Every session ends holding exactly the jobs the generator expects."""
        for sid, sched in self.scheds.items():
            live = {str(pj.name): pj.size for pj in sched.jobs()}
            if live != self.stream.final[sid]:
                self.gate.mismatch(f"{sid}: final job set differs from the generator's")

    def check_final(self, observed: dict) -> None:
        """Compare the service's final ``query(jobs=True)`` and ``stats``
        per session (placements, objective, ledger) with the reference."""
        for sid, sched in self.scheds.items():
            obs = observed.get(sid)
            if obs is None:
                self.gate.mismatch(f"{sid}: no final observation")
                continue
            exp = expected_query(sched, "", True)
            if obs["query"] != exp:
                self.gate.mismatch(f"{sid}: final schedule {_short(obs['query'])} != {_short(exp)}")
            stats = obs["stats"]
            if stats.get("ledger") != sched.ledger.summary():
                self.gate.mismatch(
                    f"{sid}: ledger {stats.get('ledger')} != {sched.ledger.summary()}"
                )
            b = stats.get("competitiveness", {}).get("linear")
            if not isinstance(b, float) or not math.isclose(
                b, sched.ledger.competitiveness(LINEAR), rel_tol=1e-9, abs_tol=1e-12
            ):
                self.gate.mismatch(f"{sid}: linear competitiveness {b} differs")


def _short(doc: Any) -> str:
    text = json.dumps(doc, sort_keys=True, default=str)
    return text if len(text) <= 160 else text[:157] + "..."


def paper_terms(scheds: dict) -> tuple[float, float, int, int]:
    """Linear-cost reallocation and allocation cost, objective and optimum,
    summed over ``scheds``: the parts of the paper's ``b`` and ``a``."""
    realloc = alloc = 0.0
    objective = optimum = 0
    for sched in scheds.values():
        realloc += sched.ledger.reallocation_cost(LINEAR)
        alloc += sched.ledger.allocation_cost(LINEAR)
        p = sched.p if isinstance(sched, ParallelScheduler) else 1
        objective += sched.sum_completion_times()
        optimum += opt_sum_completion((pj.size for pj in sched.jobs()), p)
    return realloc, alloc, objective, optimum


def paper_ratios(terms: list) -> tuple[float, float]:
    """The paper's ``b`` (linear-cost reallocation over allocation cost)
    and ``a`` (sum of completion times over the optimum), pooled: the
    :func:`paper_terms` of every round and session are summed before
    dividing."""
    realloc, alloc, objective, optimum = (sum(t[i] for t in terms) for i in range(4))
    return realloc / alloc, objective / optimum


# ---------------------------------------------------------------------------
# Layer rungs


def core_counts(delta: dict, n: int) -> dict[str, float]:
    """Per-request ``kcursor``/``core`` work counts from registry deltas."""
    return {
        "kcursor.units_per_req": delta.get("kcursor.op.count", 0) / n,
        "kcursor.slots_moved_per_req": delta.get("kcursor.slots.moved", 0) / n,
        "kcursor.slots_scanned_per_req": delta.get("kcursor.slots.scanned", 0) / n,
        "kcursor.rebuilds_per_req": delta.get("kcursor.rebalance.count", 0) / n,
        "core.realloc_jobs_per_req": delta.get("sched.realloc.jobs", 0) / n,
        "core.realloc_volume_per_req": delta.get("sched.realloc.volume", 0) / n,
        "core.migrations_per_req": delta.get("sched.migrations", 0) / n,
    }


def kcursor_rung(stream: Any, table_ops: list, measured_from: int, n: int) -> float:
    """Microseconds per request spent in the k-cursor table alone:
    the captured table operations replayed through ``extend``/``shrink``
    on fresh tables (set-up operations replayed first, untimed)."""
    tables = []
    for cfg in stream.configs.values():
        tables.extend(_tables(build_scheduler(SessionConfig.from_mapping(cfg))))
    for key, kind, district, units in table_ops[:measured_from]:
        t = tables[key]
        (t.extend if kind == "insert" else t.shrink)(district, units)
    ops = [
        ((tables[key].extend if kind == "insert" else tables[key].shrink), district, units)
        for key, kind, district, units in table_ops[measured_from:]
    ]
    t0 = time.perf_counter()
    for fn, district, units in ops:
        fn(district, units)
    return (time.perf_counter() - t0) / n * 1e6


def snapshot_rung(scheds: dict, budget_s: float = 0.5) -> dict[str, float]:
    """Snapshot cost on the end-state sessions: ``take_snapshot`` plus the
    JSON encoding a checkpoint writes, and the decode plus
    ``restore_snapshot`` a rehydration pays.  Rounds over every session
    repeat (at most 5) until ``budget_s`` has passed; medians reported."""
    take, restore = [], []
    nbytes = 0
    t_rung = time.perf_counter()
    while len(take) < 5 and (not take or time.perf_counter() - t_rung < budget_s):
        t_take = t_restore = 0.0
        nbytes = 0
        for sched in scheds.values():
            t0 = time.perf_counter()
            text = json.dumps(take_snapshot(sched), sort_keys=True)
            t1 = time.perf_counter()
            restore_snapshot(json.loads(text))
            t2 = time.perf_counter()
            t_take += t1 - t0
            t_restore += t2 - t1
            nbytes += len(text)
        take.append(t_take / len(scheds))
        restore.append(t_restore / len(scheds))
    return {
        "snapshot.take_ms": statistics.median(take) * 1e3,
        "snapshot.restore_ms": statistics.median(restore) * 1e3,
        "snapshot.bytes": nbytes / len(scheds),
    }


def journal_rung(stream: Any, fsync: str, root: str) -> dict[str, float]:
    """Journal cost on the workload's own write stream under its fsync
    policy: ``Journal.append`` per record, then ``recover_scheduler``
    (the replay a restart or rehydration runs), then ``checkpoint``."""
    sessions = list(stream.configs)[:JOURNAL_RUNG_SESSIONS]
    per_session = math.ceil(JOURNAL_RUNG_RECORDS / len(sessions))
    writes: dict[str, list] = {sid: [] for sid in sessions}
    for r in stream.prefill + stream.requests:
        recs = writes.get(r.session)
        if recs is not None and r.op != "query" and len(recs) < per_session:
            recs.append(r)
    append_s = replay_s = ckpt_s = 0.0
    appends = fsyncs = nbytes = replayed = 0
    try:
        for sid, recs in writes.items():
            sdir = os.path.join(root, sid)
            journal = Journal(sdir, fsync=fsync)
            t0 = time.perf_counter()
            for k, r in enumerate(recs):
                # Same key shape as the client's auto idempotency keys.
                journal.append(r.op, r.name, r.size, idem=f"c1a2b3-{k:x}")
            append_s += time.perf_counter() - t0
            appends += journal.appends
            fsyncs += journal.fsyncs
            journal.close()
            nbytes += sum(
                os.path.getsize(os.path.join(sdir, f)) for f in os.listdir(sdir)
            )
            cfg = SessionConfig.from_mapping(stream.configs[sid])
            t0 = time.perf_counter()
            sched, journal, info = recover_scheduler(sdir, cfg, fsync=fsync)
            replay_s += time.perf_counter() - t0
            replayed += info["replayed"]
            t0 = time.perf_counter()
            journal.checkpoint(take_snapshot(sched))
            ckpt_s += time.perf_counter() - t0
            journal.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "journal.append_us": append_s / appends * 1e6,
        "journal.fsyncs_per_req": fsyncs / appends,
        "journal.bytes_per_req": nbytes / appends,
        "journal.checkpoint_ms": ckpt_s / len(writes) * 1e3,
        "recovery.replay_us_per_record": replay_s / replayed * 1e6,
    }


def request_doc(i: int, r: Any) -> dict[str, Any]:
    """The wire request a client sends for ``r`` (writes carry an
    idempotency key of the client's shape)."""
    doc: dict[str, Any] = {"op": r.op, **r.fields(), "id": i}
    if r.op != "query":
        doc["idem"] = f"c1a2b3-{i:x}"
    return doc


def protocol_rung(reqs: list, answers: list) -> dict[str, float]:
    """Wire codec cost on the workload's own frames: ``encode`` of each
    request and response, ``decode_line`` + ``request_from_doc`` of each
    request and ``decode_line`` of each response."""
    n = min(len(reqs), len(answers), PROTOCOL_RUNG_FRAMES)
    docs = [request_doc(i, r) for i, r in enumerate(reqs[:n])]
    docs += [ok_response(i, a) for i, a in enumerate(answers[:n])]
    t0 = time.perf_counter()
    lines = [encode(d) for d in docs]
    t1 = time.perf_counter()
    for line in lines[:n]:
        request_from_doc(decode_line(line.decode("utf-8")))
    for line in lines[n:]:
        decode_line(line.decode("utf-8"))
    t2 = time.perf_counter()
    return {
        "protocol.encode_us": (t1 - t0) / n * 1e6,
        "protocol.decode_us": (t2 - t1) / n * 1e6,
        "protocol.bytes_per_req": sum(len(line) for line in lines) / n,
    }
