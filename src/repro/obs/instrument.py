"""Wiring between the hot paths and the obs layer.

The instrumented objects know nothing about metrics or traces: they each
expose one observer attribute that defaults to ``None``
(``KCursorSparseTable._observer``, ``Ledger.observer``,
``PackedMemoryArray._observer``) and call into it only when set.  This
module provides the observers and :func:`attach`, which inspects an
object (scheduler, table or PMA, including every baseline) and hooks up
whatever it finds.  :meth:`Attachment.detach` restores the ``None``s.

Metric deltas are computed once per operation as a ``{name: int}`` dict,
applied to the live registry *and* embedded in the trace record's ``m``
field -- the single-source-of-truth design that makes
:func:`repro.obs.trace.replay_trace` exact.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class KCursorObserver:
    """Publishes k-cursor table operations (and rebuild cascades).

    With ``lost_slots=True`` it also measures Theorem 19's "lost slots"
    -- old-extent slots a district no longer covers after an op -- by
    snapshotting district extents around every operation.  That is
    O(k log k) per op, so it is opt-in (tracing-grade, not bench-grade).
    """

    __slots__ = ("registry", "tracer", "track_lost", "_extents")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        *,
        lost_slots: bool = False,
    ):
        self.registry = registry
        self.tracer = tracer
        self.track_lost = lost_slots
        self._extents: Optional[list[tuple[int, int]]] = None

    def before_op(self, table, kind: str, district: int) -> None:
        if self.track_lost:
            self._extents = table.district_extents()

    def after_op(self, table, op, units: int) -> None:
        m = {
            "kcursor.op.count": units,
            f"kcursor.{op.kind}.count": units,
            "kcursor.rebalance.count": len(op.rebuilds),
            "kcursor.slots.moved": op.slots_moved,
            "kcursor.slots.scanned": op.slots_scanned,
            "kcursor.cost": op.cost,
        }
        gc, gk = op.gaps_created, op.gaps_consumed
        if gc:
            m["kcursor.gaps.created"] = gc
        if gk:
            m["kcursor.gaps.consumed"] = gk
        if self.track_lost and self._extents is not None:
            lost = 0
            after = table.district_extents()
            for (b0, b1), (a0, a1) in zip(self._extents, after):
                kept = max(0, min(b1, a1) - max(b0, a0))
                lost += max(0, (b1 - b0) - kept)
            m["kcursor.lost_slots"] = lost
            self._extents = None
        reg = self.registry
        if reg is not None:
            reg.inc_all(m)
            if op.rebuilds:
                reg.histogram("kcursor.cascade_depth").observe(op.cascade_depth)
        tr = self.tracer
        if tr is not None:
            sid = tr.new_span_id()
            rec = {
                "span": sid,
                "kind": op.kind,
                "district": op.district,
                "units": units,
                "cost": op.cost,
                "m": m,
            }
            parent = tr.current_span()
            if parent is not None:
                rec["parent"] = parent
            tr.emit("table_op", rec)
            for r in op.rebuilds:
                tr.emit(
                    "rebuild",
                    {
                        "parent": sid,
                        "level": r.level,
                        "grow": r.grow,
                        "window": r.space_delta,
                        "cost": r.slots_moved,
                        "gaps_created": r.gaps_created,
                        "gaps_consumed": r.gaps_consumed,
                        "gaps_returned": r.gaps_returned,
                    },
                )


class LedgerObserver:
    """Publishes scheduler requests: one span per insert/delete, with the
    (deduplicated, per the paper's counting) job reallocations inside."""

    __slots__ = ("registry", "tracer", "_span")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry
        self.tracer = tracer
        self._span: Optional[int] = None

    def op_begin(self, op) -> None:
        tr = self.tracer
        if tr is not None:
            self._span = tr.begin_span(
                op.kind, {"job": str(op.name), "size": op.size}
            )

    def op_commit(self, op) -> None:
        # Ledger.commit has counted the request's reallocations the
        # paper's way (each job once, a migration outranking a move).
        moved = op.moved
        migrated = op.migrated
        m = {
            "sched.op.count": 1,
            f"sched.{op.kind}.count": 1,
            "sched.realloc.jobs": len(moved),
            "sched.realloc.volume": sum(moved.values()),
        }
        if op.kind == "insert":
            m["sched.alloc.volume"] = op.size
        if migrated:
            m["sched.migrations"] = len(migrated)
        reg = self.registry
        if reg is not None:
            reg.inc_all(m)
        tr = self.tracer
        if tr is not None:
            for name, size in moved.items():
                kind = "migrate" if name in migrated else "move"
                tr.emit(
                    "realloc",
                    {"parent": self._span, "job": str(name), "size": size, "kind": kind},
                )
            tr.end_span(op.kind, {"m": m})
            self._span = None

    def op_abort(self, op) -> None:
        tr = self.tracer
        if tr is not None and self._span is not None:
            tr.end_span(op.kind, {"aborted": True})
            self._span = None


class PMAObserver:
    """Publishes packed-memory-array work as deltas of its counter.

    The PMA's ``insert`` recurses after a forced rebalance, so the hook
    may fire mid-operation; deltas telescope, keeping totals exact.
    """

    __slots__ = ("registry", "tracer", "_ops", "_moved", "_rebalances", "_resizes")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry
        self.tracer = tracer
        self._ops = 0
        self._moved = 0
        self._rebalances = 0
        self._resizes = 0

    def after_op(self, pma) -> None:
        c = pma.counter
        m = {
            "pma.op.count": c.ops - self._ops,
            "pma.recopy.elements": c.slots_moved - self._moved,
            "pma.rebalance.count": c.rebalances - self._rebalances,
            "pma.resize.count": c.resizes - self._resizes,
        }
        self._ops, self._moved = c.ops, c.slots_moved
        self._rebalances, self._resizes = c.rebalances, c.resizes
        m = {k: v for k, v in m.items() if v}
        if not m:
            return
        if self.registry is not None:
            self.registry.inc_all(m)
        tr = self.tracer
        if tr is not None:
            rec = {"m": m}
            parent = tr.current_span()
            if parent is not None:
                rec["parent"] = parent
            tr.emit("pma_op", rec)


class Attachment:
    """Handle over everything :func:`attach` hooked up; detachable."""

    def __init__(self) -> None:
        self._undo: list = []

    def _hook(self, obj, attr: str, observer) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, observer)

    def detach(self) -> None:
        while self._undo:
            obj, attr, prev = self._undo.pop()
            setattr(obj, attr, prev)

    def __enter__(self) -> "Attachment":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()


def attach(
    obj,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    *,
    lost_slots: bool = False,
) -> Attachment:
    """Instrument ``obj`` (scheduler / table / PMA), returning the handle.

    Works structurally, so every scheduler in the repo qualifies:

    * anything with a ``.ledger``         -> request-level metrics/spans
    * ``.segments.table`` (k-cursor)      -> ``kcursor.*``
    * ``.segments.pma`` (the PMA baseline)-> ``pma.*``
    * ``.servers`` (parallel scheduler)   -> each server's substrate
    * a bare ``KCursorSparseTable`` / ``PackedMemoryArray`` directly
    """
    at = Attachment()
    _attach_into(at, obj, registry, tracer, lost_slots, top=True)
    return at


def _attach_into(at, obj, registry, tracer, lost_slots, *, top) -> None:
    ledger = getattr(obj, "ledger", None)
    if top and ledger is not None and hasattr(ledger, "observer"):
        at._hook(ledger, "observer", LedgerObserver(registry, tracer))
    segments = getattr(obj, "segments", None)
    if segments is not None:
        table = getattr(segments, "table", None)
        if table is not None:
            at._hook(table, "_observer", KCursorObserver(registry, tracer, lost_slots=lost_slots))
        pma = getattr(segments, "pma", None)
        if pma is not None:
            at._hook(pma, "_observer", PMAObserver(registry, tracer))
    for server in getattr(obj, "servers", ()):  # ParallelScheduler
        _attach_into(at, server, registry, tracer, lost_slots, top=False)
    # Bare substrate objects.
    if segments is None and ledger is None:
        if hasattr(obj, "iter_chunks") and hasattr(obj, "_observer"):
            at._hook(obj, "_observer", KCursorObserver(registry, tracer, lost_slots=lost_slots))
        elif hasattr(obj, "check_invariants") and hasattr(obj, "_observer"):
            at._hook(obj, "_observer", PMAObserver(registry, tracer))
