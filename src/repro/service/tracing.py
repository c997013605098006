"""Server-side request tracing: per-op latency decomposition + span tree.

One :class:`OpTrace` accompanies each traced request from parse to
reply.  It owns two jobs:

* **Latency decomposition.**  Six exact-percentile series in the
  server's :class:`~repro.obs.metrics.MetricsRegistry`::

      service.op.dispatch     request parse -> enqueue on the session queue
      service.op.queue_wait   enqueue -> dequeue in the session queue
      service.op.journal      journal append/checkpoint (incl. fsync);
                              each write of a batch is charged the
                              batch's whole append
      service.op.execute      op execution (and its replication ship)
                              minus the journal time
      service.op.handoff      op done -> answer written to the connection
      service.op.total        request parse -> answer written

  For an op that ran on a session queue the first five sum to
  ``total`` (they tile its timeline; the tracing tests pin it).
  Answers go out in request order, so ``handoff`` includes the wait
  behind earlier, slower requests on the same connection.  A barrier
  op's clock starts once every earlier request on its connection is
  answered.

* **Span tree.**  With a tracer attached, the request becomes a
  detached ``server.op`` span carrying the client's trace id
  (``trace``) and remote parent span (``pspan``), with
  ``journal.append`` / ``journal.checkpoint`` child spans, a
  ``journal.fsync`` sub-span, and the assigned ``lsn`` recorded on both
  the journal span and the ``server.op`` span end.  Shed, degraded and
  dedup outcomes surface as ``span_event`` records.

The hand-off into synchronous depths (the journal does not take an
``OpTrace`` argument) rides the module global :data:`CURRENT`: the
session worker sets it around each op's synchronous work and resets it
once the turn's replication ship is done.  In a group-commit batch
``CURRENT`` is each write's own op while that write is validated, then
the batch's first traced write (the *lead*) for its one journal append:
the lead gets the ``journal.append`` span, and each other write whose
record rode the append is charged its time through :meth:`OpTrace.waited`
and gets its own ``lsn``.  That work runs with no awaits inside, so
while it runs ``CURRENT`` is the op it names and no other; but a worker
awaiting its ship lets other sessions' workers run (and reset
``CURRENT``), so only the synchronous part of a turn may rely on it.
Every read of ``CURRENT`` (and of any ``tracer`` attribute) must sit
behind an ``is not None`` guard -- reprolint RL008 enforces the
zero-overhead-when-disabled contract.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.protocol import TraceContext

#: The six decomposition series (docs/OBSERVABILITY.md).
SERIES_DISPATCH = "service.op.dispatch"
SERIES_QUEUE_WAIT = "service.op.queue_wait"
SERIES_JOURNAL = "service.op.journal"
SERIES_EXECUTE = "service.op.execute"
SERIES_HANDOFF = "service.op.handoff"
SERIES_TOTAL = "service.op.total"

#: The op currently executing inside a session worker, if traced.
#: Set by the worker turn (:meth:`repro.service.sessions.SessionManager.
#: _turn`) and reset after its replication ship (see the module
#: docstring for what that guarantees).
CURRENT: Optional["OpTrace"] = None


class OpTrace:
    """Lifecycle recorder for one traced request (see module docstring).

    Constructed by the server front end after parsing; threaded through
    admission into the session queue; consulted by the journal via
    :data:`CURRENT`; finished exactly once on every reply path, just
    before the answer is written.
    """

    __slots__ = (
        "op",
        "session",
        "tracer",
        "registry",
        "tid",
        "pspan",
        "sid",
        "queued",
        "lsn",
        "journal_s",
        "fsync_s",
        "exec_s",
        "_t0",
        "_t_enq",
        "_t_deq",
        "_t_done",
        "_t_j",
        "_jsid",
        "_jname",
    )

    def __init__(
        self,
        op: str,
        session: Optional[str],
        *,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        tctx: Optional[TraceContext] = None,
    ) -> None:
        self.op = op
        self.session = session
        self.tracer = tracer
        self.registry = registry
        self.tid: Optional[str] = tctx.tid if tctx is not None else None
        self.pspan: Optional[int] = tctx.span if tctx is not None else None
        self.sid: Optional[int] = None
        self.queued = False
        self.lsn: Optional[int] = None
        self.journal_s = 0.0
        self.fsync_s = 0.0
        self.exec_s = 0.0
        self._t0 = time.perf_counter()
        self._t_enq = 0.0
        self._t_deq = 0.0
        self._t_done = 0.0
        self._t_j = 0.0
        self._jsid: Optional[int] = None
        self._jname = ""
        if tracer is not None:
            payload: dict[str, Any] = {"op": op}
            if session is not None:
                payload["session"] = session
            if self.tid is not None:
                payload["trace"] = self.tid
            if self.pspan is not None:
                payload["pspan"] = self.pspan
            self.sid = tracer.open_span("server.op", payload)

    # -- queue boundary ----------------------------------------------------

    def enqueued(self) -> None:
        """The request entered its session queue."""
        self.queued = True
        self._t_enq = time.perf_counter()

    def dequeued(self) -> None:
        """The session worker picked the request up."""
        self._t_deq = time.perf_counter()

    def executed(self) -> None:
        """The op function (and its replication ship) finished: the
        answer is ready from now on."""
        self._t_done = time.perf_counter()
        self.exec_s = self._t_done - self._t_deq

    # -- journal hooks (called via CURRENT from repro.service.journal) ----

    def journal_begin(self, kind: str) -> None:
        """A journal ``append``/``checkpoint`` started for this op."""
        self._t_j = time.perf_counter()
        self._jname = f"journal.{kind}"
        tr = self.tracer
        if tr is not None:
            payload: dict[str, Any] = {}
            if self.sid is not None:
                payload["parent"] = self.sid
            if self.tid is not None:
                payload["trace"] = self.tid
            self._jsid = tr.open_span(self._jname, payload)

    def fsync_done(self, seconds: float) -> None:
        """An fsync inside the current journal operation completed."""
        self.fsync_s += seconds
        tr = self.tracer
        if tr is not None:
            payload: dict[str, Any] = {"seconds": round(seconds, 6)}
            if self._jsid is not None:
                payload["parent"] = self._jsid
            if self.tid is not None:
                payload["trace"] = self.tid
            fsid = tr.open_span("journal.fsync", payload)
            tr.close_span(fsid, "journal.fsync")

    def journal_end(
        self,
        lsn: Optional[int] = None,
        *,
        error: Optional[str] = None,
        records: Optional[int] = None,
    ) -> None:
        """The journal operation finished (LSN assigned) or failed.  An
        append passes how many ``records`` its batch wrote; ``lsn`` is
        then the batch's last."""
        dt = time.perf_counter() - self._t_j
        self.journal_s += dt
        if lsn is not None:
            self.lsn = lsn
        tr = self.tracer
        if tr is not None:
            jsid = self._jsid
            if jsid is not None:
                payload: dict[str, Any] = {"seconds": round(dt, 6)}
                if lsn is not None:
                    payload["lsn"] = lsn
                if records is not None:
                    payload["records"] = records
                if error is not None:
                    payload["error"] = error
                tr.close_span(jsid, self._jname, payload)
                self._jsid = None

    def waited(self, journal_s: float, fsync_s: float) -> None:
        """This op's record rode another op's journal append (group
        commit): it is charged the whole append, which it waited out."""
        self.journal_s += journal_s
        self.fsync_s += fsync_s

    # -- events ------------------------------------------------------------

    def event(self, name: str, payload: Optional[dict[str, Any]] = None) -> None:
        """A point-in-time outcome on this op (shed, degraded, dedup.hit)."""
        tr = self.tracer
        if tr is not None:
            rec: dict[str, Any] = dict(payload) if payload else {}
            if self.sid is not None:
                rec["span"] = self.sid
            if self.tid is not None:
                rec["trace"] = self.tid
            tr.event(name, rec)

    # -- completion --------------------------------------------------------

    def finish(self, *, ok: bool, code: Optional[str] = None) -> None:
        """Record the decomposition and close the ``server.op`` span."""
        t_end = time.perf_counter()
        total = t_end - self._t0
        ran = self.queued and self._t_done > 0.0
        dispatch = queue_wait = execute = handoff = 0.0
        if ran:
            dispatch = self._t_enq - self._t0
            queue_wait = self._t_deq - self._t_enq
            execute = max(0.0, self.exec_s - self.journal_s)
            handoff = t_end - self._t_done
        reg = self.registry
        if reg is not None:
            reg.series(SERIES_TOTAL).observe(total)
            if ran:
                reg.series(SERIES_DISPATCH).observe(dispatch)
                reg.series(SERIES_QUEUE_WAIT).observe(queue_wait)
                reg.series(SERIES_EXECUTE).observe(execute)
                reg.series(SERIES_HANDOFF).observe(handoff)
            if self.journal_s > 0.0:
                reg.series(SERIES_JOURNAL).observe(self.journal_s)
        tr = self.tracer
        if tr is not None:
            sid = self.sid
            if sid is not None:
                payload: dict[str, Any] = {
                    "op": self.op,
                    "outcome": "ok" if ok else (code or "error"),
                    "total": round(total, 6),
                }
                if self.session is not None:
                    payload["session"] = self.session
                if self.tid is not None:
                    payload["trace"] = self.tid
                if ran:
                    payload["dispatch"] = round(dispatch, 6)
                    payload["queue_wait"] = round(queue_wait, 6)
                    payload["execute"] = round(execute, 6)
                    payload["handoff"] = round(handoff, 6)
                if self.journal_s > 0.0:
                    payload["journal"] = round(self.journal_s, 6)
                if self.fsync_s > 0.0:
                    payload["fsync"] = round(self.fsync_s, 6)
                if self.lsn is not None:
                    payload["lsn"] = self.lsn
                tr.close_span(sid, "server.op", payload)
                # One userspace flush per traced request (no fsync): a
                # SIGKILLed server -- the only way to stop it while
                # keeping its journal segments for LSN forensics --
                # loses at most the op in flight, never finished spans.
                tr.flush()


def fault_observer(tracer: Tracer) -> Callable[[str, str], None]:
    """Adapter for :func:`repro.faults.set_fire_observer`.

    Every failpoint that fires becomes a ``fault.fired`` span event,
    linked to the op being executed when one is in flight -- emitted
    *before* the fault behavior runs, so even an ``exit`` behavior
    (``os._exit`` inside the journal) leaves its mark in the trace.
    """

    def _on_fire(point: str, kind: str) -> None:
        payload: dict[str, Any] = {"point": point, "fault": kind}
        ot = CURRENT
        if ot is not None:
            if ot.sid is not None:
                payload["span"] = ot.sid
            if ot.tid is not None:
                payload["trace"] = ot.tid
        tracer.event("fault.fired", payload)
        if kind == "exit":
            # os._exit skips every buffer flush; push the event out now
            # so the crash forensics survive (tolerant trace readers
            # then drop at most the torn tail, never this record).
            tracer.flush()

    return _on_fire
