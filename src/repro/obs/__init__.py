"""Observability: metrics registry, structured tracing, logging.

Every headline claim of the paper is a statement about counted events --
amortized reallocation cost per request (Thm 1/9), rebuild cascades and
lost slots in the k-cursor table (Thms 16/18/19), PMA recopy volume (the
``Θ(log² n)`` contrast).  This package turns those events into:

* a :class:`MetricsRegistry` of counters / gauges / histograms that the
  scheduler, k-cursor and PMA hot paths publish to when (and only when)
  instrumentation is attached -- zero overhead otherwise;
* a :class:`Tracer` emitting structured JSONL with nested spans, exact
  enough that :func:`replay_trace` reproduces the in-memory totals.

Quick start::

    from repro.obs import MetricsRegistry, Tracer, attach

    reg = MetricsRegistry()
    with Tracer("run.jsonl") as tr, attach(scheduler, reg, tr):
        ... drive the scheduler ...
    print(reg.value("sched.realloc.volume"))

or from the CLI: ``repro run --trace run.jsonl --metrics`` and
``repro report run.jsonl``.  The metric catalogue and record schema are
documented in docs/INTERNALS.md ("Observability").
"""

from repro.obs.instrument import (
    Attachment,
    KCursorObserver,
    LedgerObserver,
    PMAObserver,
    attach,
)
from repro.obs.logsetup import configure_logging, console, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    Timer,
    format_snapshot,
    percentile,
    summarize,
)
from repro.obs.trace import (
    SCHEMA_VERSION,
    TRACE_SCHEMA,
    TraceSchemaError,
    Tracer,
    read_trace,
    replay_trace,
    validate_record,
)

__all__ = [
    "Attachment",
    "Counter",
    "Gauge",
    "Histogram",
    "KCursorObserver",
    "LedgerObserver",
    "MetricsRegistry",
    "PMAObserver",
    "SCHEMA_VERSION",
    "Series",
    "TRACE_SCHEMA",
    "Timer",
    "TraceSchemaError",
    "Tracer",
    "attach",
    "configure_logging",
    "console",
    "format_snapshot",
    "get_logger",
    "percentile",
    "read_trace",
    "summarize",
    "replay_trace",
    "validate_record",
]
