"""Observability layer: metrics semantics, span nesting, JSONL round-trip,
strict no-op when disabled, and trace-vs-accounting differential checks."""

import io
import json
import logging
import random

import pytest

from repro.obs import (
    MetricsRegistry,
    TraceSchemaError,
    Tracer,
    attach,
    configure_logging,
    format_snapshot,
    get_logger,
    read_trace,
    replay_trace,
    validate_record,
)
from repro.core import SingleServerScheduler
from repro.kcursor import KCursorSparseTable, Params
from repro.kcursor.accounting import AccountingAuditor, audit_run
from repro.pma import PackedMemoryArray
from repro.sim.runner import run_trace
from repro.workloads import generators


# ---------------------------------------------------------------------------
# Metrics registry semantics


def test_counter_gauge_semantics():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(4)
    assert reg.value("a") == 5
    reg.gauge("g").set(2.5)
    reg.gauge("g").set(-1.0)
    assert reg.value("g") == -1.0
    assert reg.value("never-touched") == 0


def test_histogram_semantics():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (1, 2, 3, 10):
        h.observe(v)
    assert h.count == 4
    assert h.total == 16
    assert h.mean == 4.0
    assert h.min == 1 and h.max == 10
    # Power-of-two buckets: 1 -> 2^0, 2 -> 2^1, 3 -> 2^2, 10 -> 2^4.
    assert h.buckets == {"2^0": 1, "2^1": 1, "2^2": 1, "2^4": 1}


def test_timer_uses_monotonic_elapsed():
    reg = MetricsRegistry()
    with reg.timer("t.seconds"):
        pass
    h = reg.histogram("t.seconds")
    assert h.count == 1
    assert 0.0 <= h.total < 1.0


def test_metric_kind_collision_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.histogram("x")


def test_snapshot_roundtrips_through_json():
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.histogram("h").observe(7)
    snap = json.loads(json.dumps(reg.snapshot()))
    assert snap["counters"]["c"] == 3
    assert snap["histograms"]["h"]["count"] == 1
    assert "c" in format_snapshot(snap)


# ---------------------------------------------------------------------------
# Tracer: spans, schema, round-trip


def test_span_nesting_and_parent_links():
    buf = io.StringIO()
    tr = Tracer(buf, label="nesting")
    with tr.span("outer", k=1):
        with tr.span("inner"):
            tr.emit("metric", {"m": {"x": 1}})
    tr.close()
    recs = list(read_trace(io.StringIO(buf.getvalue())))
    types = [r["type"] for r in recs]
    assert types == ["trace_start", "span_start", "span_start", "metric",
                     "span_end", "span_end", "trace_end"]
    outer = recs[1]
    inner = recs[2]
    assert "parent" not in outer
    assert inner["parent"] == outer["span"]
    assert [r["seq"] for r in recs] == list(range(len(recs)))


def test_unclosed_spans_closed_on_close():
    buf = io.StringIO()
    tr = Tracer(buf)
    tr.begin_span("left-open")
    tr.close()
    names = [r.get("name") for r in read_trace(io.StringIO(buf.getvalue()))
             if r["type"] == "span_end"]
    assert names == ["<unclosed>"]


def test_validate_record_rejects_bad_records():
    with pytest.raises(TraceSchemaError):
        validate_record({"v": 1, "seq": 0, "t": 0.0, "type": "no-such-type"})
    with pytest.raises(TraceSchemaError):
        validate_record({"v": 99, "seq": 0, "t": 0.0, "type": "trace_end"})
    with pytest.raises(TraceSchemaError):
        validate_record({"v": 1, "seq": 0, "type": "trace_end"})  # missing t
    with pytest.raises(TraceSchemaError):
        validate_record(
            {"v": 1, "seq": 0, "t": 0.0, "type": "metric", "m": {"x": 1.5}}
        )


def test_jsonl_roundtrip_on_disk(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with Tracer(path, label="disk") as tr:
        tr.emit("metric", {"m": {"a.b": 2}})
        tr.emit("metric", {"m": {"a.b": 3}})
    recs = list(read_trace(path))
    assert recs[0]["label"] == "disk"
    assert recs[-1]["type"] == "trace_end"
    reg = replay_trace(path)
    assert reg.value("a.b") == 5


# ---------------------------------------------------------------------------
# Disabled mode is a strict no-op


def test_disabled_tables_allocate_no_event_records():
    t = KCursorSparseTable(4, params=Params.explicit(4, 2))
    assert t._observer is None
    for _ in range(100):
        t.insert(0)
    s = SingleServerScheduler(32, delta=0.5)
    assert s.ledger.observer is None
    s.insert("a", 4)
    pma = PackedMemoryArray()
    assert pma._observer is None
    pma.insert(0, 1)


def test_attach_detach_restores_none():
    s = SingleServerScheduler(32, delta=0.5)
    reg = MetricsRegistry()
    with attach(s, reg):
        assert s.ledger.observer is not None
        assert s.segments.table._observer is not None
        s.insert("a", 4)
    assert s.ledger.observer is None
    assert s.segments.table._observer is None
    assert reg.value("sched.insert.count") == 1


# ---------------------------------------------------------------------------
# Differential: trace replay == in-memory accounting


def drive_table(t, ops, seed=0, observe=None):
    rng = random.Random(seed)
    for _ in range(ops):
        j = rng.randrange(t.k)
        if rng.random() < 0.55 or t.district_len(j) == 0:
            t.insert(j)
        else:
            t.delete(j)
        if observe is not None:
            observe()


def test_kcursor_trace_matches_accounting_totals(tmp_path):
    path = str(tmp_path / "kc.jsonl")
    t = KCursorSparseTable(8, params=Params.explicit(8, 2))
    auditor = AccountingAuditor(t)
    reg = MetricsRegistry()
    with Tracer(path, label="kc") as tr, attach(t, reg, tr):
        drive_table(t, 1500, seed=7, observe=auditor.observe)
    replayed = replay_trace(path)
    # The trace replays to the exact totals of the live registry ...
    assert replayed.value("kcursor.rebalance.count") == reg.value("kcursor.rebalance.count")
    # ... which equal the table's own cost counter and the auditor's totals.
    assert reg.value("kcursor.rebalance.count") == t.counter.rebuilds
    assert replayed.value("kcursor.cost") == auditor.report.total_cost
    assert replayed.value("kcursor.slots.moved") == t.counter.slots_moved
    assert replayed.value("kcursor.op.count") == t.counter.ops == auditor.report.ops


def test_scheduler_trace_matches_ledger(tmp_path):
    path = str(tmp_path / "run.jsonl")
    trace = generators.mixed(400, 64, seed=3)
    sched = SingleServerScheduler(64, delta=0.5)
    reg = MetricsRegistry()
    with Tracer(path, label=trace.label) as tr:
        res = run_trace(sched, trace, registry=reg, tracer=tr)
    replayed = replay_trace(path)
    ledger = sched.ledger
    moved_volume = sum(w * c for w, c in ledger.realloc_hist.items())
    assert replayed.value("sched.realloc.volume") == moved_volume
    assert replayed.value("sched.realloc.jobs") == ledger.moved_jobs_total()
    assert replayed.value("sched.op.count") == ledger.ops == res.ops
    assert replayed.value("kcursor.rebalance.count") == \
        sched.segments.table.counter.rebuilds
    assert res.metrics is not None
    assert res.metrics["counters"] == replayed.snapshot()["counters"]
    # Spans nest: every table_op/realloc points into an enclosing op span.
    recs = list(read_trace(path))
    open_spans = set()
    for r in recs:
        if r["type"] == "span_start":
            open_spans.add(r["span"])
        elif r["type"] == "span_end":
            open_spans.discard(r["span"])
        elif r["type"] in ("table_op", "realloc"):
            assert r["parent"] in open_spans


def test_pma_scheduler_traced(tmp_path):
    from repro.baselines import PMABackedScheduler

    path = str(tmp_path / "pma.jsonl")
    trace = generators.mixed(150, 32, seed=5)
    sched = PMABackedScheduler(32, delta=0.5)
    reg = MetricsRegistry()
    with Tracer(path) as tr:
        run_trace(sched, trace, registry=reg, tracer=tr)
    replayed = replay_trace(path)
    assert replayed.value("pma.recopy.elements") == \
        sched.segments.pma.counter.slots_moved
    assert replayed.value("pma.op.count") == sched.segments.pma.counter.ops


def test_parallel_scheduler_instrumented():
    from repro.core import ParallelScheduler

    trace = generators.mixed(200, 32, seed=9)
    sched = ParallelScheduler(3, 32, delta=0.5)
    reg = MetricsRegistry()
    res = run_trace(sched, trace, registry=reg)
    assert reg.value("sched.op.count") == res.ops
    assert reg.value("kcursor.op.count") > 0  # server substrates hooked
    # The request counters are the ledger's own totals, migrations included.
    led = sched.ledger
    assert led.total_migrations > 0  # the stream exercises Invariant 5
    assert reg.value("sched.migrations") == led.total_migrations
    assert reg.value("sched.realloc.jobs") == led.moved_jobs_total()
    assert reg.value("sched.realloc.volume") == sum(
        w * c for w, c in led.realloc_hist.items()
    )


def test_lost_slots_metric():
    t = KCursorSparseTable(8, params=Params.explicit(8, 2))
    reg = MetricsRegistry()
    # Heavy tail then hammer the leftmost district: boundary movement.
    for j in range(8):
        for _ in range(50 * (j + 1)):
            t.insert(j)
    with attach(t, reg, lost_slots=True):
        for _ in range(300):
            t.insert(0)
    assert reg.value("kcursor.op.count") == 300
    assert reg.value("kcursor.lost_slots") >= 0  # present and consistent
    snap = reg.snapshot()
    assert "kcursor.lost_slots" in snap["counters"]


def test_audit_run_with_registry():
    rep = audit_run(8, 400, factor=2, seed=1, registry=MetricsRegistry())
    assert rep.metrics is not None
    assert rep.metrics["counters"]["audit.ops"] == 400
    assert rep.metrics["counters"]["kcursor.cost"] == rep.total_cost
    assert rep.metrics["histograms"]["audit.amortized"]["count"] == 400


# ---------------------------------------------------------------------------
# Logging setup


def test_configure_logging_idempotent_and_leveled():
    stream = io.StringIO()
    root = configure_logging("info", stream=stream)
    configure_logging("debug", stream=stream)  # re-level, no second handler
    handlers = [h for h in root.handlers
                if getattr(h, "_repro_handler", False)]
    assert len(handlers) == 1
    log = get_logger("unit-test")
    assert log.name == "repro.unit-test"
    log.debug("visible at debug")
    assert "visible at debug" in stream.getvalue()
    configure_logging("warning", stream=stream)
    log.info("now invisible")
    assert "now invisible" not in stream.getvalue()


def test_configure_logging_rejects_unknown_level():
    with pytest.raises(ValueError):
        configure_logging("chatty")


def test_null_handler_by_default():
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("repro").handlers)


# ---------------------------------------------------------------------------
# Power-of-two bucketing: edge cases + the pinned property


def test_bucket_edge_cases():
    from repro.obs.metrics import _bucket

    assert _bucket(0.0) == "0"
    assert _bucket(-3.5) == "0"
    assert _bucket(float("-inf")) == "0"
    assert _bucket(float("inf")) == "inf"
    assert _bucket(float("nan")) == "nan"
    # exact powers of two are their own bucket bound
    assert _bucket(1.0) == "2^0"
    assert _bucket(8.0) == "2^3"
    assert _bucket(0.5) == "2^-1"
    assert _bucket(8.0001) == "2^4"


def test_bucket_property_smallest_covering_power():
    from fractions import Fraction

    from hypothesis import given
    from hypothesis import strategies as st

    from repro.obs.metrics import _bucket

    @given(st.floats(min_value=0.0, exclude_min=True,
                     allow_nan=False, allow_infinity=False))
    def check(v):
        label = _bucket(v)
        assert label.startswith("2^"), label
        e = int(label[2:])
        # smallest covering power: 2^(e-1) < v <= 2^e (Fractions keep
        # the comparison exact down to subnormals)
        assert Fraction(2) ** (e - 1) < Fraction(v) <= Fraction(2) ** e

    check()


# ---------------------------------------------------------------------------
# Shared exact percentiles + latency series


def test_percentile_nearest_rank_exact():
    from repro.obs.metrics import percentile

    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile([], 0.5) == 0.0
    assert percentile(xs, 0.0) == 1.0
    assert percentile(xs, 0.25) == 1.0
    assert percentile(xs, 0.5) == 2.0
    assert percentile(xs, 0.75) == 3.0
    assert percentile(xs, 0.9) == 4.0
    assert percentile(xs, 1.0) == 4.0
    assert percentile([7.0], 0.99) == 7.0


def test_summarize_scales_and_counts():
    from repro.obs.metrics import summarize

    s = summarize([0.001, 0.002, 0.003], scale=1000.0)
    assert s["count"] == 3.0
    assert s["p50"] == 2.0 and s["max"] == 3.0
    assert abs(s["mean"] - 2.0) < 1e-9
    empty = summarize([])
    assert empty == {"count": 0.0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                     "p99": 0.0, "max": 0.0}


def test_series_ring_window_and_lifetime_count():
    from repro.obs.metrics import Series

    s = Series("lat", cap=4)
    for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
        s.observe(v)
    assert s.values() == [3.0, 4.0, 5.0, 6.0]  # newest win, oldest first
    assert s.count == 6 and s.total == 21.0
    summ = s.summary()
    assert summ["count"] == 6.0  # lifetime, not window
    assert summ["max"] == 6.0 and summ["p50"] == 4.0
    with pytest.raises(ValueError):
        Series("bad", cap=0)


def test_registry_series_get_or_create_and_summaries():
    reg = MetricsRegistry()
    a = reg.series("service.op.total")
    assert reg.series("service.op.total") is a
    a.observe(0.002)
    reg.series("service.op.journal").observe(0.001)
    out = reg.series_summaries("service.op.", scale=1000.0)
    assert set(out) == {"total", "journal"}
    assert out["total"]["p50"] == 2.0
    assert "series" in reg.snapshot()
    assert "service.op.total" in reg.snapshot()["series"]


# ---------------------------------------------------------------------------
# Detached spans + tolerant trace reading (killed writers)


def test_detached_spans_interleave_and_close():
    buf = io.StringIO()
    t = Tracer(buf, label="detached")
    a = t.open_span("server.op", {"op": "insert", "trace": "t1", "pspan": 9})
    b = t.open_span("server.op", {"op": "query", "trace": "t2"})
    t.event("shed", {"span": b, "trace": "t2"})
    t.close_span(b, "server.op", {"outcome": "ok"})
    t.close_span(a, "server.op", {"outcome": "ok", "lsn": 3})
    t.close()
    recs = list(read_trace(io.StringIO(buf.getvalue())))
    types = [r["type"] for r in recs]
    assert types.count("span_start") == 2
    assert types.count("span_end") == 2
    assert any(r["type"] == "span_event" and r["name"] == "shed"
               for r in recs)
    ends = [r for r in recs if r["type"] == "span_end"]
    assert ends[0]["span"] == b and ends[1]["span"] == a  # caller's order


def test_unclosed_detached_spans_flushed_on_close():
    buf = io.StringIO()
    t = Tracer(buf, label="leak")
    sid = t.open_span("server.op", {"op": "insert"})
    t.close()
    ends = [r for r in read_trace(io.StringIO(buf.getvalue()))
            if r["type"] == "span_end"]
    assert len(ends) == 1
    assert ends[0]["span"] == sid and ends[0]["unclosed"] is True


def test_tolerant_reader_drops_only_torn_tail():
    buf = io.StringIO()
    t = Tracer(buf, label="killed")
    t.event("alive", {})
    text = buf.getvalue() + '{"v":1,"seq":99,"t":0.5,"type":"span_st'
    recs = list(read_trace(io.StringIO(text), tolerant=True))
    assert [r["type"] for r in recs] == ["trace_start", "span_event"]
    # strict mode still refuses the same stream
    with pytest.raises(TraceSchemaError):
        list(read_trace(io.StringIO(text)))
    # mid-file garbage is corruption, not a torn tail: tolerant raises
    bad = '{"nope": 1}\n' + text
    with pytest.raises(TraceSchemaError):
        list(read_trace(io.StringIO(bad), tolerant=True))


def test_tracer_flush_pushes_buffered_records(tmp_path):
    path = str(tmp_path / "t.jsonl")
    t = Tracer(path, label="flushy")
    t.event("mark", {})
    t.flush()
    # readable mid-flight, without close(): what the fault observer
    # relies on ahead of an injected os._exit
    recs = list(read_trace(path, tolerant=True))
    assert [r["type"] for r in recs] == ["trace_start", "span_event"]
    t.close()
