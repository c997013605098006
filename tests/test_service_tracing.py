"""End-to-end service tracing: span trees, latency decomposition,
trace-context propagation under retries, live introspection surfaces."""

import asyncio
import io

import pytest

from repro import faults
from repro.obs import MetricsRegistry
from repro.obs.trace import Tracer, read_trace
from repro.service.client import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.introspect import (
    collect_spans,
    join_traces,
    journal_trace_report,
    lsn_index,
)
from repro.service.protocol import (
    TraceContext,
    request_from_doc,
    request_to_doc,
)
from repro.service.replica import Replicator
from repro.service.server import ServiceServer
from repro.service.sessions import SessionManager
from repro.service.top import render_top
from repro.service.tracing import fault_observer
from tests.conftest import start_slow_replica

#: Independently rounded parts may exceed the rounded total by hairs.
SLOP = 1e-4


@pytest.fixture(autouse=True)
def _no_leaked_hooks():
    yield
    faults.deactivate()
    faults.set_fire_observer(None)


def run(coro):
    return asyncio.run(coro)


def spans_from(buf):
    return collect_spans(read_trace(io.StringIO(buf.getvalue())))


# ----------------------------------------------------------------------
# The tentpole: one traced request end to end


def traced_run(tmp_path, drive, *, fsync="never"):
    """Traced server + traced client; returns (client, server) spans
    plus whatever ``drive`` returned (it gets the async client)."""
    cbuf, sbuf = io.StringIO(), io.StringIO()
    reg = MetricsRegistry()

    async def main():
        server_tracer = Tracer(sbuf, label="server")
        manager = SessionManager(
            str(tmp_path / "data"), fsync=fsync,
            registry=reg, tracer=server_tracer,
        )
        srv = ServiceServer(manager, port=0)
        await srv.start()
        client_tracer = Tracer(cbuf, label="client")
        try:
            async with AsyncServiceClient(
                port=srv.tcp_port, tracer=client_tracer
            ) as c:
                out = await drive(c, manager)
        finally:
            client_tracer.close()
            await srv.stop()
            server_tracer.close()
        return out

    out = run(main())
    return spans_from(cbuf), spans_from(sbuf), reg, out


def test_single_request_joined_span_tree(tmp_path):
    async def drive(c, manager):
        await c.open("s", {"max_size": 16})
        await c.insert("s", "a", 5)
        await c.query("s", "a")
        return None

    client_spans, server_spans, reg, _ = traced_run(tmp_path, drive)

    rows = join_traces(client_spans, server_spans)
    assert len(rows) == 3  # open, insert, query
    assert all(r["joined"] for r in rows), rows
    assert [r["op"] for r in rows] == ["open", "insert", "query"]
    assert all(r["outcome"] == "ok" for r in rows)
    # distinct client calls -> distinct trace ids, each with one attempt
    assert len({r["trace"] for r in rows}) == 3
    assert all(r["attempt"] == 1 and r["attempts"] == 1 for r in rows)
    # the client-side call span wraps the whole server op
    assert all(r["client_total"] >= r["total"] for r in rows)

    ins = next(r for r in rows if r["op"] == "insert")
    assert ins["lsn"] == 1
    # queue/journal/execute decompose the total (remainder = framing)
    assert "queue_wait" in ins and "execute" in ins and ins["journal"] > 0
    for r in rows:
        parts = (r.get("queue_wait", 0.0) + r.get("journal", 0.0)
                 + r.get("execute", 0.0))
        assert parts <= r["total"] + SLOP, r

    # the journal append is a child span of the insert's server.op
    jspans = [s for s in server_spans.values() if s.name == "journal.append"]
    assert len(jspans) == 1
    assert jspans[0].fields["parent"] == ins["server_span"]
    assert jspans[0].fields["lsn"] == 1
    assert jspans[0].trace == ins["trace"]


PARTS = ("dispatch", "queue_wait", "journal", "execute", "handoff")


def assert_parts_tile_total(span):
    """dispatch + queue_wait + journal + execute + handoff == total."""
    f = span.fields
    parts = sum(f.get(k, 0.0) for k in PARTS)
    assert abs(parts - f["total"]) <= SLOP, f


def test_server_parts_sum_to_total(tmp_path):
    async def drive(c, manager):
        await c.open("s", {"max_size": 16})
        for i in range(5):
            await c.insert("s", f"j{i}", 2)
        await c.delete("s", "j0")
        await c.query("s", jobs=True)
        await c.snapshot("s")
        await c.stats()
        return None

    _, server_spans, reg, _ = traced_run(tmp_path, drive)
    ops = [s for s in server_spans.values() if s.name == "server.op"]
    queued = [s for s in ops if "dispatch" in s.fields]
    # open/insert/delete/query/snapshot ran on the session queue; stats
    # never touches one and records only its total.
    assert [s.fields["op"] for s in queued] == (
        ["open"] + ["insert"] * 5 + ["delete", "query", "snapshot"]
    )
    for span in queued:
        assert_parts_tile_total(span)
    stats = next(s for s in ops if s.fields["op"] == "stats")
    assert not any(k in stats.fields for k in PARTS)
    series = reg.snapshot()["series"]
    for name in ("dispatch", "queue_wait", "execute", "handoff"):
        assert series[f"service.op.{name}"]["count"] == len(queued), name
    assert series["service.op.total"]["count"] == len(ops)


def test_handoff_is_the_wait_behind_an_earlier_slower_answer(tmp_path):
    """On one connection, a quorum-replicated insert whose replica acks
    after 0.2 s, then a query on another session: the query finishes at
    once but is answered in request order, so its time goes to handoff."""
    delay = 0.2
    sbuf = io.StringIO()

    async def main():
        stub, stub_port = await start_slow_replica(delay)
        tracer = Tracer(sbuf, label="server")
        manager = SessionManager(
            str(tmp_path / "data"), fsync="never",
            registry=MetricsRegistry(), tracer=tracer,
        )
        manager.set_replicator(
            Replicator([("127.0.0.1", stub_port)], ack_mode="quorum")
        )
        srv = ServiceServer(manager, port=0)
        await srv.start()
        try:
            async with AsyncServiceClient(port=srv.tcp_port) as c:
                await c.open("slow")
                await c.open("fast")
                await asyncio.gather(
                    c.insert("slow", "j0", 1), c.query("fast")
                )
        finally:
            await srv.stop()
            stub.close()
            tracer.close()

    run(main())
    spans = spans_from(sbuf)
    by_op = {
        s.fields["op"]: s for s in spans.values()
        if s.name == "server.op" and s.fields["op"] in ("insert", "query")
    }
    insert, query = by_op["insert"], by_op["query"]
    assert insert.fields["execute"] >= delay * 0.75  # the replica ack
    assert query.fields["execute"] < delay / 4
    assert query.fields["handoff"] >= delay * 0.75
    assert insert.fields["handoff"] < delay / 4
    for span in (insert, query):
        assert_parts_tile_total(span)


def test_latency_series_and_stats_surface(tmp_path):
    async def drive(c, manager):
        await c.open("s", {"max_size": 16})
        for i in range(5):
            await c.insert("s", f"j{i}", 2)
        return manager.stats(None)

    _, _, reg, stats = traced_run(tmp_path, drive)
    lat = stats["latency_ms"]
    assert set(lat) >= {"queue_wait", "journal", "execute", "total"}
    for name, s in lat.items():
        assert s["count"] > 0, name
        assert s["p50"] <= s["p90"] <= s["p99"] <= s["max"]
    # series also ride the registry snapshot
    assert "service.op.total" in reg.snapshot()["series"]
    # per-session introspection rides along
    row = stats["per_session"][0]
    assert row["session"] == "s" and row["active"] == 5


def test_health_op(tmp_path):
    async def drive(c, manager):
        await c.open("s", {"max_size": 16})
        return await c.call("health")

    _, server_spans, _, health = traced_run(tmp_path, drive)
    assert health["ok"] is True
    assert health["sessions"] == 1 and health["live"] == 1
    assert health["degraded"] == 0 and health["uptime_s"] >= 0
    assert any(
        s.name == "server.op" and s.fields.get("op") == "health"
        for s in server_spans.values()
    )


# ----------------------------------------------------------------------
# Trace-context propagation under retries (satellite)


def test_retried_insert_spans_link_both_attempts_to_one_trace(tmp_path):
    cbuf, sbuf = io.StringIO(), io.StringIO()
    reg = MetricsRegistry()

    async def main():
        server_tracer = Tracer(sbuf, label="server")
        manager = SessionManager(
            str(tmp_path / "data"), fsync="never",
            registry=reg, tracer=server_tracer,
        )
        srv = ServiceServer(manager, port=0)
        await srv.start()
        port = srv.tcp_port

        def drive():
            policy = RetryPolicy(attempts=4, base=0.01, seed=0)
            tracer = Tracer(cbuf, label="client")
            with ServiceClient(port=port, retry=policy, tracer=tracer) as c:
                c.open("s", {"max_size": 16})
                # the insert applies, then the response is lost: the
                # client retries with the same idem key and dedups
                faults.activate(
                    faults.parse_plan("server.conn.write=drop@times1")
                )
                c.insert("s", "a", 5)
                assert c.retries == 1
                q = c.query("s", jobs=True)
            tracer.close()
            return q

        q = await asyncio.get_running_loop().run_in_executor(None, drive)
        await srv.stop()
        server_tracer.close()
        return q

    q = run(main())
    assert q["active"] == 1  # applied exactly once
    assert reg.snapshot()["counters"]["service.dedup.hits"] == 1

    client_spans = spans_from(cbuf)
    server_spans = spans_from(sbuf)
    rows = join_traces(client_spans, server_spans)
    ins = [r for r in rows if r["op"] == "insert"]
    assert len(ins) == 2  # both deliveries became server ops
    assert all(r["joined"] for r in ins)
    # ... linked to ONE trace via two distinct attempt spans
    assert len({r["trace"] for r in ins}) == 1
    assert {r["attempt"] for r in ins} == {1, 2}
    assert all(r["attempts"] == 2 for r in ins)
    # the replayed delivery announces itself
    by_attempt = {r["attempt"]: r for r in ins}
    assert by_attempt[1]["lsn"] == 1
    assert "events" not in by_attempt[1]
    assert "dedup.hit" in by_attempt[2]["events"]
    # and only one journal append happened
    japps = [s for s in server_spans.values() if s.name == "journal.append"]
    assert len(japps) == 1
    # the client trace records the retry as an event on that trace
    tid = ins[0]["trace"]
    raw = [r for r in read_trace(io.StringIO(cbuf.getvalue()))
           if r["type"] == "span_event" and r["name"] == "client.retry"]
    assert len(raw) == 1 and raw[0]["trace"] == tid


# ----------------------------------------------------------------------
# Degraded / shed outcomes as span events


def test_degraded_mode_emits_span_event(tmp_path):
    async def drive(c, manager):
        await c.open("s", {"max_size": 16})
        faults.activate(faults.parse_plan(
            "journal.append.io=error:ENOSPC@times1"
        ))
        try:
            await c.insert("s", "a", 3)
        except Exception:
            pass
        # session is now degraded; a second write reports degraded
        try:
            await c.insert("s", "b", 3)
        except Exception:
            pass
        return None

    _, server_spans, _, _ = traced_run(tmp_path, drive)
    events = [e for s in server_spans.values() for e in s.events]
    assert any(e["name"] == "degraded" for e in events)
    # the failed append closed its span with the error recorded
    japps = [s for s in server_spans.values() if s.name == "journal.append"]
    assert any("ENOSPC" in str(s.fields.get("error", "")) for s in japps)
    # failed ops still close their server.op span with the error code
    outcomes = {s.fields.get("outcome")
                for s in server_spans.values() if s.name == "server.op"}
    assert "degraded" in outcomes or "internal" in outcomes


def test_fault_observer_stamps_fault_events(tmp_path):
    async def drive(c, manager):
        tr = manager.tracer
        assert tr is not None
        faults.set_fire_observer(fault_observer(tr))
        faults.activate(faults.parse_plan(
            "journal.append.io=error:EIO@times1"
        ))
        await c.open("s", {"max_size": 16})
        try:
            await c.insert("s", "a", 3)
        except Exception:
            pass
        return None

    _, server_spans, _, _ = traced_run(tmp_path, drive)
    fired = [e for s in server_spans.values() for e in s.events
             if e["name"] == "fault.fired"]
    assert len(fired) == 1
    assert fired[0]["point"] == "journal.append.io"
    assert fired[0]["fault"] == "error"
    # linked to the in-flight op's span and trace
    owner = server_spans[fired[0]["span"]]
    assert owner.name == "server.op" and owner.fields["op"] == "insert"
    assert fired[0]["trace"] == owner.trace


# ----------------------------------------------------------------------
# Journal LSN -> trace forensics


def test_lsn_index_and_journal_report(tmp_path):
    # journal_trace_report wants a file path; spool the server trace to
    # disk for this test instead of a StringIO.  The report runs BEFORE
    # srv.stop(): graceful shutdown checkpoints the session and truncates
    # its journal (which is why the CI smoke gate SIGKILLs instead).
    cbuf = io.StringIO()
    reg = MetricsRegistry()
    spath = _trace_path(tmp_path)

    async def main():
        server_tracer = Tracer(spath, label="server")
        manager = SessionManager(
            str(tmp_path / "data"), fsync="never",
            registry=reg, tracer=server_tracer,
        )
        srv = ServiceServer(manager, port=0)
        await srv.start()
        client_tracer = Tracer(cbuf, label="client")
        try:
            async with AsyncServiceClient(
                port=srv.tcp_port, tracer=client_tracer
            ) as c:
                await c.open("s", {"max_size": 16})
                await c.insert("s", "a", 5)
                await c.insert("s", "b", 3)
                await c.delete("s", "a")
                server_tracer.flush()
                rep = journal_trace_report(str(tmp_path / "data"), spath)
        finally:
            client_tracer.close()
            await srv.stop()
            server_tracer.close()
        return rep

    rep = run(main())
    assert rep["records"] == 3
    assert rep["resolved"] == 3
    rows = rep["sessions"]["s"]["rows"]
    assert [r["lsn"] for r in rows] == [1, 2, 3]
    assert [r["op"] for r in rows] == ["insert", "insert", "delete"]
    assert all(r["trace"] for r in rows)
    assert all(r["idem"] for r in rows)  # auto-idem stamped by the client

    spans = collect_spans(read_trace(spath))
    idx = lsn_index(spans)
    assert set(idx) == {("s", 1), ("s", 2), ("s", 3)}
    assert idx[("s", 1)]["op"] == "insert"


def _trace_path(tmp_path):
    return str(tmp_path / "server-trace.jsonl")


# ----------------------------------------------------------------------
# repro top rendering (pure; the print loop lives in the CLI)


def test_render_top_frame(tmp_path):
    async def drive(c, manager):
        await c.open("s", {"max_size": 16})
        await c.insert("s", "a", 5)
        return manager.stats(None)

    _, _, _, stats = traced_run(tmp_path, drive)
    frame = render_top(stats, target="127.0.0.1:1234")
    assert "repro top -- 127.0.0.1:1234" in frame
    assert "uptime" in frame
    assert "sessions  open 1  live 1" in frame
    assert "latency ms" in frame and "queue_wait" in frame
    lines = frame.splitlines()
    sess_row = next(l for l in lines if l.lstrip().startswith("s "))
    assert "ok" in sess_row
    # degraded sessions get flagged
    stats["per_session"][0]["degraded"] = True
    assert "DEGRADED" in render_top(stats)


def test_render_top_minimal_doc():
    # a sparse stats doc (no registry, no sessions) still renders
    frame = render_top({"ops": 0, "queue_depth": 0})
    assert frame.startswith("repro top")
    assert "latency" not in frame


def test_render_top_caps_session_table():
    stats = {
        "sessions": {"open": 30, "live": 5, "on_disk": 30, "degraded": 0},
        "per_session": [
            {"session": f"s{i:02d}", "live": i < 5, "ops": i,
             "queue": 0, "dedup": 0, "degraded": False, "active": i}
            for i in range(30)
        ],
    }
    frame = render_top(stats, max_sessions=10)
    assert "... 20 more" in frame
    assert "s09" in frame and "s10" not in frame


# ----------------------------------------------------------------------
# Wire-level trace context


def test_trace_context_round_trips_on_the_wire():
    req = request_from_doc({
        "op": "insert", "id": 7, "session": "s", "name": "a", "size": 3,
        "trace": {"tid": "t1-abc", "span": 42},
    })
    assert req.trace == TraceContext(tid="t1-abc", span=42)
    doc = request_to_doc(req)
    assert doc["trace"] == {"tid": "t1-abc", "span": 42}
    # absent trace stays absent
    bare = request_to_doc(request_from_doc({"op": "ping"}))
    assert "trace" not in bare


def test_untraced_server_still_serves(tmp_path):
    # zero-overhead path: no tracer, no registry -> no OpTrace at all
    async def main():
        manager = SessionManager(str(tmp_path / "data"), fsync="never")
        srv = ServiceServer(manager, port=0)
        await srv.start()
        async with AsyncServiceClient(port=srv.tcp_port) as c:
            await c.open("s", {"max_size": 16})
            assert (await c.insert("s", "a", 2))["lsn"] == 1
            health = await c.call("health")
            assert health["ok"] is True
        await srv.stop()

    run(main())
