"""The one call policy every client runs: :class:`CallPlan` on a virtual
clock (hypothesis properties), the shells that drive it over real
sockets, and the rules all four clients share -- reconnect after any
failure, one backoff schedule and one whole-call deadline across hops,
a refused connect counted as a lost connection, ``close()`` is final,
and traced cluster calls that join their server ops."""

import asyncio
import io
import itertools
import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.client import AsyncClusterClient, ClusterClient
from repro.cluster.group import ShardSpec
from repro.cluster.placement import PlacementMap
from repro.obs.trace import Tracer, read_trace
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.introspect import collect_spans, join_traces
from repro.service.protocol import (
    ErrorCode,
    Request,
    ServiceError,
    encode,
    error_response,
    ok_response,
)
from repro.service.retry import CallPlan, RetryPolicy, Step
from repro.service.server import ServiceServer
from repro.service.sessions import SessionManager


def run(coro):
    return asyncio.run(coro)


async def in_thread(fn):
    """Run a blocking client against the in-process servers."""
    return await asyncio.get_running_loop().run_in_executor(None, fn)


# ----------------------------------------------------------------------
# CallPlan on a virtual clock


#: Known shards and their copies: two primaries, one with two copies.
COPIES = {"p0": ["p0r0", "p0r1"], "p0r0": [], "p0r1": [], "p1": []}

policies = st.none() | st.builds(
    RetryPolicy,
    attempts=st.integers(1, 6),
    base=st.floats(0.0, 0.5),
    factor=st.floats(1.0, 3.0),
    max_delay=st.floats(0.0, 1.0),
    jitter=st.floats(0.0, 0.9),
    seed=st.integers(0, 50),
    retry_degraded=st.booleans(),
)
answers = st.tuples(
    st.just("answer"),
    st.sampled_from(list(ErrorCode)),
    st.none() | st.floats(0.0, 1.0),
    st.sampled_from([None, "p0", "p1", "p0r1", "elsewhere"]),
)
outcomes = st.lists(answers | st.just(("lost",)), max_size=12)


def failure(outcome):
    if outcome[0] == "lost":
        return ConnectionError("connection reset")
    _, code, retry_after, moved = outcome
    return ServiceError(code, "stub", retry_after=retry_after, moved=moved)


def drive(policy, timeout, max_hops, session, outcomes, probes, fracs):
    """Run one call on a virtual clock the way the shells do: every
    attempt or probe takes a fraction of its budget (or of 1 s).
    Returns the step log; asserts the per-step properties on the way."""
    clock = 0.0
    fracs = itertools.cycle(fracs)
    outs, answers_ = iter(outcomes), iter(probes)
    shard, budget, plan = "p0", timeout, None
    log = []
    while True:
        log.append(("send", shard, budget))
        if timeout is not None:
            assert budget is not None and budget > 0
        clock += (1.0 if budget is None else budget) * next(fracs)
        outcome = next(outs, None)
        if outcome is None:
            log.append(("ok",))
            return log, plan, clock
        if plan is None:
            plan = CallPlan(
                policy, timeout=timeout, start=0.0, shard=shard,
                session=session, copies=COPIES, max_hops=max_hops,
            )
        hops = plan.hops
        budget_left = timeout is None or clock < timeout
        step = plan.failed(failure(outcome), clock)
        if outcome[0] == "answer":
            code, moved = outcome[1], outcome[3]
            if (
                code is ErrorCode.MOVED and session is not None
                and moved in COPIES and hops < max_hops and budget_left
            ):
                # The fence redirect: always followed.
                assert (step, plan.shard, plan.hop) == (Step.SEND, moved, "redirect")
            elif policy is None or not policy.retries_code(code):
                assert step is Step.RAISE
                assert plan.error.code is code
        elif hops < max_hops and COPIES[shard] and budget_left:
            assert step is Step.PROBE  # probe before any backoff
        if policy is None:
            assert step is not Step.SLEEP
        while step is Step.SLEEP or step is Step.PROBE:
            if step is Step.SLEEP:
                log.append(("sleep", plan.wait))
                clock += plan.wait
                step = plan.woke(clock)
            else:
                log.append(("probe", plan.probe, plan.budget))
                if timeout is not None:
                    assert plan.budget is not None and plan.budget > 0
                clock += (1.0 if plan.budget is None else plan.budget) * next(fracs)
                step = plan.probed(next(answers_, False), clock)
        if step is Step.RAISE:
            log.append(("raise", plan.error.code, outcome[0]))
            return log, plan, clock
        shard, budget = plan.shard, plan.budget
        if plan.hop:
            log.append((plan.hop, shard))


@settings(max_examples=400, deadline=None)
@given(
    policy=policies,
    timeout=st.none() | st.floats(0.01, 3.0),
    max_hops=st.integers(0, 4),
    session=st.none() | st.just("s"),
    outcomes=outcomes,
    probes=st.lists(st.booleans(), max_size=6),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
def test_call_plan_properties(policy, timeout, max_hops, session, outcomes, probes, fracs):
    log, plan, clock = drive(policy, timeout, max_hops, session, outcomes, probes, fracs)
    sleeps = [e for e in log if e[0] == "sleep"]
    if plan is not None:
        assert len(sleeps) == plan.sleeps
        assert plan.hops <= max_hops
    limit = 0 if policy is None else policy.attempts - 1
    assert len(sleeps) <= limit
    assert len([e for e in log if e[0] in ("redirect", "failover")]) <= max_hops
    if timeout is not None:
        assert clock <= timeout + 1e-9  # the call ends by start + timeout
    if log[-1][0] == "raise" and log[-1][2] == "lost":
        assert log[-1][1] is ErrorCode.INTERNAL
    # Equal inputs give equal step sequences.
    again, _, _ = drive(policy, timeout, max_hops, session, outcomes, probes, fracs)
    assert again == log


def test_lost_connection_probes_every_copy_then_backs_off():
    plan = CallPlan(
        RetryPolicy(attempts=2, base=0.1, jitter=0.0), shard="p0",
        session="s", copies=COPIES, max_hops=4,
    )
    assert plan.failed(ConnectionError("refused"), 0.0) is Step.PROBE
    assert plan.probe == "p0r0"
    assert plan.probed(False, 0.0) is Step.PROBE
    assert plan.probe == "p0r1"
    assert plan.probed(False, 0.0) is Step.SLEEP and plan.wait == 0.1
    assert plan.woke(0.1) is Step.SEND and plan.shard == "p0" and not plan.hop
    assert plan.failed(ConnectionError("refused"), 0.1) is Step.PROBE
    assert plan.probed(True, 0.1) is Step.SEND
    assert (plan.shard, plan.hop, plan.hops) == ("p0r0", "failover", 1)
    assert plan.failed(ConnectionError("refused"), 0.2) is Step.RAISE
    assert plan.error.code is ErrorCode.INTERNAL
    assert str(plan.error) == "shard p0r0: connection failed: refused"


def test_retry_after_hint_never_sleeps_past_the_deadline():
    plan = CallPlan(RetryPolicy(attempts=4), timeout=0.5, start=10.0)
    hint = ServiceError(ErrorCode.RETRY_LATER, "busy", retry_after=0.4)
    assert plan.failed(hint, 10.0) is Step.SLEEP and plan.wait == 0.4
    assert plan.woke(10.4) is Step.SEND
    assert plan.budget == pytest.approx(0.1)
    assert plan.failed(hint, 10.45) is Step.RAISE  # 0.4 >= 0.05 left
    assert plan.error is hint
    # A sleep that overshoots the deadline starts no attempt.
    late = CallPlan(RetryPolicy(attempts=4), timeout=0.5)
    assert late.failed(hint, 0.0) is Step.SLEEP
    assert late.woke(0.5) is Step.RAISE


# ----------------------------------------------------------------------
# A scripted line server


class Stub:
    """Answers the n-th request line (0-based, across connections) with
    ``script(n, request)`` -- a response doc, or None to swallow it --
    and records every line and connection.  With ``drop_every=k`` it
    closes the connection after every k-th line."""

    def __init__(self, script, drop_every=0):
        self.script = script
        self.drop_every = drop_every
        self.lines = []
        self.conns = 0
        self.open = 0
        self._writers = []

    async def start(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def _serve(self, reader, writer):
        self.conns += 1
        self.open += 1
        self._writers.append(writer)
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                req = json.loads(raw)
                n = len(self.lines)
                self.lines.append(req)
                resp = self.script(n, req)
                if resp is not None:
                    writer.write(encode(resp))
                    await writer.drain()
                if self.drop_every and len(self.lines) % self.drop_every == 0:
                    break
        except OSError:
            pass
        finally:
            self.open -= 1
            writer.close()

    async def stop(self):
        self.server.close()
        for w in self._writers:
            w.close()
        for _ in range(100):  # let every handler see its connection end
            if not self.open:
                break
            await asyncio.sleep(0.01)
        await self.server.wait_closed()


def pong(n, req):
    return ok_response(req["id"], {"pong": True})


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def spec(name, port):
    return ShardSpec(name=name, host="127.0.0.1", port=port, data="unused")


# ----------------------------------------------------------------------
# Drift regressions: one rule for all four clients


@pytest.mark.parametrize(
    "policy", [None, RetryPolicy(attempts=3, base=0.01, jitter=0.0)],
    ids=["no-retry", "retry"],
)
def test_async_client_stays_usable_after_a_failed_call(policy):
    async def main():
        stub = await Stub(lambda n, req: None if n == 0 else pong(n, req)).start()
        async with AsyncServiceClient(port=stub.port, retry=policy) as c:
            with pytest.raises(ServiceError) as ei:
                await c.ping(timeout=0.1)
            assert ei.value.code is ErrorCode.INTERNAL
            assert await c.ping() == {"pong": True}
            assert c.reconnects == 1
        await stub.stop()

    run(main())


def test_both_cluster_clients_back_off_through_refused_connects():
    """Nothing listens: every attempt is refused, which counts as a lost
    connection, so both clients sleep the whole 0.1 + 0.2 + 0.4 s
    schedule before raising."""
    policy = RetryPolicy(attempts=4, base=0.1, jitter=0.0)
    shards = [spec("shard-0", free_port())]

    def drive_sync():
        with ClusterClient(shards, retry=policy) as cc:
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as ei:
                cc.call("ping")
            return ei.value, time.monotonic() - t0, cc.retries

    async def drive_async():
        async with AsyncClusterClient(shards, retry=policy) as cc:
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as ei:
                await cc.call("ping")
            return ei.value, time.monotonic() - t0, cc.retries

    for err, elapsed, retries in (drive_sync(), run(drive_async())):
        assert err.code is ErrorCode.INTERNAL
        assert "connection failed" in str(err)
        assert retries == 3
        assert elapsed >= 0.69


def test_timeout_bounds_the_whole_call():
    """``retry_later`` with a 0.4 s hint, then a hung server: the retry
    gets only what is left of ``timeout=0.5``, not a fresh 0.5 s."""

    def script(n, req):
        if n == 0:
            return error_response(
                req["id"], ErrorCode.RETRY_LATER, "busy", retry_after=0.4
            )
        return None

    async def main():
        results = []
        stub = await Stub(script).start()
        async with AsyncServiceClient(
            port=stub.port, retry=RetryPolicy(attempts=4)
        ) as c:
            t0 = time.monotonic()
            with pytest.raises(ServiceError) as ei:
                await c.ping(timeout=0.5)
            results.append((ei.value, time.monotonic() - t0))
        await stub.stop()

        stub = await Stub(script).start()

        def drive():
            with ServiceClient(port=stub.port, retry=RetryPolicy(attempts=4)) as c:
                t0 = time.monotonic()
                with pytest.raises(ServiceError) as ei:
                    c.ping(timeout=0.5)
                return ei.value, time.monotonic() - t0

        results.append(await in_thread(drive))
        await stub.stop()
        return results

    for err, elapsed in run(main()):
        assert err.code is ErrorCode.INTERNAL
        assert 0.4 <= elapsed < 0.5 + 0.1


def test_tasks_sharing_a_client_survive_dropped_connections():
    """16 tasks pipeline inserts over one client while the server drops
    its connection after every 7th line: each call still gets its own
    answer, and the tasks that find the connection down together share
    one new connection."""

    def echo(n, req):
        return ok_response(req["id"], {"placed": {"name": req["name"]}})

    async def main():
        stub = await Stub(echo, drop_every=7).start()
        policy = RetryPolicy(attempts=60, base=0.001, max_delay=0.01, jitter=0.5)
        async with AsyncServiceClient(port=stub.port, retry=policy) as c:

            async def lane(k):
                for i in range(10):
                    res = await c.insert(f"s{k}", f"j{k}.{i}", 1)
                    assert res == {"placed": {"name": f"j{k}.{i}"}}

            await asyncio.wait_for(asyncio.gather(*(lane(k) for k in range(16))), 30)
            drops = len(stub.lines) // 7
            assert drops >= 160 // 7
            assert c.reconnects == stub.conns - 1 <= drops
            assert stub.open <= 1  # 0 when the last line was a drop
        await stub.stop()

    run(main())


def test_no_request_is_written_into_a_closing_transport(caplog):
    """The server closes after every 7th line.  A request sent between
    the transport closing and the reader task noticing would go into
    the dead socket, and asyncio warns once such writes pile up; a
    closing transport must count as down, so the call reconnects
    first."""

    async def main():
        stub = await Stub(pong, drop_every=7).start()
        policy = RetryPolicy(attempts=60, base=0.001, max_delay=0.01, seed=0)
        async with AsyncServiceClient(port=stub.port, retry=policy) as c:

            async def lane():
                for _ in range(30):
                    assert await c.ping() == {"pong": True}

            await asyncio.wait_for(asyncio.gather(*(lane() for _ in range(16))), 30)
        await stub.stop()

    with caplog.at_level("WARNING", logger="asyncio"):
        run(main())
    assert not [r for r in caplog.records if "socket.send()" in r.getMessage()]


def test_closed_client_never_reconnects():
    async def main():
        stub = await Stub(pong).start()
        policy = RetryPolicy(attempts=3, base=0.01)
        c = await AsyncServiceClient(port=stub.port, retry=policy).connect()
        assert await c.ping() == {"pong": True}
        await c.close()
        with pytest.raises(ServiceError) as ei:
            await c.ping()
        assert ei.value.code is ErrorCode.INTERNAL and c.retries == 0

        def drive():
            s = ServiceClient(port=stub.port, retry=policy)
            assert s.ping() == {"pong": True}
            s.close()
            with pytest.raises(ServiceError) as ei:
                s.ping()
            assert ei.value.code is ErrorCode.INTERNAL and s.retries == 0

        await in_thread(drive)
        assert stub.conns == 2  # one per client, none after close()
        await stub.stop()

    run(main())


# ----------------------------------------------------------------------
# Traced cluster calls join their server ops across a moved hop


async def _traced_servers(tmp_path, tracer):
    servers, specs = [], []
    for i in range(2):
        m = SessionManager(str(tmp_path / f"shard-{i}"), fsync="never", tracer=tracer)
        srv = ServiceServer(m, port=0)
        await srv.start()
        servers.append(srv)
        specs.append(spec(f"shard-{i}", srv.tcp_port))
    return servers, specs


async def _migrate(servers, sid, src, dst):
    a, b = servers[int(src[-1])].manager, servers[int(dst[-1])].manager
    out = await a.dispatch(Request(op="migrate_out", session=sid))
    await b.dispatch(Request(
        op="migrate_in", session=sid, snapshot=out["snapshot"],
        config=out.get("config"),
    ))
    await a.dispatch(Request(op="migrate_seal", session=sid, target=dst))


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_traced_cluster_calls_join_server_ops_across_a_moved_hop(tmp_path, mode):
    cbuf, sbuf = io.StringIO(), io.StringIO()

    async def main():
        server_tracer = Tracer(sbuf, label="server")
        client_tracer = Tracer(cbuf, label="client")
        servers, specs = await _traced_servers(tmp_path, server_tracer)
        placement = PlacementMap([s.name for s in specs])
        placement.assign("mv", "shard-0")
        try:
            if mode == "async":
                async with AsyncClusterClient(
                    specs, placement=placement, tracer=client_tracer
                ) as cc:
                    await cc.open("mv")
                    await cc.insert("mv", "a", 3)
                    await _migrate(servers, "mv", "shard-0", "shard-1")
                    q = await cc.query("mv")
                    redirects = cc.redirects
            else:
                cc = ClusterClient(specs, placement=placement, tracer=client_tracer)
                await in_thread(lambda: (cc.open("mv"), cc.insert("mv", "a", 3)))
                await _migrate(servers, "mv", "shard-0", "shard-1")
                q = await in_thread(lambda: cc.query("mv"))
                redirects = cc.redirects
                cc.close()
        finally:
            client_tracer.close()
            for srv in servers:
                await srv.stop()
            server_tracer.close()
        assert q["active"] == 1 and redirects == 1

    run(main())
    client = collect_spans(read_trace(io.StringIO(cbuf.getvalue())))
    server = collect_spans(read_trace(io.StringIO(sbuf.getvalue())))
    rows = [r for r in join_traces(client, server) if r["trace"] is not None]
    attempts = [s for s in client.values() if s.name == "client.attempt"]
    assert len(rows) == len(attempts) == 4  # open, insert, query x 2 hops
    assert all(r["joined"] for r in rows), rows
    assert all("client_total" in r for r in rows)
    queries = [r for r in rows if r["op"] == "query"]
    assert [r["outcome"] for r in queries] == ["moved", "ok"]
    assert len({r["trace"] for r in queries}) == 1  # both hops, one tid
    assert {r["attempt"] for r in queries} == {1, 2}
    roots = [s for s in client.values() if s.name == "cluster.call"]
    assert len(roots) == 3


# ----------------------------------------------------------------------
# The shell keeps the idempotency key and the trace id across hops


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_every_line_of_a_call_carries_one_idem_and_one_trace(mode):
    """shard-0 answers ``moved`` to shard-1, which sheds once, then
    applies: three request lines, one key and one trace id, three
    attempt spans."""
    buf = io.StringIO()

    def moved(n, req):
        return error_response(req["id"], ErrorCode.MOVED, "moved", moved="shard-1")

    def shed_once(n, req):
        if n == 0:
            return error_response(
                req["id"], ErrorCode.RETRY_LATER, "busy", retry_after=0.01
            )
        return ok_response(req["id"], {"placed": {"name": req["name"]}})

    async def main():
        stubs = [await Stub(moved).start(), await Stub(shed_once).start()]
        specs = [spec(f"shard-{i}", s.port) for i, s in enumerate(stubs)]
        placement = PlacementMap([s.name for s in specs])
        placement.assign("s", "shard-0")
        tracer = Tracer(buf, label="client")
        kw = dict(placement=placement, tracer=tracer, retry=RetryPolicy(attempts=3))
        if mode == "async":
            async with AsyncClusterClient(specs, **kw) as cc:
                res = await cc.insert("s", "a", 1)
        else:
            cc = ClusterClient(specs, **kw)
            res = await in_thread(lambda: cc.insert("s", "a", 1))
            cc.close()
        tracer.close()
        for s in stubs:
            await s.stop()
        assert res == {"placed": {"name": "a"}}
        assert cc.redirects == 1 and cc.retries == 1
        return stubs[0].lines + stubs[1].lines

    lines = run(main())
    assert [line["op"] for line in lines] == ["insert"] * 3
    assert len({line["idem"] for line in lines}) == 1
    assert len({line["trace"]["tid"] for line in lines}) == 1
    spans = [line["trace"]["span"] for line in lines]
    client = collect_spans(read_trace(io.StringIO(buf.getvalue())))
    attempts = sorted(s.sid for s in client.values() if s.name == "client.attempt")
    assert sorted(spans) == attempts and len(set(spans)) == 3
