"""Pipelined connections: a burst of lines answers exactly as the same
lines sent one at a time, while different sessions' requests overlap on
one connection and on the replica link.

* The burst-equivalence contract (hypothesis): random bursts of request
  lines over 2-3 sessions, written with one ``write`` and no read, get
  the same answers, line for line and in order, as the same lines sent
  one at a time to a fresh server, and so do the final ``query`` and
  ``stats`` of every session.  Open, close, stats and ping are
  barriers, so state they change or report is never raced.  Writes
  carry idempotency keys drawn from a small pool, so a burst repeats
  keys inside one group-commit batch.  The contract holds under
  ``fsync=never``, under ``fsync=always``, and against a primary with a
  quorum replica.
* The in-flight bound: a connection that writes twice ``queue_depth``
  inserts to one session without reading is never shed -- the server
  stops reading instead.
* Overlap: eight quorum-replicated inserts on eight sessions through one
  client connection and one replica link take one replica round trip,
  not eight; 32 pipelined into one session share one ship (group
  commit); and an insert that evicts another session is answered
  before that session's eviction checkpoint runs.
* A failed answer write (the ``server.conn.write`` failpoint, or a peer
  that reset mid-burst) aborts only its connection; the session workers
  that produced the answers keep serving.
"""

import asyncio
import itertools
import json
import socket
import struct
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.cluster.client import AsyncClusterClient
from repro.cluster.group import ShardSpec
from repro.obs import MetricsRegistry
from repro.service.client import AsyncServiceClient
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.replica import Replicator
from repro.service.server import ServiceServer
from repro.service.sessions import SessionManager
from tests.conftest import start_slow_replica


def run(coro):
    return asyncio.run(coro)


async def start_server(root, fsync="never", replica_port=None, **kw):
    manager = SessionManager(str(root), fsync=fsync, **kw)
    if replica_port is not None:
        manager.set_replicator(
            Replicator([("127.0.0.1", replica_port)], ack_mode="quorum")
        )
    srv = ServiceServer(manager, port=0)
    await srv.start()
    return srv


async def connect(port):
    return await asyncio.open_connection("127.0.0.1", port, limit=MAX_LINE_BYTES)


async def hang_up(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass


async def send_burst(port, lines):
    """Every line in one write, then read every answer."""
    reader, writer = await connect(port)
    writer.write(b"".join(lines))
    await writer.drain()
    answers = [json.loads(await reader.readline()) for _ in lines]
    await hang_up(writer)
    return answers


async def send_one_at_a_time(port, lines):
    reader, writer = await connect(port)
    answers = []
    for line in lines:
        writer.write(line)
        await writer.drain()
        answers.append(json.loads(await reader.readline()))
    await hang_up(writer)
    return answers


def burst_vs_serial(root, lines, *, replicated=False, **kw):
    """The answers to ``lines`` sent as one burst and one at a time, each
    to a fresh server (with a fresh quorum replica when ``replicated``)."""

    async def main():
        answers = []
        for mode, send in (("burst", send_burst), ("serial", send_one_at_a_time)):
            replica = None
            if replicated:
                replica = ServiceServer(
                    SessionManager(
                        str(root / mode / "replica"),
                        fsync=kw.get("fsync", "never"),
                        replica_of="primary",
                    ),
                    port=0,
                )
                await replica.start()
            srv = await start_server(
                root / mode / "primary",
                replica_port=replica.tcp_port if replica is not None else None,
                **kw,
            )
            try:
                answers.append(await send(srv.tcp_port, lines))
            finally:
                await srv.stop()
                if replica is not None:
                    await replica.stop()
        return answers

    return run(main())


def wire(i, op, **fields):
    return (json.dumps({"op": op, "id": i, **fields}) + "\n").encode()


def without_uptime(answer):
    result = answer.get("result")
    if isinstance(result, dict):
        result.pop("uptime_s", None)
    return answer


# ----------------------------------------------------------------------
# Burst equivalence


JOB_NAMES = ("j0", "j1", "j2", "j3")

#: Few enough keys that bursts repeat them, inside one batch too.
IDEM_KEYS = (None, "k0", "k1", "k2")


@st.composite
def bursts(draw):
    sessions = ["a", "b", "c"][: draw(st.integers(2, 3))]
    session = st.sampled_from(sessions)
    idem = st.sampled_from(IDEM_KEYS)
    write = st.one_of(
        st.tuples(st.just("insert"), session, st.sampled_from(JOB_NAMES),
                  st.integers(1, 8), idem),
        st.tuples(st.just("delete"), session, st.sampled_from(JOB_NAMES), idem),
    )
    other = st.one_of(
        st.tuples(st.just("open"), session),
        st.tuples(st.just("query"), session, st.booleans()),
        st.tuples(st.just("close"), session),
        st.tuples(st.just("stats"), st.one_of(st.none(), session)),
        st.tuples(st.just("ping")),
    )
    # Runs of writes, which a session commits as one batch, between the
    # other ops, which end batches.
    runs = draw(st.lists(
        st.one_of(st.lists(write, min_size=1, max_size=8), st.tuples(other)),
        min_size=2, max_size=12,
    ))
    reqs = [r for run in runs for r in run][:38]
    # Exactly one malformed line and one request on an unknown session.
    reqs.insert(draw(st.integers(0, len(reqs))), ("malformed",))
    reqs.insert(draw(st.integers(0, len(reqs))), ("insert", "zz", "j0", 1, None))
    # Then every session's final state.
    for sid in sessions:
        reqs += [("query", sid, True), ("stats", sid)]
    return reqs


def encode_burst(reqs):
    lines = []
    for i, (op, *args) in enumerate(reqs):
        if op == "malformed":
            lines.append(b'{"op": "insert", "id": \n')
        elif op == "open":
            lines.append(wire(i, "open", session=args[0], config={"max_size": 16}))
        elif op == "insert":
            key = {"idem": args[3]} if args[3] is not None else {}
            lines.append(wire(i, "insert", session=args[0], name=args[1],
                              size=args[2], **key))
        elif op == "delete":
            key = {"idem": args[2]} if args[2] is not None else {}
            lines.append(wire(i, "delete", session=args[0], name=args[1], **key))
        elif op == "query":
            extra = {"jobs": True} if args[1] else {}
            lines.append(wire(i, "query", session=args[0], **extra))
        elif op == "close":
            lines.append(wire(i, "close", session=args[0]))
        elif op == "stats":
            extra = {"session": args[0]} if args[0] is not None else {}
            lines.append(wire(i, "stats", **extra))
        else:
            lines.append(wire(i, op))
    return lines


_EXAMPLE = itertools.count()


def without_fsyncs(answer):
    """``answer`` without the journal's fsync count, the one figure group
    commit exists to change: under ``fsync=always`` a burst's batch
    fsyncs once where the same writes sent one at a time fsync each."""
    result = answer.get("result")
    if isinstance(result, dict):
        for block in [result, *result.get("per_session", [])]:
            journal = block.get("journal")
            if isinstance(journal, dict):
                journal.pop("fsyncs", None)
    return answer


def check_burst(tmp_path_factory, reqs, **kw):
    root = tmp_path_factory.mktemp(f"burst{next(_EXAMPLE)}")
    lines = encode_burst(reqs)
    burst, serial = burst_vs_serial(root, lines, **kw)
    assert len(burst) == len(lines)
    if kw.get("fsync", "never") != "never":
        burst = [without_fsyncs(a) for a in burst]
        serial = [without_fsyncs(a) for a in serial]
    assert [without_uptime(a) for a in burst] == [
        without_uptime(a) for a in serial
    ]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(reqs=bursts())
def test_burst_answers_as_one_at_a_time(tmp_path_factory, reqs):
    check_burst(tmp_path_factory, reqs)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(reqs=bursts())
def test_burst_answers_as_one_at_a_time_under_fsync_always(tmp_path_factory, reqs):
    check_burst(tmp_path_factory, reqs, fsync="always")


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(reqs=bursts())
def test_burst_answers_as_one_at_a_time_with_a_quorum_replica(tmp_path_factory, reqs):
    check_burst(tmp_path_factory, reqs, fsync="always", replicated=True)


def test_open_and_close_are_barriers_in_a_burst(tmp_path):
    lines = [
        wire(1, "open", session="a"),
        wire(2, "insert", session="a", name="j0", size=3),
        wire(3, "close", session="a"),
        wire(4, "insert", session="a", name="j1", size=2),
        wire(5, "query", session="a", jobs=True),
    ]
    burst, serial = burst_vs_serial(tmp_path, lines)
    assert [a["ok"] for a in burst] == [True] * 5, burst
    assert [a["id"] for a in burst] == [1, 2, 3, 4, 5]
    assert burst[4]["result"]["active"] == 2
    assert burst == serial


def test_in_flight_bound_stops_reading_instead_of_shedding(tmp_path):
    depth = 4
    lines = [wire(0, "open", session="s")] + [
        wire(k, "insert", session="s", name=f"j{k}", size=1)
        for k in range(1, 2 * depth + 1)
    ]

    async def main():
        srv = await start_server(tmp_path / "data", queue_depth=depth)
        try:
            return await send_burst(srv.tcp_port, lines)
        finally:
            await srv.stop()

    answers = run(main())
    assert [a["id"] for a in answers] == list(range(2 * depth + 1))
    assert all(a["ok"] for a in answers), [
        a["error"] for a in answers if not a["ok"]
    ]
    assert [a["result"]["lsn"] for a in answers[1:]] == list(
        range(1, 2 * depth + 1)
    )


# ----------------------------------------------------------------------
# Overlap


def test_replicated_writes_of_different_sessions_overlap(tmp_path):
    """Eight sessions x one quorum-acked insert, pipelined through one
    client connection, against a replica that takes 0.2 s per ack: the
    ships must overlap on the server's connection and on the replica
    link, so the batch takes about one ack, not eight."""
    delay = 0.2

    async def main():
        stub, stub_port = await start_slow_replica(delay)
        manager = SessionManager(str(tmp_path / "primary"), fsync="never")
        manager.set_replicator(
            Replicator([("127.0.0.1", stub_port)], ack_mode="quorum")
        )
        srv = ServiceServer(manager, port=0)
        await srv.start()
        spec = ShardSpec(
            name="shard-0", host="127.0.0.1", port=srv.tcp_port,
            data=str(tmp_path / "primary"),
        )
        sids = [f"s{i}" for i in range(8)]
        try:
            async with AsyncClusterClient([spec], timeout=10.0) as cc:
                for sid in sids:
                    await cc.call("open", session=sid)
                t0 = time.perf_counter()
                results = await asyncio.gather(
                    *(cc.call("insert", session=sid, name="j", size=1)
                      for sid in sids)
                )
                elapsed = time.perf_counter() - t0
        finally:
            await srv.stop()
            stub.close()
        return results, elapsed

    results, elapsed = run(main())
    assert [r["lsn"] for r in results] == [1] * 8
    assert elapsed < 4 * delay, f"8 replicated writes took {elapsed:.2f} s"


def test_writes_queued_on_one_session_share_one_ship(tmp_path):
    """32 quorum-acked inserts pipelined into one session, against a
    replica that takes 0.1 s per ack: the worker commits the queued run
    as one batch, so they share one ``repl_apply`` frame and one ack
    instead of waiting out 32 in a row."""
    delay, writes = 0.1, 32

    async def main():
        frames = []
        stub, stub_port = await start_slow_replica(delay, frames)
        srv = await start_server(tmp_path / "primary", replica_port=stub_port)
        try:
            async with AsyncServiceClient(port=srv.tcp_port) as c:
                await c.open("s")
                t0 = time.perf_counter()

                async def insert(k):
                    res = await c.insert("s", f"j{k}", 1 + k % 8)
                    return res, time.perf_counter() - t0

                answers = await asyncio.gather(*(insert(k) for k in range(writes)))
        finally:
            await srv.stop()
            stub.close()
        return answers, [f for f in frames if f.get("op") == "repl_apply"]

    answers, applies = run(main())
    assert sorted(res["lsn"] for res, _ in answers) == list(range(1, writes + 1))
    slowest = max(elapsed for _, elapsed in answers)
    assert slowest < 4 * delay, f"the slowest of {writes} writes took {slowest:.2f} s"
    assert len(applies) <= 3, [len(f["records"]) for f in applies]
    assert sum(len(f["records"]) for f in applies) >= writes


def test_answer_is_written_before_the_victims_eviction(tmp_path):
    """With ``max_live=1``, an insert that rehydrates session ``a``
    queues ``b``'s eviction; the insert's answer must not wait for that
    eviction."""
    fired = []

    async def main():
        srv = await start_server(tmp_path / "data", max_live=1)
        manager = srv.manager
        try:
            async with AsyncServiceClient(port=srv.tcp_port) as c:
                await c.open("a")
                await c.insert("a", "j0", 1)
                await c.open("b")  # evicts a
                while manager.sessions["a"].live:
                    await asyncio.sleep(0.01)
                faults.set_fire_observer(lambda point, kind: fired.append(point))
                faults.activate(faults.parse_plan(
                    "server.conn.write=delay:0;sessions.evict=delay:0"
                ))
                await c.insert("a", "j1", 2)  # rehydrates a, evicts b
                while manager.sessions["b"].live:
                    await asyncio.sleep(0.01)
        finally:
            faults.deactivate()
            faults.set_fire_observer(None)
            await srv.stop()

    run(main())
    assert fired[:2] == ["server.conn.write", "sessions.evict"], fired


# ----------------------------------------------------------------------
# A failed answer write


def test_failed_answer_write_aborts_only_that_connection(tmp_path):
    """The first answer of a pipelined burst hits ``server.conn.write``:
    that connection is aborted once, and the session workers that
    produced the answers keep serving everyone else."""
    burst = [
        wire(k, "insert", session=sid, name=f"j{k}", size=1)
        for k, sid in enumerate(["a", "b", "a", "b"])
    ]

    async def main():
        reg = MetricsRegistry()
        srv = ServiceServer(
            SessionManager(str(tmp_path / "data"), fsync="never", registry=reg),
            port=0,
        )
        await srv.start()
        try:
            async with AsyncServiceClient(port=srv.tcp_port) as c:
                await c.open("a")
                await c.open("b")
                faults.activate(faults.parse_plan("server.conn.write=drop@times1"))
                reader, writer = await connect(srv.tcp_port)
                writer.write(b"".join(burst))
                await writer.drain()
                assert await asyncio.wait_for(reader.read(), 10) == b""
                await hang_up(writer)
                faults.deactivate()
                # Both workers survived the failed write and still serve.
                await c.insert("a", "after", 1)
                await c.insert("b", "after", 1)
                active = [(await c.query(sid))["active"] for sid in ("a", "b")]
        finally:
            faults.deactivate()
            await srv.stop()
        return reg.value("service.conn.aborted"), active

    aborted, active = run(main())
    assert aborted == 1
    # The dropped answer's insert applied, as did whatever else of the
    # burst was admitted before the abort (usually all of it).
    assert active[0] >= 2 and active[1] >= 1, active


def test_peer_reset_mid_burst_aborts_only_that_connection(tmp_path):
    """A client resets its connection right after writing a burst: the
    answers it never reads fail on a real socket error (seen by the
    answer writes or by the read loop), the connection is aborted once,
    and the session workers keep serving."""
    burst = [
        wire(k, "insert", session=sid, name=f"j{k}", size=1)
        for k, sid in enumerate(["a", "b"] * 8)
    ]

    async def main():
        reg = MetricsRegistry()
        srv = ServiceServer(
            SessionManager(str(tmp_path / "data"), fsync="never", registry=reg),
            port=0,
        )
        await srv.start()
        try:
            async with AsyncServiceClient(port=srv.tcp_port) as c:
                await c.open("a")
                await c.open("b")
                _, writer = await connect(srv.tcp_port)
                writer.write(b"".join(burst))
                await writer.drain()
                sock = writer.get_extra_info("socket")
                sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                writer.close()  # RST: unread answers hit a dead peer
                for _ in range(500):
                    if reg.value("service.conn.aborted"):
                        break
                    await asyncio.sleep(0.01)
                await c.insert("a", "after", 1)
                await c.insert("b", "after", 1)
        finally:
            await srv.stop()
        return reg.value("service.conn.aborted")

    assert run(main()) == 1
