"""Asyncio front end: TCP + UNIX-socket listeners for the line protocol.

Every connection is a pipeline.  The handler reads lines in order and
admits each per-session queue op (:data:`~repro.service.sessions.
QUEUE_OPS`: insert, delete, query, snapshot, migrate_out, repl_apply)
into its session's queue synchronously, then reads on without waiting
for the answer.  A connection's requests on different sessions thus
execute concurrently, each session through its own queue and worker,
as the paper's p servers run as independent single-server instances.
Every other op is a *barrier*: it waits until every earlier request on
its connection is answered, runs alone, and is answered before the
next line is read.  Answers are written strictly in request order, as
soon as the head of the line is ready, so a burst of lines answers
exactly as the same lines sent one at a time.  Unanswered requests per
connection are capped at the manager's ``queue_depth``: at the cap the
handler stops reading rather than shed its own connection's burst.

Graceful shutdown (``shutdown`` op or SIGINT/SIGTERM): stop accepting,
drop client connections, checkpoint every session (snapshot + journal
truncation), then exit.  A SIGKILL instead exercises the crash-recovery
path -- by design the server is always safe to kill (see
docs/SERVICE.md, "Durability").
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
from collections import deque
from typing import Any, Optional, Union

from repro import faults
from repro.faults import ConnectionDropped
from repro.obs.logsetup import get_logger
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    Request,
    ServiceError,
    decode_line,
    encode,
    error_response,
    ok_response,
    request_from_doc,
)
from repro.service.journal import write_json_durable
from repro.service.sessions import QUEUE_OPS, SessionManager
from repro.service.tracing import OpTrace

log = get_logger("service")


class _Answer:
    """One request's place in its connection's answer order.

    Calling it is the request's :data:`~repro.service.sessions.Reply`:
    the session worker (or the barrier path) hands over the outcome and
    the connection writes every ready answer at the head of its line.
    """

    __slots__ = ("conn", "rid", "ot", "data", "code")

    def __init__(
        self, conn: "_Conn", rid: Optional[int], ot: Optional[OpTrace]
    ) -> None:
        self.conn = conn
        self.rid = rid
        self.ot = ot
        #: The encoded answer, once the outcome is in.
        self.data: Optional[bytes] = None
        #: The error code of a failed op (None = ok).
        self.code: Optional[str] = None

    def __call__(self, outcome: Union[dict[str, Any], ServiceError]) -> None:
        conn = self.conn
        try:
            if isinstance(outcome, ServiceError):
                self.code = outcome.code.value
                doc = error_response(
                    self.rid, outcome.code, outcome.message,
                    retry_after=outcome.retry_after, moved=outcome.moved,
                )
            else:
                doc = ok_response(self.rid, outcome)
            self.data = encode(doc)
            if conn.pending[0] is self:
                conn.flush()
        except Exception as e:  # never raise into a session worker
            log.exception("answer to request %r failed", self.rid)
            conn.kill(f"answer failed: {type(e).__name__}: {e}")


class _Conn:
    """One client connection's unanswered requests, oldest first."""

    __slots__ = ("server", "writer", "pending", "partitioned", "dead", "waiter")

    def __init__(
        self, server: "ServiceServer", writer: asyncio.StreamWriter
    ) -> None:
        self.server = server
        self.writer = writer
        self.pending: deque[_Answer] = deque()
        #: Half-open partition injected: keep executing, answer nothing.
        self.partitioned = False
        #: No more answers will be written (failed write, closed, stopped).
        self.dead = False
        #: The read loop's wake-up while it waits for answers to go out.
        self.waiter: Optional["asyncio.Future[None]"] = None

    def answer(self, rid: Optional[int], ot: Optional[OpTrace]) -> _Answer:
        """Reserve the next place in the answer order."""
        slot = _Answer(self, rid, ot)
        self.pending.append(slot)
        return slot

    def flush(self) -> None:
        """Write every ready answer at the head of the line, in order."""
        pending = self.pending
        while pending:
            slot = pending[0]
            data = slot.data
            if data is None:
                break
            pending.popleft()
            ot = slot.ot
            if ot is not None:
                ot.finish(ok=slot.code is None, code=slot.code)
            if not self.dead:
                self._write(data)
        if self.waiter is not None:
            self._wake()

    def _write(self, data: bytes) -> None:
        if not self.partitioned:
            plan = faults.ACTIVE
            if plan is not None:
                try:
                    plan.hit("server.conn.partition")
                except (ConnectionDropped, OSError) as e:
                    # Half-open network partition: keep reading (and
                    # executing) the peer's requests, but no answer
                    # ever gets through.  The client times out on an op
                    # that may or may not have applied -- the ambiguity
                    # idempotency keys exist to resolve.
                    self.partitioned = True
                    log.warning("injected half-open partition: %s", e)
                    reg = self.server.manager.registry
                    if reg is not None:
                        reg.inc_all({"service.conn.partitioned": 1})
        if self.partitioned:
            return
        try:
            plan = faults.ACTIVE
            if plan is not None:
                plan.hit("server.conn.write")
            writer = self.writer
            if writer.transport.is_closing():
                # An earlier write already failed (the peer is gone).
                raise ConnectionResetError("connection lost")
            writer.write(data)
        except (ConnectionDropped, ConnectionResetError, BrokenPipeError, OSError) as e:
            self.kill(f"write failed: {e}")

    async def wait(self) -> None:
        """Until the next answer goes out (or the connection dies)."""
        waiter: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        self.waiter = waiter
        await waiter

    def _wake(self) -> None:
        waiter = self.waiter
        if waiter is not None:
            self.waiter = None
            if not waiter.done():
                waiter.set_result(None)

    def kill(self, reason: Optional[str] = None) -> None:
        """Write no more answers and close the transport, so the read
        loop sees EOF; with a ``reason`` the abort is logged and counted.
        Answers still in flight are dropped as they arrive."""
        if self.dead:
            return
        self.dead = True
        if reason is not None:
            self.server._abort_conn(reason)
        self.writer.close()
        self._wake()


class ServiceServer:
    """Listeners + connection handlers over one :class:`SessionManager`."""

    def __init__(
        self,
        manager: SessionManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        ready_file: Optional[str] = None,
        trace_sample: float = 1.0,
        trace_seed: int = 0,
    ) -> None:
        if not (0.0 <= trace_sample <= 1.0):
            raise ValueError("trace_sample must be in [0, 1]")
        self.manager = manager
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.ready_file = ready_file
        #: Per-request span sampling rate: 1.0 traces every op (the
        #: historical behavior), lower rates keep a seeded-deterministic
        #: subset.  Metrics are always recorded; only spans are sampled.
        self.trace_sample = trace_sample
        self._trace_rng = random.Random(trace_seed)
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._unix: Optional[asyncio.AbstractServer] = None
        self._conns: set[_Conn] = set()
        self._stop = asyncio.Event()

    @property
    def tcp_port(self) -> Optional[int]:
        """The bound TCP port (resolves ``port=0`` to the actual one)."""
        if self._tcp is None or not self._tcp.sockets:
            return None
        return int(self._tcp.sockets[0].getsockname()[1])

    async def start(self) -> None:
        self._tcp = await asyncio.start_server(
            self._handle, host=self.host, port=self.port, limit=MAX_LINE_BYTES
        )
        if self.unix_path is not None:
            self._unix = await asyncio.start_unix_server(
                self._handle, path=self.unix_path, limit=MAX_LINE_BYTES
            )
        self._write_ready()
        log.info(
            "listening on %s:%s%s (data dir %s)",
            self.host,
            self.tcp_port,
            f" and {self.unix_path}" if self.unix_path else "",
            self.manager.root,
        )

    def _write_ready(self) -> None:
        """Atomically publish ``{pid, port, unix}`` for supervisors/tests."""
        if self.ready_file is None:
            return
        doc = {"pid": os.getpid(), "port": self.tcp_port, "unix": self.unix_path}
        write_json_durable(self.ready_file, doc)

    def request_shutdown(self) -> None:
        self._stop.set()

    async def run(self, *, install_signal_handlers: bool = True) -> None:
        """Start, serve until shutdown is requested, stop gracefully."""
        await self.start()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self._stop.set)
                except NotImplementedError:  # non-UNIX event loops
                    break
        await self._stop.wait()
        await self.stop()

    async def stop(self) -> None:
        for srv in (self._tcp, self._unix):
            if srv is not None:
                srv.close()
        # Drop clients before wait_closed(): since 3.12 wait_closed also
        # waits for handlers, which would otherwise hang on idle readers.
        for conn in list(self._conns):
            conn.kill()
        for srv in (self._tcp, self._unix):
            if srv is not None:
                await srv.wait_closed()
        info = await self.manager.shutdown()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass
        log.info("stopped; %d session(s) checkpointed", info["checkpointed"])

    # -- connection handling ---------------------------------------------

    def _abort_conn(self, reason: str) -> None:
        """One connection died abnormally: log, count, move on.

        A bad frame or a mid-request disconnect affects only its own
        connection -- the server and every other client keep serving.
        """
        log.warning("connection aborted: %s", reason)
        reg = self.manager.registry
        if reg is not None:
            reg.inc_all({"service.conn.aborted": 1})

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(self, writer)
        self._conns.add(conn)
        try:
            plan = faults.ACTIVE
            if plan is not None:
                try:
                    plan.hit("server.conn.accept")
                except (ConnectionDropped, OSError) as e:
                    self._abort_conn(f"injected accept failure: {e}")
                    return
            await self._serve(conn, reader)
        finally:
            conn.dead = True
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve(self, conn: _Conn, reader: asyncio.StreamReader) -> None:
        """The read loop of one connection (see the module docstring)."""
        writer = conn.writer
        pending = conn.pending
        depth = self.manager.queue_depth
        while not self._stop.is_set():
            while len(pending) >= depth and not conn.dead:
                await conn.wait()  # in-flight bound: stop reading
            if conn.dead:
                return
            try:
                plan = faults.ACTIVE
                if plan is not None:
                    plan.hit("server.conn.read")
                await writer.drain()  # a client that stops reading stalls us
                raw = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # Oversized line: the stream position is unrecoverable.
                # Answer it after everything before it, then hang up.
                self._abort_conn(f"line exceeds {MAX_LINE_BYTES} bytes")
                conn.answer(None, None)(
                    ServiceError(
                        ErrorCode.BAD_REQUEST,
                        f"line exceeds {MAX_LINE_BYTES} bytes",
                    )
                )
                break
            except (ConnectionDropped, ConnectionResetError, BrokenPipeError, OSError) as e:
                conn.kill(f"read failed: {e}")
                return
            if conn.dead:
                return
            if not raw:
                break
            if not raw.endswith(b"\n"):
                # EOF mid-line: the client died with a half-written
                # frame.  Never parse it -- a truncated request could
                # decode to something the client didn't mean.
                self._abort_conn(f"half-written frame ({len(raw)} bytes) at EOF")
                break
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            req = self._start(conn, line)
            if req is not None:
                # A barrier runs alone: after every earlier answer,
                # before the next read.
                while pending and not conn.dead:
                    await conn.wait()
                if conn.dead:
                    return
                ot = self._op_trace(req)
                conn.answer(req.id, ot)(await self._respond(req, ot))
        # The client is done sending; what it sent still gets answered.
        while pending and not conn.dead:
            await conn.wait()

    def _start(self, conn: _Conn, line: str) -> Optional[Request]:
        """Parse one line and admit it, in read order.

        A malformed line and a queue op take their place in the answer
        order at once; a barrier op is returned to the read loop, which
        runs it through :meth:`_respond` once the connection is idle.
        """
        req_id: Optional[int] = None
        try:
            doc = decode_line(line)
            rid = doc.get("id")
            if type(rid) is int:
                req_id = rid
            req = request_from_doc(doc)
        except ServiceError as e:
            conn.answer(req_id, None)(e)
            return None
        if req.op not in QUEUE_OPS:
            return req
        ot = self._op_trace(req)
        slot = conn.answer(req.id, ot)
        try:
            self.manager.admit(req, slot, ot)
        except ServiceError as e:
            slot(e)
        except Exception as e:  # defense: a bug must not kill the server
            log.exception("internal error admitting op %r", req.op)
            slot(ServiceError(ErrorCode.INTERNAL, f"{type(e).__name__}: {e}"))
        return None

    def _op_trace(self, req: Request) -> Optional[OpTrace]:
        """The request's latency/span recorder, if it gets one.

        ``shutdown`` never does: it is answered outside the op
        accounting, before the server stops.
        """
        manager = self.manager
        tracer = manager.tracer
        registry = manager.registry
        if req.op == "shutdown" or (tracer is None and registry is None):
            return None
        if tracer is not None and self.trace_sample < 1.0:
            # Seeded per-request sampling: unsampled ops still feed every
            # metric (the OpTrace keeps its registry), they just emit no
            # spans -- the trace file stays a deterministic subset.
            if self._trace_rng.random() < self.trace_sample:
                if registry is not None:
                    registry.inc_all({"service.trace.sampled": 1})
            else:
                tracer = None
                if registry is not None:
                    registry.inc_all({"service.trace.skipped": 1})
        return OpTrace(
            req.op,
            req.session,
            tracer=tracer,
            registry=registry,
            tctx=req.trace,
        )

    async def _respond(
        self, req: Request, ot: Optional[OpTrace]
    ) -> Union[dict[str, Any], ServiceError]:
        """Run one barrier op to completion; its outcome."""
        if req.op == "shutdown":
            self._stop.set()
            return {"stopping": True}
        try:
            return await self.manager.dispatch(req, ot)
        except ServiceError as e:
            return e
        except Exception as e:  # defense: a bug must not kill the server
            log.exception("internal error handling op %r", req.op)
            return ServiceError(
                ErrorCode.INTERNAL, f"{type(e).__name__}: {e}"
            )
