"""Asyncio front end: TCP + UNIX-socket listeners for the line protocol.

One connection handler per client; requests on a connection are answered
in order (the handler is a plain read-dispatch-write loop), while
different connections interleave freely -- cross-session concurrency
comes from the :class:`~repro.service.sessions.SessionManager` workers,
not from the socket layer.

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
from typing import Any, Optional

from repro import faults
from repro.faults import ConnectionDropped
from repro.obs.logsetup import get_logger
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ServiceError,
    decode_line,
    encode,
    error_response,
    ok_response,
    request_from_doc,
)
from repro.service.journal import write_json_durable
from repro.service.sessions import SessionManager
from repro.service.tracing import OpTrace

log = get_logger("service")


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
        self._conns: set[asyncio.StreamWriter] = set()
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
        for writer in list(self._conns):
            writer.close()
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
        self._conns.add(writer)
        partitioned = False
        try:
            plan = faults.ACTIVE
            if plan is not None:
                try:
                    plan.hit("server.conn.accept")
                except (ConnectionDropped, OSError) as e:
                    self._abort_conn(f"injected accept failure: {e}")
                    return
            while not self._stop.is_set():
                try:
                    plan = faults.ACTIVE
                    if plan is not None:
                        plan.hit("server.conn.read")
                    raw = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: the stream position is unrecoverable.
                    self._abort_conn(f"line exceeds {MAX_LINE_BYTES} bytes")
                    try:
                        writer.write(
                            encode(
                                error_response(
                                    None,
                                    ErrorCode.BAD_REQUEST,
                                    f"line exceeds {MAX_LINE_BYTES} bytes",
                                )
                            )
                        )
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                    break
                except (ConnectionDropped, ConnectionResetError, BrokenPipeError, OSError) as e:
                    self._abort_conn(f"read failed: {e}")
                    break
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
                resp = await self._respond(line)
                if not partitioned:
                    plan = faults.ACTIVE
                    if plan is not None:
                        try:
                            plan.hit("server.conn.partition")
                        except (ConnectionDropped, OSError) as e:
                            # Half-open network partition: keep reading
                            # (and executing) the peer's requests, but no
                            # response ever gets through.  The client
                            # times out on an op that may or may not have
                            # applied -- the ambiguity idempotency keys
                            # exist to resolve.
                            partitioned = True
                            log.warning("injected half-open partition: %s", e)
                            reg = self.manager.registry
                            if reg is not None:
                                reg.inc_all({"service.conn.partitioned": 1})
                if partitioned:
                    continue
                try:
                    plan = faults.ACTIVE
                    if plan is not None:
                        plan.hit("server.conn.write")
                    writer.write(encode(resp))
                    await writer.drain()
                except (ConnectionDropped, ConnectionResetError, BrokenPipeError, OSError) as e:
                    self._abort_conn(f"write failed: {e}")
                    break
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _respond(self, line: str) -> dict[str, Any]:
        req_id: Optional[int] = None
        try:
            doc = decode_line(line)
            rid = doc.get("id")
            if type(rid) is int:
                req_id = rid
            req = request_from_doc(doc)
        except ServiceError as e:
            return error_response(
                req_id, e.code, e.message, retry_after=e.retry_after
            )
        if req.op == "shutdown":
            self._stop.set()
            return ok_response(req.id, {"stopping": True})
        manager = self.manager
        tracer = manager.tracer
        registry = manager.registry
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
        ot: Optional[OpTrace] = None
        if tracer is not None or registry is not None:
            ot = OpTrace(
                req.op,
                req.session,
                tracer=tracer,
                registry=registry,
                tctx=req.trace,
            )
        try:
            result = await manager.dispatch(req, ot)
        except ServiceError as e:
            if ot is not None:
                ot.finish(ok=False, code=e.code.value)
            return error_response(
                req.id, e.code, e.message,
                retry_after=e.retry_after, moved=e.moved,
            )
        except Exception as e:  # defense: a bug must not kill the server
            log.exception("internal error handling op %r", req.op)
            if ot is not None:
                ot.finish(ok=False, code=ErrorCode.INTERNAL.value)
            return error_response(
                req.id, ErrorCode.INTERNAL, f"{type(e).__name__}: {e}"
            )
        if ot is not None:
            ot.finish(ok=True)
        return ok_response(req.id, result)
