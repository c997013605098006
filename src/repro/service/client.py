"""Client library for the scheduler service.

:class:`ServiceClient` is synchronous (blocking sockets) -- the right
tool for scripts, tests and the interactive ``repro client``.
:class:`AsyncServiceClient` rides an asyncio event loop and is what the
load generator uses to drive many sessions concurrently.

Both speak the protocol of :mod:`repro.service.protocol`: one JSON line
out, one JSON line back, ids echoed so replies can be paired with
requests.  Errors come back as :class:`ServiceError` with the wire code.

Every retry decision is made by the pure
:class:`~repro.service.retry.CallPlan`, the one policy the cluster
clients (:mod:`repro.cluster.client`) run too; this module holds the
two shells that run it -- one blocking, one asyncio -- around each
client's one-attempt hook (docs/FAULTS.md, "Client resilience"):
``timeout=`` bounds the whole call, an attempt whose connection is down
reconnects first, ``close()`` is final, a :class:`RetryPolicy` retries
lost connections and ``retry_later``/``degraded`` answers on a seeded
schedule, and every mutating op is stamped with one idempotency key
(unless ``auto_idem=False``) that rides all of its retries.

Tracing (docs/OBSERVABILITY.md): pass ``tracer=`` and every ``call``
becomes a ``client.call`` span with one ``client.attempt`` child per
try, all sharing one trace id that is *stable across retries* and
stamped into the wire ``trace`` field -- a traced server links its
``server.op`` spans back to the exact attempt that caused them, so a
retried-then-deduplicated insert reads as one trace with two attempts
and a single application.  Without a tracer the cost is one ``None``
test per call (reprolint RL008).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import socket
import time
from typing import Any, Awaitable, Callable, Mapping, Optional, Sequence

from repro.obs.trace import Tracer
from repro.service.protocol import (
    IDEMPOTENT_OPS,
    MAX_LINE_BYTES,
    ErrorCode,
    ServiceError,
    decode_line,
    encode,
    result_from_response,
)
from repro.service.retry import CallPlan, Step
from repro.service.retry import RetryPolicy as RetryPolicy  # re-exported

#: Process-wide idempotency-key counter; combined with the PID the keys
#: are unique across every client instance of this process, and across
#: concurrent processes.  (Uniqueness across *sequential* processes that
#: recycle a PID is bounded by the server's dedup window, which only
#: spans its most recent mutations.)
_IDEM_COUNTER = itertools.count(1)


def next_idem() -> str:
    """A fresh idempotency key from the process-wide sequence.

    Stamped once per logical call, before its first attempt, so the
    same key rides every retry and every hop of that call.
    """
    return f"c{os.getpid():x}-{next(_IDEM_COUNTER):x}"


#: Trace ids follow the same uniqueness scheme as idempotency keys: one
#: id per logical ``call``, stable across its retries, unique across the
#: clients of this process and across concurrent processes.
_TRACE_COUNTER = itertools.count(1)


def next_trace_id() -> str:
    return f"t{os.getpid():x}-{next(_TRACE_COUNTER):x}"


class _CallMixin:
    """The op-level convenience surface, shared by every client.

    Subclasses implement ``call(op, *, timeout=None, **fields)``; for the
    async clients the returned value is awaitable, so these helpers stay
    thin pass-throughs.  ``timeout`` bounds that one call end to end;
    ``idem`` overrides the auto-generated idempotency key.
    """

    def call(self, op: str, *, timeout: Optional[float] = None, **fields: Any) -> Any:
        raise NotImplementedError

    def ping(self, *, timeout: Optional[float] = None) -> Any:
        return self.call("ping", timeout=timeout)

    def health(self, *, timeout: Optional[float] = None) -> Any:
        return self.call("health", timeout=timeout)

    def open(
        self,
        session: str,
        config: Optional[dict[str, Any]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Any:
        if config is None:
            return self.call("open", session=session, timeout=timeout)
        return self.call("open", session=session, config=config, timeout=timeout)

    def insert(
        self,
        session: str,
        name: str,
        size: int,
        *,
        idem: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        fields: dict[str, Any] = {"session": session, "name": name, "size": size}
        if idem is not None:
            fields["idem"] = idem
        return self.call("insert", timeout=timeout, **fields)

    def delete(
        self,
        session: str,
        name: str,
        *,
        idem: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        fields: dict[str, Any] = {"session": session, "name": name}
        if idem is not None:
            fields["idem"] = idem
        return self.call("delete", timeout=timeout, **fields)

    def query(
        self,
        session: str,
        name: Optional[str] = None,
        *,
        jobs: bool = False,
        timeout: Optional[float] = None,
    ) -> Any:
        fields: dict[str, Any] = {"session": session}
        if name is not None:
            fields["name"] = name
        if jobs:
            fields["jobs"] = True
        return self.call("query", timeout=timeout, **fields)

    def snapshot(self, session: str, *, timeout: Optional[float] = None) -> Any:
        return self.call("snapshot", session=session, timeout=timeout)

    def stats(
        self, session: Optional[str] = None, *, timeout: Optional[float] = None
    ) -> Any:
        if session is None:
            return self.call("stats", timeout=timeout)
        return self.call("stats", session=session, timeout=timeout)

    def close_session(
        self,
        session: str,
        *,
        idem: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        fields: dict[str, Any] = {"session": session}
        if idem is not None:
            fields["idem"] = idem
        return self.call("close", timeout=timeout, **fields)

    def migrate_out(self, session: str, *, timeout: Optional[float] = None) -> Any:
        """Freeze ``session`` on this shard and fetch its full snapshot."""
        return self.call("migrate_out", session=session, timeout=timeout)

    def migrate_in(
        self,
        session: str,
        snapshot: dict[str, Any],
        *,
        config: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Adopt a session snapshot produced by :meth:`migrate_out`."""
        fields: dict[str, Any] = {"session": session, "snapshot": snapshot}
        if config is not None:
            fields["config"] = config
        return self.call("migrate_in", timeout=timeout, **fields)

    def migrate_seal(
        self, session: str, target: str, *, timeout: Optional[float] = None
    ) -> Any:
        """Tombstone a migrated session; later ops here answer MOVED."""
        return self.call(
            "migrate_seal", session=session, target=target, timeout=timeout
        )

    def repl_apply(
        self,
        session: str,
        records: list[str],
        *,
        config: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Ship encoded journal record lines to a replica, verbatim."""
        fields: dict[str, Any] = {"session": session, "records": records}
        if config is not None:
            fields["config"] = config
        return self.call("repl_apply", timeout=timeout, **fields)

    def repl_install(
        self,
        session: str,
        snapshot: dict[str, Any],
        *,
        config: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Seed or catch up a replica from a full primary snapshot."""
        fields: dict[str, Any] = {"session": session, "snapshot": snapshot}
        if config is not None:
            fields["config"] = config
        return self.call("repl_install", timeout=timeout, **fields)

    def repl_status(self, *, timeout: Optional[float] = None) -> Any:
        """Per-session durable LSNs plus role/epoch (promotion input)."""
        return self.call("repl_status", timeout=timeout)

    def repl_promote(self, epoch: int, *, timeout: Optional[float] = None) -> Any:
        """Durably exit replica mode at ``epoch`` (failover promotion)."""
        return self.call("repl_promote", epoch=epoch, timeout=timeout)

    def shutdown(self, *, timeout: Optional[float] = None) -> Any:
        return self.call("shutdown", timeout=timeout)


class _CallTrace:
    """One traced call: its root span (``client.call`` or
    ``cluster.call``) and one ``client.attempt`` child per try.

    Each attempt's span id goes on the wire, so every ``server.op`` an
    attempt causes joins back to it; the trace id stays the same across
    every retry and hop of the call.
    """

    __slots__ = ("sink", "name", "op", "tid", "root", "attempts", "span", "outcome")

    def __init__(self, sink: Tracer, name: str, op: str, session: Any) -> None:
        self.sink = sink
        self.name = name
        self.op = op
        self.tid = next_trace_id()
        payload: dict[str, Any] = {"op": op, "trace": self.tid}
        if session is not None:
            payload["session"] = session
        self.root = sink.open_span(name, payload)
        self.attempts = 0
        self.span = 0
        #: The last attempt's outcome: ``ok``, an error code or ``transport``.
        self.outcome = "ok"

    def stamp(self, fields: dict[str, Any]) -> dict[str, Any]:
        """Open the next attempt's span; ``fields`` plus its wire stamp."""
        self.attempts += 1
        self.span = self.sink.open_span(
            "client.attempt",
            {"op": self.op, "parent": self.root, "trace": self.tid,
             "attempt": self.attempts},
        )
        return {**fields, "trace": {"tid": self.tid, "span": self.span}}

    def attempted(self, failure: Optional[BaseException]) -> None:
        payload: dict[str, Any] = {"trace": self.tid}
        if failure is None:
            self.outcome = "ok"
        elif isinstance(failure, ServiceError):
            self.outcome = failure.code.value
        else:
            self.outcome = "transport"
            payload["error"] = f"{type(failure).__name__}: {failure}"
        payload["outcome"] = self.outcome
        self.sink.close_span(self.span, "client.attempt", payload)

    def event(self, name: str, payload: dict[str, Any]) -> None:
        self.sink.event(name, {"trace": self.tid, **payload})

    def retried(self, wait: float) -> None:
        self.event("client.retry", {"error": self.outcome, "wait": round(wait, 6)})

    def close(self, outcome: str) -> None:
        self.sink.close_span(
            self.root, self.name, {"trace": self.tid, "outcome": outcome}
        )


class _Shell(_CallMixin):
    """What the blocking and asyncio shells share.

    A shell stamps the idempotency key, opens the trace, makes the first
    attempt and, from the first failure on, does what a
    :class:`~repro.service.retry.CallPlan` says.  A client supplies the
    hooks: ``_attempt(shard, op, fields, budget)`` (one try at a shard,
    reconnecting if need be; a lost connection raises ``OSError``),
    ``_is_primary(copy, budget)`` (the failover probe) and
    ``_learn(plan, trace)`` (record a hop's new owner).  A direct
    service client has one shard, ``""``, and never hops or probes.
    """

    tracer: Optional[Tracer]
    retry: Optional[RetryPolicy]
    auto_idem: bool
    retries: int
    _learn: Callable[[CallPlan, Optional[_CallTrace]], None]
    #: The root span of a traced call.
    _call_span = "client.call"
    #: Hop limit and known shards -> copies (:class:`CallPlan`).
    max_hops = 0
    _copies: Mapping[str, Sequence[str]] = {}

    def _route(self, fields: dict[str, Any]) -> str:
        """The shard a call's first attempt goes to."""
        return ""

    def _plan(
        self, shard: str, fields: dict[str, Any], timeout: Optional[float], start: float
    ) -> CallPlan:
        return CallPlan(
            self.retry, timeout=timeout, start=start, shard=shard,
            session=fields.get("session"), copies=self._copies,
            max_hops=self.max_hops,
        )


class _SyncShell(_Shell):
    """Runs the call plan with blocking I/O."""

    _attempt: Callable[[str, str, dict[str, Any], Optional[float]], dict[str, Any]]
    _is_primary: Callable[[str, Optional[float]], bool]

    def call(
        self, op: str, *, timeout: Optional[float] = None, **fields: Any
    ) -> dict[str, Any]:
        if self.auto_idem and op in IDEMPOTENT_OPS and "idem" not in fields:
            fields = {**fields, "idem": next_idem()}
        tracer = self.tracer
        trace = (
            None if tracer is None
            else _CallTrace(tracer, self._call_span, op, fields.get("session"))
        )
        shard = self._route(fields)
        start = time.monotonic() if timeout is not None else 0.0
        budget = timeout
        plan: Optional[CallPlan] = None
        while True:
            wire = fields if trace is None else trace.stamp(fields)
            try:
                result = self._attempt(shard, op, wire, budget)
            except ServiceError as e:
                failure: BaseException = e
            except (OSError, EOFError) as e:
                failure = e
            else:
                if trace is not None:
                    trace.attempted(None)
                    trace.close("ok")
                return result
            if trace is not None:
                trace.attempted(failure)
            if plan is None:
                plan = self._plan(shard, fields, timeout, start)
            step = plan.failed(failure, time.monotonic())
            while step is Step.SLEEP or step is Step.PROBE:
                if step is Step.SLEEP:
                    self.retries += 1
                    if trace is not None:
                        trace.retried(plan.wait)
                    time.sleep(plan.wait)
                    step = plan.woke(time.monotonic())
                else:
                    primary = self._is_primary(plan.probe, plan.budget)
                    step = plan.probed(primary, time.monotonic())
            if plan.hop:
                self._learn(plan, trace)
            if step is Step.RAISE:
                if trace is not None:
                    trace.close(plan.error.code.value)
                raise plan.error
            shard, budget = plan.shard, plan.budget


class _AsyncShell(_Shell):
    """Runs the call plan on an asyncio event loop (the twin of
    :class:`_SyncShell`, line for line)."""

    _attempt: Callable[
        [str, str, dict[str, Any], Optional[float]], Awaitable[dict[str, Any]]
    ]
    _is_primary: Callable[[str, Optional[float]], Awaitable[bool]]

    async def call(
        self, op: str, *, timeout: Optional[float] = None, **fields: Any
    ) -> dict[str, Any]:
        if self.auto_idem and op in IDEMPOTENT_OPS and "idem" not in fields:
            fields = {**fields, "idem": next_idem()}
        tracer = self.tracer
        trace = (
            None if tracer is None
            else _CallTrace(tracer, self._call_span, op, fields.get("session"))
        )
        shard = self._route(fields)
        start = time.monotonic() if timeout is not None else 0.0
        budget = timeout
        plan: Optional[CallPlan] = None
        while True:
            wire = fields if trace is None else trace.stamp(fields)
            try:
                result = await self._attempt(shard, op, wire, budget)
            except ServiceError as e:
                failure: BaseException = e
            except (OSError, EOFError) as e:
                failure = e
            else:
                if trace is not None:
                    trace.attempted(None)
                    trace.close("ok")
                return result
            if trace is not None:
                trace.attempted(failure)
            if plan is None:
                plan = self._plan(shard, fields, timeout, start)
            step = plan.failed(failure, time.monotonic())
            while step is Step.SLEEP or step is Step.PROBE:
                if step is Step.SLEEP:
                    self.retries += 1
                    if trace is not None:
                        trace.retried(plan.wait)
                    await asyncio.sleep(plan.wait)
                    step = plan.woke(time.monotonic())
                else:
                    primary = await self._is_primary(plan.probe, plan.budget)
                    step = plan.probed(primary, time.monotonic())
            if plan.hop:
                self._learn(plan, trace)
            if step is Step.RAISE:
                if trace is not None:
                    trace.close(plan.error.code.value)
                raise plan.error
            shard, budget = plan.shard, plan.budget


class ServiceClient(_SyncShell):
    """Blocking client over TCP (``host``/``port``) or a UNIX socket.

    ``timeout`` is the socket timeout of any attempt whose call gives no
    ``timeout=`` of its own.  ``reconnects`` counts the connections
    calls rebuilt; ``retries`` the backoff sleeps.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        *,
        unix_path: Optional[str] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        auto_idem: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if (port is None) == (unix_path is None):
            raise ValueError("pass exactly one of port= or unix_path=")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.timeout = timeout
        self.retry = retry
        self.auto_idem = auto_idem
        self.tracer = tracer
        self._sock: Optional[socket.socket] = None
        self._fh: Optional[Any] = None
        self._closed = False
        self._next_id = 0
        self.retries = 0
        self.reconnects = 0
        self._connect(timeout)

    def _connect(self, timeout: float) -> tuple[Any, socket.socket]:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(self.unix_path)
            except OSError:
                sock.close()
                raise
        else:
            assert self.port is not None
            sock = socket.create_connection((self.host, self.port), timeout=timeout)
        fh = sock.makefile("rwb")
        self._sock, self._fh = sock, fh
        return fh, sock

    def _teardown(self) -> None:
        fh, sock = self._fh, self._sock
        self._fh = self._sock = None
        for part in (fh, sock):
            if part is not None:
                with contextlib.suppress(OSError):
                    part.close()

    def _attempt(
        self, shard: str, op: str, fields: dict[str, Any], budget: Optional[float]
    ) -> dict[str, Any]:
        """One try, reconnecting first if the connection is down.

        An error answer raises :class:`ServiceError` (INTERNAL once the
        client is closed); a lost, refused or timed-out connection
        raises ``OSError`` after tearing the connection down.
        """
        fh, sock = self._fh, self._sock
        if fh is None or sock is None:
            if self._closed:
                raise ServiceError(ErrorCode.INTERNAL, "client is closed")
            self.reconnects += 1
            tracer = self.tracer
            if tracer is not None and "trace" in fields:
                tracer.event("client.reconnect", {"trace": fields["trace"]["tid"]})
            fh, sock = self._connect(self.timeout if budget is None else budget)
        self._next_id += 1
        req_id = self._next_id
        try:
            if budget is not None:
                sock.settimeout(budget)
            fh.write(encode({"op": op, "id": req_id, **fields}))
            fh.flush()
            raw = fh.readline(MAX_LINE_BYTES + 1)
            if not raw:
                raise ConnectionError("server closed the connection")
            if budget is not None:
                sock.settimeout(self.timeout)
        except OSError:
            # The request's fate is unknown and the framing ambiguous.
            self._teardown()
            raise
        doc = decode_line(raw.decode("utf-8"))
        if doc.get("id") != req_id:
            raise ServiceError(
                ErrorCode.INTERNAL,
                f"response id {doc.get('id')!r} does not match request {req_id}",
            )
        return result_from_response(doc)

    def close(self) -> None:
        self._closed = True
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncServiceClient(_AsyncShell):
    """Pipelined asyncio client: any number of in-flight requests.

    Many tasks may share one instance.  Each request gets a fresh wire
    id and its answer is matched by that id, so requests on different
    sessions overlap on the one connection while each session's
    requests still reach the server in call order.  A request that
    times out tears the connection down (its framing is ambiguous),
    failing every other request in flight on it; the next attempt on
    any task reconnects.  ``reconnects`` counts the connections calls
    opened (``connect()`` opens the first one).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        *,
        unix_path: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        auto_idem: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if (port is None) == (unix_path is None):
            raise ValueError("pass exactly one of port= or unix_path=")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.retry = retry
        self.auto_idem = auto_idem
        self.tracer = tracer
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pump: Optional["asyncio.Task[None]"] = None
        #: Connected, and neither torn down nor lost since.
        self.connected = False
        self._closed = False
        self._reconnecting = asyncio.Lock()
        #: Wire id -> the future its answer resolves.
        self._pending: dict[int, "asyncio.Future[dict[str, Any]]"] = {}
        self._next_id = 0
        self.retries = 0
        self.reconnects = 0

    async def connect(self) -> "AsyncServiceClient":
        if self.unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(
                self.unix_path, limit=MAX_LINE_BYTES
            )
        else:
            assert self.port is not None
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=MAX_LINE_BYTES
            )
        if self._writer is not None:
            # Another task reconnected while we awaited; keep theirs.
            writer.close()
            return self
        self._reader, self._writer = reader, writer
        self.connected = True
        self._pump = asyncio.get_running_loop().create_task(
            self._read_answers(reader)
        )
        return self

    async def _read_answers(self, reader: asyncio.StreamReader) -> None:
        """Resolve each answer line to the request whose wire id it
        echoes; once the connection ends, fail every request still in
        flight with ``ConnectionError``."""
        pending = self._pending
        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                doc = decode_line(raw.decode("utf-8"))
                rid = doc.get("id")
                fut = pending.pop(rid, None) if type(rid) is int else None
                if fut is not None and not fut.done():
                    fut.set_result(doc)
        except (OSError, ValueError, ServiceError, asyncio.LimitOverrunError):
            pass
        finally:
            if self._reader is reader:
                self.connected = False
                self._fail_pending(ConnectionError("server closed the connection"))

    def _fail_pending(self, err: Exception) -> None:
        pending = self._pending
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(err)
        pending.clear()

    async def _teardown(
        self, writer: Optional[asyncio.StreamWriter] = None
    ) -> None:
        """Close the connection -- only if it is still ``writer``'s,
        when given: a stale failure must not kill a fresh reconnect."""
        if writer is not None and writer is not self._writer:
            return
        writer, pump = self._writer, self._pump
        self._reader = self._writer = None
        self._pump = None
        self.connected = False
        self._fail_pending(ConnectionError("connection torn down"))
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        if pump is not None:
            pump.cancel()
            try:
                await pump
            except asyncio.CancelledError:
                pass

    async def _reconnect(self, fields: dict[str, Any]) -> asyncio.StreamWriter:
        """Replace a connection that is down.  One task reconnects; the
        others that found it down wait for it and use its connection."""
        async with self._reconnecting:
            writer = self._writer
            if writer is not None and self.connected and not writer.is_closing():
                return writer
            if self._closed:
                raise ServiceError(ErrorCode.INTERNAL, "client is closed")
            if writer is not None:
                await self._teardown(writer)
            self.reconnects += 1
            tracer = self.tracer
            if tracer is not None and "trace" in fields:
                tracer.event("client.reconnect", {"trace": fields["trace"]["tid"]})
            await self.connect()
            writer = self._writer
            if writer is None or not self.connected:
                raise ConnectionError("connection lost while reconnecting")
            return writer

    async def _attempt(
        self, shard: str, op: str, fields: dict[str, Any], budget: Optional[float]
    ) -> dict[str, Any]:
        """One try: send ``op`` under a fresh wire id and await the
        answer echoing it, reconnecting first if the connection is down.

        An error answer raises :class:`ServiceError` (INTERNAL once the
        client is closed); a lost or refused connection raises
        ``OSError``, and so does a timeout, after tearing the connection
        down.  A transport that is closing counts as down even before
        the reader task has seen the connection end.
        """
        writer = self._writer
        if writer is None or not self.connected or writer.is_closing():
            writer = await self._reconnect(fields)
        self._next_id += 1
        rid = self._next_id
        fut: "asyncio.Future[dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[rid] = fut
        writer.write(encode({"op": op, "id": rid, **fields}))
        try:
            if writer.transport.get_write_buffer_size():
                # The socket did not take the whole line: wait for room.
                await asyncio.wait_for(writer.drain(), budget)
            doc = await asyncio.wait_for(fut, budget)
        except (asyncio.TimeoutError, TimeoutError) as e:
            self._pending.pop(rid, None)
            await self._teardown(writer)
            raise ConnectionError("request timed out") from e
        return result_from_response(doc)

    async def close(self) -> None:
        self._closed = True
        await self._teardown()

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
