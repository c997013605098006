"""Client library for the scheduler service.

:class:`ServiceClient` is synchronous (blocking sockets) -- the right
tool for scripts, tests and the interactive ``repro client``.
:class:`AsyncServiceClient` rides an asyncio event loop and is what the
load generator uses to drive many sessions concurrently.

Both speak the protocol of :mod:`repro.service.protocol`: one JSON line
out, one JSON line back, ids echoed so replies can be paired with
requests.  Errors come back as :class:`ServiceError` with the wire code.

Resilience (docs/FAULTS.md):

* **Per-call timeouts.**  Every ``call`` (and convenience method) takes
  ``timeout=`` seconds; a hung server turns into a transport error
  instead of blocking forever.  A timed-out connection is torn down --
  its framing is ambiguous -- and rebuilt on the next attempt.
* **Retries.**  Pass a :class:`RetryPolicy` to retry transport failures
  (reconnecting first) and ``retry_later``/``degraded`` responses, with
  bounded exponential backoff and *seeded* jitter -- the schedule is a
  pure function of the policy, so tests and chaos runs are exactly
  reproducible.  A server-supplied ``retry_after`` hint overrides the
  local schedule for that step.
* **Idempotency keys.**  Unless ``auto_idem=False``, every mutating op
  (:data:`~repro.service.protocol.IDEMPOTENT_OPS`) is stamped with a
  client-generated key, so a retry after an ambiguous failure (dropped
  connection, timeout) is deduplicated server-side and can never
  double-apply.

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
import itertools
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Optional

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

#: Process-wide idempotency-key counter; combined with the PID the keys
#: are unique across every client instance of this process, and across
#: concurrent processes.  (Uniqueness across *sequential* processes that
#: recycle a PID is bounded by the server's dedup window, which only
#: spans its most recent mutations.)
_IDEM_COUNTER = itertools.count(1)


def _next_idem() -> str:
    return f"c{os.getpid():x}-{next(_IDEM_COUNTER):x}"


def next_idem() -> str:
    """A fresh idempotency key from the process-wide sequence.

    Public for layers that stamp keys *before* choosing a connection
    (the cluster client: one key must survive MOVED redirects and
    cross-shard retries of the same logical op).
    """
    return _next_idem()


#: Trace ids follow the same uniqueness scheme as idempotency keys: one
#: id per logical ``call``, stable across its retries, unique across the
#: clients of this process and across concurrent processes.
_TRACE_COUNTER = itertools.count(1)


def next_trace_id() -> str:
    return f"t{os.getpid():x}-{next(_TRACE_COUNTER):x}"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    ``attempts`` counts *total* tries (first call + retries).  The delay
    before retry ``k`` is ``min(base * factor**k, max_delay)`` scaled by
    a jitter factor in ``[1 - jitter, 1 + jitter]`` drawn from
    ``random.Random(seed)`` -- deterministic per policy value, so two
    equal policies produce byte-identical schedules (reprolint RL003).
    """

    attempts: int = 4
    base: float = 0.02
    factor: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.25
    seed: int = 0
    #: Also retry ``degraded`` responses (the session heals in the
    #: background); turn off to surface read-only mode immediately.
    retry_degraded: bool = True

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base < 0 or self.max_delay < 0 or self.factor < 1.0:
            raise ValueError("base/max_delay must be >= 0 and factor >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def schedule(self) -> list[float]:
        """The full backoff schedule: one delay per possible retry."""
        rng = random.Random(self.seed)
        out: list[float] = []
        delay = self.base
        for _ in range(self.attempts - 1):
            scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(min(delay, self.max_delay) * scale)
            delay *= self.factor
        return out

    def retries_code(self, code: ErrorCode) -> bool:
        if code is ErrorCode.RETRY_LATER:
            return True
        return code is ErrorCode.DEGRADED and self.retry_degraded


def _retry_wait(policy_delay: float, err: ServiceError) -> float:
    """Prefer the server's advisory delay over the local schedule."""
    if err.retry_after is not None:
        return float(err.retry_after)
    return policy_delay


def _check_id(sent: int, doc: dict[str, Any]) -> None:
    got = doc.get("id")
    if got != sent:
        raise ServiceError(
            ErrorCode.INTERNAL, f"response id {got!r} does not match request {sent}"
        )


class _CallMixin:
    """The op-level convenience surface, shared by both clients.

    Subclasses implement ``call(op, *, timeout=None, **fields)``; for the
    async client the returned value is awaitable, so these helpers stay
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


class ServiceClient(_CallMixin):
    """Blocking client over TCP (``host``/``port``) or a UNIX socket."""

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
        self._next_id = 0
        self.retries = 0
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.unix_path)
        else:
            assert self.port is not None
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        self._sock = sock
        self._fh = sock.makefile("rwb")

    def _teardown(self) -> None:
        fh, sock = self._fh, self._sock
        self._fh = self._sock = None
        try:
            if fh is not None:
                fh.close()
        except OSError:
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:
            pass

    def _call_once(
        self, op: str, fields: dict[str, Any], timeout: Optional[float]
    ) -> dict[str, Any]:
        fh, sock = self._fh, self._sock
        assert fh is not None and sock is not None
        self._next_id += 1
        req_id = self._next_id
        if timeout is not None:
            sock.settimeout(timeout)
        try:
            fh.write(encode({"op": op, "id": req_id, **fields}))
            fh.flush()
            raw = fh.readline(MAX_LINE_BYTES + 1)
        finally:
            if timeout is not None:
                sock.settimeout(self.timeout)
        if not raw:
            raise ConnectionError("server closed the connection")
        doc = decode_line(raw.decode("utf-8"))
        _check_id(req_id, doc)
        return result_from_response(doc)

    def call(
        self, op: str, *, timeout: Optional[float] = None, **fields: Any
    ) -> dict[str, Any]:
        if self.auto_idem and op in IDEMPOTENT_OPS and "idem" not in fields:
            fields = {**fields, "idem": _next_idem()}
        tracer = self.tracer
        if tracer is None:
            return self._call_loop(op, fields, timeout, None, "", 0)
        tid = next_trace_id()
        payload: dict[str, Any] = {"op": op, "trace": tid}
        if "session" in fields:
            payload["session"] = fields["session"]
        root = tracer.open_span("client.call", payload)
        try:
            result = self._call_loop(op, fields, timeout, tracer, tid, root)
        except ServiceError as e:
            tracer.close_span(
                root, "client.call", {"trace": tid, "outcome": e.code.value}
            )
            raise
        tracer.close_span(root, "client.call", {"trace": tid, "outcome": "ok"})
        return result

    def _call_loop(
        self,
        op: str,
        fields: dict[str, Any],
        timeout: Optional[float],
        tracer: Optional[Tracer],
        tid: str,
        root: int,
    ) -> dict[str, Any]:
        delays = self.retry.schedule() if self.retry is not None else []
        # The caller's ``timeout=`` is a whole-call budget for backoff:
        # a server ``retry_after`` hint (or a long local delay) must
        # never sleep past it -- when the wait cannot fit in what is
        # left, fail fast with the pending error instead.
        deadline = None if timeout is None else time.monotonic() + timeout
        step = 0
        attempt = 0
        while True:
            attempt += 1
            afields = fields
            aspan: Optional[int] = None
            if tracer is not None:
                aspan = tracer.open_span(
                    "client.attempt",
                    {"op": op, "parent": root, "trace": tid, "attempt": attempt},
                )
                afields = {**fields, "trace": {"tid": tid, "span": aspan}}
            try:
                if self._fh is None:
                    self.reconnects += 1
                    if tracer is not None:
                        tracer.event("client.reconnect", {"trace": tid})
                    self._connect()
                result = self._call_once(op, afields, timeout)
            except ServiceError as e:
                if tracer is not None and aspan is not None:
                    tracer.close_span(
                        aspan, "client.attempt",
                        {"trace": tid, "outcome": e.code.value},
                    )
                if (
                    self.retry is None
                    or not self.retry.retries_code(e.code)
                    or step >= len(delays)
                ):
                    raise
                wait = _retry_wait(delays[step], e)
                if deadline is not None and wait >= deadline - time.monotonic():
                    raise
                step += 1
                self.retries += 1
                if tracer is not None:
                    tracer.event(
                        "client.retry",
                        {"trace": tid, "error": e.code.value,
                         "wait": round(wait, 6)},
                    )
                time.sleep(wait)
            except (OSError, EOFError) as e:
                # Transport failure mid-call: the request's fate is
                # unknown, so tear down and (with idem keys making the
                # retry safe) reconnect on the next attempt.
                if tracer is not None and aspan is not None:
                    tracer.close_span(
                        aspan, "client.attempt",
                        {"trace": tid, "outcome": "transport",
                         "error": f"{type(e).__name__}: {e}"},
                    )
                self._teardown()
                if self.retry is None or step >= len(delays):
                    raise ServiceError(
                        ErrorCode.INTERNAL, f"connection failed: {e}"
                    ) from e
                wait = delays[step]
                if deadline is not None and wait >= deadline - time.monotonic():
                    raise ServiceError(
                        ErrorCode.INTERNAL, f"connection failed: {e}"
                    ) from e
                step += 1
                self.retries += 1
                if tracer is not None:
                    tracer.event(
                        "client.retry",
                        {"trace": tid, "error": "transport",
                         "wait": round(wait, 6)},
                    )
                time.sleep(wait)
            else:
                if tracer is not None and aspan is not None:
                    tracer.close_span(
                        aspan, "client.attempt", {"trace": tid, "outcome": "ok"}
                    )
                return result

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncServiceClient(_CallMixin):
    """Pipelined asyncio client: any number of in-flight requests.

    Many tasks may share one instance.  Each request gets a fresh wire
    id and its answer is matched by that id, so requests on different
    sessions overlap on the one connection while each session's
    requests still reach the server in call order.  A request that
    times out tears the connection down (its framing is ambiguous),
    failing every other request in flight on it.
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

    async def call_once(
        self, op: str, fields: dict[str, Any], timeout: Optional[float]
    ) -> dict[str, Any]:
        """One attempt: send ``op`` under a fresh wire id and await the
        answer echoing it.  No retry, no reconnect.

        An error answer raises :class:`ServiceError` (INTERNAL when the
        client was never connected); a lost connection raises
        ``ConnectionError``, and so does a timeout, after tearing the
        connection down.
        """
        writer = self._writer
        if writer is None:
            raise ServiceError(ErrorCode.INTERNAL, "client is not connected")
        if not self.connected:
            raise ConnectionError("server closed the connection")
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
                await asyncio.wait_for(writer.drain(), timeout)
            doc = await asyncio.wait_for(fut, timeout)
        except (asyncio.TimeoutError, TimeoutError) as e:
            self._pending.pop(rid, None)
            await self._teardown(writer)
            raise ConnectionError("request timed out") from e
        return result_from_response(doc)

    async def call(
        self, op: str, *, timeout: Optional[float] = None, **fields: Any
    ) -> dict[str, Any]:
        if self.auto_idem and op in IDEMPOTENT_OPS and "idem" not in fields:
            fields = {**fields, "idem": _next_idem()}
        tracer = self.tracer
        if tracer is None:
            return await self._call_loop(op, fields, timeout, None, "", 0)
        tid = next_trace_id()
        payload: dict[str, Any] = {"op": op, "trace": tid}
        if "session" in fields:
            payload["session"] = fields["session"]
        root = tracer.open_span("client.call", payload)
        try:
            result = await self._call_loop(op, fields, timeout, tracer, tid, root)
        except ServiceError as e:
            tracer.close_span(
                root, "client.call", {"trace": tid, "outcome": e.code.value}
            )
            raise
        tracer.close_span(root, "client.call", {"trace": tid, "outcome": "ok"})
        return result

    async def _call_loop(
        self,
        op: str,
        fields: dict[str, Any],
        timeout: Optional[float],
        tracer: Optional[Tracer],
        tid: str,
        root: int,
    ) -> dict[str, Any]:
        delays = self.retry.schedule() if self.retry is not None else []
        # Same whole-call backoff budget as the sync client: a server
        # ``retry_after`` hint never sleeps past ``timeout=``.
        deadline = None if timeout is None else time.monotonic() + timeout
        step = 0
        attempt = 0
        while True:
            attempt += 1
            afields = fields
            aspan: Optional[int] = None
            if tracer is not None:
                aspan = tracer.open_span(
                    "client.attempt",
                    {"op": op, "parent": root, "trace": tid, "attempt": attempt},
                )
                afields = {**fields, "trace": {"tid": tid, "span": aspan}}
            conn = self._writer
            try:
                if conn is None and self.retry is not None and step > 0:
                    self.reconnects += 1
                    if tracer is not None:
                        tracer.event("client.reconnect", {"trace": tid})
                    await self.connect()
                    conn = self._writer
                result = await self.call_once(op, afields, timeout)
            except ServiceError as e:
                if tracer is not None and aspan is not None:
                    tracer.close_span(
                        aspan, "client.attempt",
                        {"trace": tid, "outcome": e.code.value},
                    )
                if (
                    self.retry is None
                    or not self.retry.retries_code(e.code)
                    or step >= len(delays)
                ):
                    raise
                wait = _retry_wait(delays[step], e)
                if deadline is not None and wait >= deadline - time.monotonic():
                    raise
                step += 1
                self.retries += 1
                if tracer is not None:
                    tracer.event(
                        "client.retry",
                        {"trace": tid, "error": e.code.value,
                         "wait": round(wait, 6)},
                    )
                await asyncio.sleep(wait)
            except (OSError, EOFError) as e:
                # A lost connection or a timeout: the connection is
                # gone (call_once tore a timed-out one down already).
                if tracer is not None and aspan is not None:
                    tracer.close_span(
                        aspan, "client.attempt",
                        {"trace": tid, "outcome": "transport",
                         "error": f"{type(e).__name__}: {e}"},
                    )
                await self._teardown(conn)
                if self.retry is None or step >= len(delays):
                    raise ServiceError(
                        ErrorCode.INTERNAL, f"connection failed: {e}"
                    ) from e
                wait = delays[step]
                if deadline is not None and wait >= deadline - time.monotonic():
                    raise ServiceError(
                        ErrorCode.INTERNAL, f"connection failed: {e}"
                    ) from e
                step += 1
                self.retries += 1
                if tracer is not None:
                    tracer.event(
                        "client.retry",
                        {"trace": tid, "error": "transport",
                         "wait": round(wait, 6)},
                    )
                await asyncio.sleep(wait)
            else:
                if tracer is not None and aspan is not None:
                    tracer.close_span(
                        aspan, "client.attempt", {"trace": tid, "outcome": "ok"}
                    )
                return result

    async def close(self) -> None:
        await self._teardown()

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
