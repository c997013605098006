"""Cluster-aware clients: route per session, follow MOVED, pipeline.

Both clients speak the ordinary service protocol to every shard; what
they add is *routing*.  Each call with a ``session`` field goes to the
shard the :class:`~repro.cluster.placement.PlacementMap` names; a
``MOVED`` redirect (the session migrated) updates the map and resends
to the target -- with the *same* idempotency key, so a mutation that
raced the migration lands exactly once (the dedup window travelled in
the migration snapshot).  Sessionless ops (``ping``/``health``/...)
go to the first shard; ``*_all`` helpers broadcast.

:class:`ClusterClient` is synchronous -- one in-flight op, the tool for
scripts, tests and the CLI.  :class:`AsyncClusterClient` is pipelined:
per shard it holds one pipelined
:class:`~repro.service.client.AsyncServiceClient`, whose connection
carries many in-flight requests matched by wire id, so one client
instance drives concurrent ops across (and within) shards.  The shard
admits each request into its session's queue in arrival order and runs
different sessions' queues concurrently: per-session order holds
(requests to one shard are written in call order) and sessions never
wait for each other on the shared connection.

Tracing: the cluster layer owns the trace id.  One ``cluster.call``
span covers the whole logical op; every hop carries the same ``tid`` in
the wire ``trace`` field, so the server-side spans of a redirected op
join into a single trace across shards (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Optional, Sequence

from repro.cluster.group import ShardSpec
from repro.cluster.placement import PlacementMap
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.client import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    _CallMixin,
    _retry_wait,
    next_idem,
    next_trace_id,
)
from repro.service.protocol import IDEMPOTENT_OPS, ErrorCode, ServiceError


class _ClusterBase(_CallMixin):
    """Shared routing state for the sync and async cluster clients."""

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        *,
        placement: Optional[PlacementMap] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        auto_idem: bool = True,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        max_hops: int = 4,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1")
        self._specs: dict[str, ShardSpec] = {s.name: s for s in shards}
        if len(self._specs) != len(shards):
            raise ValueError("duplicate shard names")
        # The rendezvous ring is the *configured* primaries (specs with
        # no ``of`` lineage -- a fenced ex-primary stays in the ring so
        # hashing is stable; its MOVED answers route around it).
        # Replicas and promoted replicas are reachable only by explicit
        # override or MOVED redirect, never by hash.
        ring = [s.name for s in shards if s.of is None]
        followers = [s.name for s in shards if s.of is not None]
        if not ring:
            raise ValueError("no primary shards in the manifest")
        self.placement = (
            placement
            if placement is not None
            else PlacementMap(ring, members=followers)
        )
        for name in followers:
            self.placement.add_member(name)
        self.timeout = timeout
        self.retry = retry
        self.auto_idem = auto_idem
        self.tracer = tracer
        self.registry = registry
        self.max_hops = max_hops
        self.redirects = 0
        self.retries = 0

    def _route(self, session: Optional[str]) -> str:
        if session is not None:
            return self.placement.owner(session)
        return self.placement.shards[0]

    def _spec(self, shard: str) -> ShardSpec:
        spec = self._specs.get(shard)
        if spec is None:
            raise ServiceError(
                ErrorCode.INTERNAL, f"unknown shard {shard!r} (stale manifest?)"
            )
        return spec

    def _count_op(self) -> None:
        reg = self.registry
        if reg is not None:
            reg.inc_all({"cluster.ops": 1})

    def _replicas_of(self, shard: str) -> list[str]:
        """Known copies of ``shard``, the failover probe order."""
        return sorted(
            name for name, spec in self._specs.items() if spec.of == shard
        )

    def _learn_promoted(self, shard: str, session: Optional[str], tid: str) -> None:
        """A probe found ``shard`` promoted: learn the new authority."""
        if session is not None:
            self.placement.assign(session, shard)
        self.redirects += 1
        reg = self.registry
        if reg is not None:
            reg.inc_all({"cluster.redirects": 1})
        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "cluster.failover",
                {"trace": tid, "session": session, "to": shard},
            )

    def _follow(
        self,
        e: ServiceError,
        session: Optional[str],
        hops: int,
        tid: str,
    ) -> Optional[str]:
        """The target shard if ``e`` is a followable MOVED, else None."""
        if e.code is not ErrorCode.MOVED or session is None:
            return None
        target = e.moved
        if target is None or target not in self._specs or hops >= self.max_hops:
            return None
        self.placement.assign(session, target)
        self.redirects += 1
        reg = self.registry
        if reg is not None:
            reg.inc_all({"cluster.redirects": 1})
        tracer = self.tracer
        if tracer is not None:
            tracer.event(
                "cluster.redirect",
                {"trace": tid, "session": session, "to": target},
            )
        return target


class ClusterClient(_ClusterBase):
    """Blocking cluster client: one lazily-connected
    :class:`~repro.service.client.ServiceClient` per shard.

    The per-shard clients carry the retry policy (transport failures,
    ``retry_later``/``degraded``); this layer adds session routing and
    MOVED-following on top.  Idempotency keys are stamped *here* so the
    same key rides every hop of one logical op.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        **kwargs: Any,
    ) -> None:
        super().__init__(shards, **kwargs)
        self._clients: dict[str, ServiceClient] = {}

    def shard_client(self, shard: str) -> ServiceClient:
        """The (lazily created) direct client for one shard."""
        client = self._clients.get(shard)
        if client is not None:
            return client
        spec = self._spec(shard)
        try:
            client = ServiceClient(
                spec.host,
                spec.port,
                timeout=self.timeout,
                retry=self.retry,
                auto_idem=False,
                tracer=None,
            )
        except OSError as e:
            raise ServiceError(
                ErrorCode.INTERNAL, f"shard {shard}: connection failed: {e}"
            ) from e
        self._clients[shard] = client
        return client

    def drop_shard_client(self, shard: str) -> None:
        """Forget a cached connection (e.g. after a shard restart)."""
        client = self._clients.pop(shard, None)
        if client is not None:
            client.close()

    def call(
        self, op: str, *, timeout: Optional[float] = None, **fields: Any
    ) -> dict[str, Any]:
        if self.auto_idem and op in IDEMPOTENT_OPS and "idem" not in fields:
            fields = {**fields, "idem": next_idem()}
        session = fields.get("session")
        tracer = self.tracer
        if tracer is None:
            return self._route_call(op, fields, session, timeout, None, "", 0)
        tid = next_trace_id()
        payload: dict[str, Any] = {"op": op, "trace": tid}
        if session is not None:
            payload["session"] = session
        root = tracer.open_span("cluster.call", payload)
        try:
            result = self._route_call(
                op, fields, session, timeout, tracer, tid, root
            )
        except ServiceError as e:
            tracer.close_span(
                root, "cluster.call", {"trace": tid, "outcome": e.code.value}
            )
            raise
        tracer.close_span(root, "cluster.call", {"trace": tid, "outcome": "ok"})
        return result

    def _route_call(
        self,
        op: str,
        fields: dict[str, Any],
        session: Optional[str],
        timeout: Optional[float],
        tracer: Optional[Tracer],
        tid: str,
        root: int,
    ) -> dict[str, Any]:
        shard = self._route(session)
        wire = fields
        if tracer is not None:
            wire = {**fields, "trace": {"tid": tid, "span": root}}
        hops = 0
        while True:
            self._count_op()
            try:
                client = self.shard_client(shard)
                return client.call(op, timeout=timeout, **wire)
            except ServiceError as e:
                if e.code is ErrorCode.INTERNAL:
                    # The cached connection may be stale (shard restart);
                    # drop it so the next attempt reconnects fresh.
                    self.drop_shard_client(shard)
                target = self._follow(e, session, hops, tid)
                if target is None and e.code is ErrorCode.INTERNAL:
                    # The shard is unreachable even after the per-shard
                    # retry policy: maybe it died and a replica was
                    # promoted.  Probe its known copies before giving up.
                    if hops < self.max_hops:
                        target = self._probe_promoted(shard, session, tid)
                if target is None:
                    raise
                hops += 1
                shard = target

    def _probe_promoted(
        self, shard: str, session: Optional[str], tid: str
    ) -> Optional[str]:
        """First copy of ``shard`` answering ``health`` as a primary."""
        for rname in self._replicas_of(shard):
            try:
                doc = self.shard_client(rname).health()
            except (ServiceError, OSError):
                self.drop_shard_client(rname)
                continue
            if doc.get("role") == "primary":
                self._learn_promoted(rname, session, tid)
                return rname
        return None

    # -- broadcast helpers ----------------------------------------------

    def health_all(self) -> dict[str, dict[str, Any]]:
        return {
            name: self.shard_client(name).health()
            for name in self.placement.shards
        }

    def stats_all(self) -> dict[str, dict[str, Any]]:
        return {
            name: self.shard_client(name).stats()
            for name in self.placement.shards
        }

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncClusterClient(_ClusterBase):
    """Pipelined asyncio cluster client: concurrent in-flight ops.

    Many tasks can share one ``AsyncClusterClient``.  Per shard it holds
    one pipelined :class:`~repro.service.client.AsyncServiceClient`
    (answers matched by wire id), so ops on different sessions -- and
    even on the same session -- overlap on the wire, and the server runs
    different sessions' ops concurrently.  Per-session *execution* order
    is the order requests reach the shard, which for one client is call
    order.  This layer adds routing, MOVED-following, failover probing
    and the retry loop; each attempt is one
    :meth:`~repro.service.client.AsyncServiceClient.call_once`.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        **kwargs: Any,
    ) -> None:
        super().__init__(shards, **kwargs)
        self._pipes: dict[str, AsyncServiceClient] = {}
        self._locks: dict[str, asyncio.Lock] = {
            name: asyncio.Lock() for name in self._specs
        }

    async def _pipe(self, shard: str) -> AsyncServiceClient:
        pipe = self._pipes.get(shard)
        if pipe is not None and pipe.connected:
            return pipe
        async with self._locks[shard]:
            pipe = self._pipes.get(shard)
            if pipe is not None and pipe.connected:
                return pipe
            spec = self._spec(shard)
            pipe = AsyncServiceClient(spec.host, spec.port, auto_idem=False)
            await pipe.connect()
            self._pipes[shard] = pipe
            return pipe

    async def _drop_pipe(self, shard: str) -> None:
        pipe = self._pipes.pop(shard, None)
        if pipe is not None:
            await pipe.close()

    async def call(
        self, op: str, *, timeout: Optional[float] = None, **fields: Any
    ) -> dict[str, Any]:
        if self.auto_idem and op in IDEMPOTENT_OPS and "idem" not in fields:
            fields = {**fields, "idem": next_idem()}
        session = fields.get("session")
        tracer = self.tracer
        if tracer is None:
            return await self._route_call(
                op, fields, session, timeout, None, "", 0
            )
        tid = next_trace_id()
        payload: dict[str, Any] = {"op": op, "trace": tid}
        if session is not None:
            payload["session"] = session
        root = tracer.open_span("cluster.call", payload)
        try:
            result = await self._route_call(
                op, fields, session, timeout, tracer, tid, root
            )
        except ServiceError as e:
            tracer.close_span(
                root, "cluster.call", {"trace": tid, "outcome": e.code.value}
            )
            raise
        tracer.close_span(root, "cluster.call", {"trace": tid, "outcome": "ok"})
        return result

    async def _route_call(
        self,
        op: str,
        fields: dict[str, Any],
        session: Optional[str],
        timeout: Optional[float],
        tracer: Optional[Tracer],
        tid: str,
        root: int,
    ) -> dict[str, Any]:
        shard = self._route(session)
        wire = fields
        if tracer is not None:
            wire = {**fields, "trace": {"tid": tid, "span": root}}
        delays = self.retry.schedule() if self.retry is not None else []
        step = 0
        hops = 0
        per_call_timeout = timeout if timeout is not None else self.timeout
        # Whole-call budget, as in the service clients: neither a server
        # ``retry_after`` hint nor a backoff step sleeps past ``timeout=``.
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._count_op()
            try:
                pipe = await self._pipe(shard)
                return await pipe.call_once(op, wire, per_call_timeout)
            except ServiceError as e:
                target = self._follow(e, session, hops, tid)
                if target is not None:
                    hops += 1
                    shard = target
                    continue
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
                await asyncio.sleep(wait)
            except (OSError, EOFError, ConnectionError) as e:
                await self._drop_pipe(shard)
                if hops < self.max_hops:
                    # Dead shard?  A promoted replica may hold the
                    # session -- probe the copies before burning a
                    # retry step against the corpse.
                    target = await self._probe_promoted(shard, session, tid)
                    if target is not None:
                        hops += 1
                        shard = target
                        continue
                if (
                    self.retry is None
                    or step >= len(delays)
                    or (
                        deadline is not None
                        and delays[step] >= deadline - time.monotonic()
                    )
                ):
                    raise ServiceError(
                        ErrorCode.INTERNAL,
                        f"shard {shard}: connection failed: {e}",
                    ) from e
                wait = delays[step]
                step += 1
                self.retries += 1
                await asyncio.sleep(wait)

    async def _probe_promoted(
        self, shard: str, session: Optional[str], tid: str
    ) -> Optional[str]:
        """First copy of ``shard`` answering ``health`` as a primary."""
        for rname in self._replicas_of(shard):
            try:
                pipe = await self._pipe(rname)
                doc = await pipe.call_once("health", {}, self.timeout)
            except (ServiceError, OSError, EOFError, ConnectionError):
                await self._drop_pipe(rname)
                continue
            if doc.get("role") == "primary":
                self._learn_promoted(rname, session, tid)
                return rname
        return None

    # -- broadcast helpers ----------------------------------------------

    async def health_all(self) -> dict[str, dict[str, Any]]:
        out: dict[str, dict[str, Any]] = {}
        for name in self.placement.shards:
            pipe = await self._pipe(name)
            out[name] = await pipe.call_once("health", {}, self.timeout)
        return out

    async def close(self) -> None:
        for pipe in list(self._pipes.values()):
            await pipe.close()
        self._pipes.clear()

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
