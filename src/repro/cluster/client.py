"""Cluster-aware clients: route per session, follow MOVED, pipeline.

Both clients speak the ordinary service protocol to every shard; what
they add is *routing*.  Each call with a ``session`` field goes to the
shard the :class:`~repro.cluster.placement.PlacementMap` names; a
``MOVED`` redirect (the session migrated) updates the map and resends
to the target -- with the *same* idempotency key, so a mutation that
raced the migration lands exactly once (the dedup window travelled in
the migration snapshot).  A lost connection first probes the shard's
known copies for a promoted replica, then backs off.  Sessionless ops
(``ping``/``health``/...) go to the first shard; ``*_all`` helpers
broadcast.  The decisions are :class:`~repro.service.retry.CallPlan`'s,
run by the shells of :mod:`repro.service.client`: one backoff schedule
and one whole-call ``timeout=`` cover every hop.  This module supplies
the per-shard hooks -- one attempt, the replica probe, and recording
the new owner.

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
span covers the whole logical op, with one ``client.attempt`` child per
try; every hop carries the same ``tid`` (and its attempt's span id) in
the wire ``trace`` field, so the server-side spans of a redirected op
join into a single trace across shards (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.cluster.group import ShardSpec
from repro.cluster.placement import PlacementMap
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    _AsyncShell,
    _CallTrace,
    _Shell,
    _SyncShell,
)
from repro.service.protocol import ErrorCode, ServiceError
from repro.service.retry import CallPlan, RetryPolicy


class _ClusterBase(_Shell):
    """Shared routing state for the sync and async cluster clients."""

    _call_span = "cluster.call"

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
        #: Every known shard -> its copies, the failover probe order.
        self._copies = {
            name: sorted(n for n, s in self._specs.items() if s.of == name)
            for name in self._specs
        }
        self.timeout = timeout
        self.retry = retry
        self.auto_idem = auto_idem
        self.tracer = tracer
        self.registry = registry
        self.max_hops = max_hops
        self.redirects = 0
        self.retries = 0
        self._closed = False

    def _route(self, fields: dict[str, Any]) -> str:
        session = fields.get("session")
        if session is not None:
            return self.placement.owner(session)
        return self.placement.shards[0]

    def _learn(self, plan: CallPlan, trace: Optional[_CallTrace]) -> None:
        """A hop found the owner ``plan.shard``: record it."""
        if plan.session is not None:
            self.placement.assign(plan.session, plan.shard)
        self.redirects += 1
        reg = self.registry
        if reg is not None:
            reg.inc_all({"cluster.redirects": 1})
        if trace is not None:
            name = "cluster.redirect" if plan.hop == "redirect" else "cluster.failover"
            trace.event(name, {"session": plan.session, "to": plan.shard})

    def _spec(self, shard: str) -> ShardSpec:
        if self._closed:
            raise ServiceError(ErrorCode.INTERNAL, "client is closed")
        spec = self._specs.get(shard)
        if spec is None:
            raise ServiceError(
                ErrorCode.INTERNAL, f"unknown shard {shard!r} (stale manifest?)"
            )
        return spec


class ClusterClient(_ClusterBase, _SyncShell):
    """Blocking cluster client: one lazily-connected
    :class:`~repro.service.client.ServiceClient` per shard.

    Idempotency keys are stamped once per call, so the same key rides
    every retry and hop of one logical op.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        **kwargs: Any,
    ) -> None:
        super().__init__(shards, **kwargs)
        self._clients: dict[str, ServiceClient] = {}

    def _shard(self, shard: str) -> ServiceClient:
        """The shard's client, connected on first use (a refused connect
        raises ``OSError``: a lost connection to the plan)."""
        client = self._clients.get(shard)
        if client is None:
            spec = self._spec(shard)
            client = ServiceClient(
                spec.host,
                spec.port,
                timeout=self.timeout,
                retry=self.retry,
                auto_idem=False,
            )
            self._clients[shard] = client
        return client

    def shard_client(self, shard: str) -> ServiceClient:
        """The (lazily created) direct client for one shard."""
        try:
            return self._shard(shard)
        except OSError as e:
            raise ServiceError(
                ErrorCode.INTERNAL, f"shard {shard}: connection failed: {e}"
            ) from e

    def _attempt(
        self, shard: str, op: str, fields: dict[str, Any], budget: Optional[float]
    ) -> dict[str, Any]:
        reg = self.registry
        if reg is not None:
            reg.inc_all({"cluster.ops": 1})
        return self._shard(shard)._attempt(shard, op, fields, budget)

    def _is_primary(self, shard: str, budget: Optional[float]) -> bool:
        try:
            doc = self._shard(shard)._attempt(shard, "health", {}, budget)
        except (ServiceError, OSError, EOFError):
            return False
        return doc.get("role") == "primary"

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
        self._closed = True
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class AsyncClusterClient(_ClusterBase, _AsyncShell):
    """Pipelined asyncio cluster client: concurrent in-flight ops.

    Many tasks can share one ``AsyncClusterClient``.  Per shard it holds
    one pipelined :class:`~repro.service.client.AsyncServiceClient`
    (answers matched by wire id), so ops on different sessions -- and
    even on the same session -- overlap on the wire, and the server runs
    different sessions' ops concurrently.  Per-session *execution* order
    is the order requests reach the shard, which for one client is call
    order.  An attempt with no ``timeout=`` budget waits at most
    ``timeout`` seconds.
    """

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        **kwargs: Any,
    ) -> None:
        super().__init__(shards, **kwargs)
        self._pipes: dict[str, AsyncServiceClient] = {}

    def _shard(self, shard: str) -> AsyncServiceClient:
        """The shard's pipelined client; it connects on its first attempt."""
        pipe = self._pipes.get(shard)
        if pipe is None:
            spec = self._spec(shard)
            pipe = AsyncServiceClient(spec.host, spec.port, auto_idem=False)
            self._pipes[shard] = pipe
        return pipe

    async def _attempt(
        self, shard: str, op: str, fields: dict[str, Any], budget: Optional[float]
    ) -> dict[str, Any]:
        reg = self.registry
        if reg is not None:
            reg.inc_all({"cluster.ops": 1})
        return await self._shard(shard)._attempt(
            shard, op, fields, self.timeout if budget is None else budget
        )

    async def _is_primary(self, shard: str, budget: Optional[float]) -> bool:
        try:
            doc = await self._shard(shard)._attempt(
                shard, "health", {}, self.timeout if budget is None else budget
            )
        except (ServiceError, OSError, EOFError):
            return False
        return doc.get("role") == "primary"

    # -- broadcast helpers ----------------------------------------------

    async def health_all(self) -> dict[str, dict[str, Any]]:
        out: dict[str, dict[str, Any]] = {}
        for name in self.placement.shards:
            out[name] = await self._shard(name)._attempt(
                name, "health", {}, self.timeout
            )
        return out

    async def close(self) -> None:
        self._closed = True
        for pipe in list(self._pipes.values()):
            await pipe.close()
        self._pipes.clear()

    async def __aenter__(self) -> "AsyncClusterClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
