"""Primary-side replication: journal shipping, quorum acks, catch-up.

A primary shard owns the journal; replicas hold byte-identical copies
built from two ops of the wire protocol (docs/CLUSTER.md):

``repl_apply``    ships the encoded record lines of the batch that just
                  committed locally, verbatim -- CRC and all -- in one
                  frame, so the replica's segments are byte-identical
                  replays and it appends the batch with one write and
                  one fsync;
``repl_install``  seeds or catches up a replica from a full snapshot
                  (ledger totals + dedup sidecar + the primary LSN it
                  covers) when the stream has a gap the tail cannot
                  bridge: a fresh replica, a long partition, or a
                  restarted primary with no shipping state.

The :class:`Replicator` lives on the primary and is driven from inside
each session's worker turn (:meth:`SessionManager._turn` awaits
:meth:`ship` once the turn's batch of writes is journaled and applied
locally), so per-session ship order always equals journal order, and a
batch reaches quorum once for all of its records.  Each replica link is
one pipelined :class:`~repro.service.client.AsyncServiceClient`, made
once and closed only by :meth:`Replicator.close`: the ships of
different sessions are in flight on it at once, and after a lost
connection the next ship reconnects it.  Two ack modes:

* ``quorum`` -- :meth:`ship` resolves only once the batch is durable
  on a majority of the ``1 + N`` copies (the primary counts as one), so
  an acked write survives the primary's death.  A write that cannot
  reach quorum fails the op with ``retry_later``; the client's retry is
  deduplicated and re-ships until the quorum heals.
* ``async`` -- :meth:`ship` enqueues to per-replica writer tasks and
  returns immediately: client latency is untouched, and a dead primary
  may lose its last unshipped suffix (the reconciler's
  ``replica_truncate`` row squares the survivors, docs/RECOVERY.md).

The snapshot provider passed to :meth:`ship` is a *synchronous* closure
reading the live session -- safe exactly because the session worker is
blocked awaiting the ship, so nothing can interleave with the read.  It
must never be routed back through the session queue (deadlock).
"""

from __future__ import annotations

import asyncio
import logging
import time
from typing import Any, Callable, Optional

from repro import faults
from repro.faults import ConnectionDropped
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.client import AsyncServiceClient
from repro.service.protocol import ErrorCode, ServiceError

__all__ = ["ACK_MODES", "ReplicaLink", "Replicator", "parse_targets"]

log = logging.getLogger("repro.service.replica")

#: How client acks relate to replica durability (``--ack-mode``).
ACK_MODES = ("quorum", "async")

#: Seconds a failed link is left alone before the next attempt.
_BACKOFF = 0.5

#: Returns ``(snapshot_doc, config_doc)`` for the session being shipped;
#: the doc is an encoded session image carrying the LSN floor it covers
#: (see ``_op_repl_snapshot``).
SnapshotFn = Callable[[], tuple[dict[str, Any], dict[str, Any]]]


def parse_targets(spec: str) -> list[tuple[str, int]]:
    """Parse ``--replicate``'s ``host:port[,host:port...]`` list."""
    out: list[tuple[str, int]] = []
    for raw in spec.split(","):
        part = raw.strip()
        if not part:
            continue
        host, colon, port_s = part.rpartition(":")
        if not colon or not host:
            raise ValueError(f"replica target {part!r} is not host:port")
        try:
            port = int(port_s)
        except ValueError as e:
            raise ValueError(f"replica target {part!r} has a bad port") from e
        out.append((host, port))
    if not out:
        raise ValueError("empty replica target list")
    return out


class ReplicaLink:
    """One replica target plus the primary's view of its progress.

    ``shipped`` maps session id to the highest LSN known durable on this
    replica; it is advanced only on a confirmed reply, so an ambiguous
    failure (timeout mid-apply) is re-shipped and deduplicated by the
    replica's own LSN check.  ``behind`` marks sessions whose async
    writer hit a gap or error -- the next quorum-path ship catches them
    up inline, where the snapshot provider is safe to call.  ``client``
    reconnects by itself; a failed ship only backs the link off until
    ``down_until``.
    """

    __slots__ = (
        "host", "port", "timeout", "client", "shipped", "behind",
        "down_until", "queue", "writer",
    )

    def __init__(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client = AsyncServiceClient(host, port)
        self.shipped: dict[str, int] = {}
        self.behind: set[str] = set()
        self.down_until = 0.0
        self.queue: Optional[asyncio.Queue[tuple[str, int, list[str]]]] = None
        self.writer: Optional[asyncio.Task[None]] = None

    @property
    def name(self) -> str:
        return f"{self.host}:{self.port}"


class Replicator:
    """Ships every committed record to N replicas; one per primary."""

    def __init__(
        self,
        targets: list[tuple[str, int]],
        *,
        ack_mode: str = "quorum",
        timeout: float = 5.0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if ack_mode not in ACK_MODES:
            raise ValueError(f"ack_mode must be one of {ACK_MODES}")
        self.ack_mode = ack_mode
        self.timeout = timeout
        self.registry = registry
        self.tracer = tracer
        self.links = [ReplicaLink(h, p, timeout=timeout) for h, p in targets]
        #: Replica acks needed so primary + acks form a majority of the
        #: ``1 + N`` copies: N=1 -> 1, N=2 -> 1, N=3 -> 2.
        self.need = (len(self.links) + 1) // 2
        self.ships = 0
        self.installs = 0

    # -- the ship point (called from the session worker) -----------------

    async def ship(
        self, sid: str, lsn: int, lines: list[str], snapshot_fn: SnapshotFn
    ) -> None:
        """Make the records up to ``lsn`` durable per the ack mode;
        ``lines`` are the last batch's record lines, ending at ``lsn``.

        Raises ``retry_later`` when quorum mode cannot reach enough
        replicas -- the batch's ops fail and the clients' retries (dedup
        hits on this primary) re-ship until the quorum heals.
        """
        if not self.links or not lines:
            return
        self.ships += 1
        # One snapshot per ship, however many links need an install.
        memo: list[tuple[dict[str, Any], dict[str, Any]]] = []

        def snap_once() -> tuple[dict[str, Any], dict[str, Any]]:
            if not memo:
                memo.append(snapshot_fn())
            return memo[0]

        tracer = self.tracer
        span: Optional[int] = None
        if tracer is not None:
            span = tracer.open_span(
                "replica.ship",
                {"session": sid, "lsn": lsn, "records": len(lines),
                 "mode": self.ack_mode},
            )
        acks = 0
        try:
            if self.ack_mode == "quorum":
                results = await asyncio.gather(
                    *(
                        self._sync_link(link, sid, lsn, lines, snap_once)
                        for link in self.links
                    )
                )
                acks = sum(1 for ok in results if ok)
                self._update_lag(sid, lsn)
                if acks < self.need:
                    raise ServiceError(
                        ErrorCode.RETRY_LATER,
                        f"write at LSN {lsn} durable on {acks}/{self.need} "
                        "required replicas",
                        retry_after=_BACKOFF,
                    )
            else:
                for link in self.links:
                    if link.shipped.get(sid, 0) >= lsn:
                        acks += 1
                        continue
                    if sid in link.behind or sid not in link.shipped:
                        # Gap or fresh session: catch up inline -- this
                        # is the only context where snapshot_fn is safe.
                        if await self._sync_link(link, sid, lsn, lines, snap_once):
                            acks += 1
                    else:
                        self._writer_enqueue(link, sid, lsn, lines)
                self._update_lag(sid, lsn)
        except ServiceError as e:
            if tracer is not None and span is not None:
                tracer.close_span(
                    span, "replica.ship",
                    {"session": sid, "lsn": lsn, "acks": acks,
                     "outcome": e.code.value},
                )
            raise
        if tracer is not None and span is not None:
            tracer.close_span(
                span, "replica.ship",
                {"session": sid, "lsn": lsn, "acks": acks, "outcome": "ok"},
            )

    async def _sync_link(
        self,
        link: ReplicaLink,
        sid: str,
        lsn: int,
        lines: list[str],
        snapshot_fn: SnapshotFn,
    ) -> bool:
        """Bring one replica's copy of ``sid`` to ``lsn``; True if durable.

        Tries the cheap tail path first (ship just this batch); a gap
        reply or a missing session falls back to the snapshot install.
        Failures back the link off and return False -- ``shipped`` only
        advances on a confirmed reply, so ambiguous outcomes re-ship and
        the replica's own LSN check deduplicates.
        """
        if link.shipped.get(sid, 0) >= lsn:
            return True
        if time.monotonic() < link.down_until:
            return False
        try:
            plan = faults.ACTIVE
            if plan is not None:
                # Stream loss between primary and this replica (armed
                # with kind=drop; delay models a slow inter-node hop).
                plan.hit("replica.stream.drop")
            client = link.client
            if sid not in link.behind:
                try:
                    reply = await client.repl_apply(
                        sid, lines, timeout=self.timeout
                    )
                    if "need" not in reply:
                        link.shipped[sid] = int(reply["lsn"])
                        if link.shipped[sid] >= lsn:
                            return True
                except ServiceError as e:
                    if e.code is not ErrorCode.NO_SUCH_SESSION:
                        raise
            doc, config = snapshot_fn()
            reply = await client.repl_install(
                sid, doc, config=config, timeout=self.timeout
            )
            link.shipped[sid] = int(reply["lsn"])
            link.behind.discard(sid)
            self.installs += 1
            return link.shipped[sid] >= lsn
        except (ServiceError, ConnectionDropped, OSError, EOFError) as e:
            link.down_until = time.monotonic() + _BACKOFF
            log.warning(
                "replica %s: ship of %s@%d failed: %s", link.name, sid, lsn, e
            )
            return False

    # -- async ack mode ---------------------------------------------------

    def _writer_enqueue(
        self, link: ReplicaLink, sid: str, lsn: int, lines: list[str]
    ) -> None:
        if link.queue is None:
            link.queue = asyncio.Queue()
            link.writer = asyncio.get_running_loop().create_task(
                self._writer_loop(link)
            )
        link.queue.put_nowait((sid, lsn, lines))

    async def _writer_loop(self, link: ReplicaLink) -> None:
        """Drain one replica's queue in ship order, one ``repl_apply``
        frame per batch (async ack mode).

        A gap or failure only marks the session ``behind`` -- catch-up
        needs the snapshot provider, which is only safe to call from a
        session worker turn, so the next :meth:`ship` does it inline.
        """
        queue = link.queue
        assert queue is not None
        while True:
            sid, lsn, lines = await queue.get()
            if link.shipped.get(sid, 0) >= lsn or sid in link.behind:
                continue
            try:
                reply = await link.client.repl_apply(
                    sid, lines, timeout=self.timeout
                )
                if "need" in reply:
                    link.behind.add(sid)
                else:
                    link.shipped[sid] = int(reply["lsn"])
            except (ServiceError, ConnectionDropped, OSError, EOFError) as e:
                link.behind.add(sid)
                link.down_until = time.monotonic() + _BACKOFF
                log.warning(
                    "replica %s: async ship of %s@%d failed: %s",
                    link.name, sid, lsn, e,
                )

    # -- observability ----------------------------------------------------

    def _update_lag(self, sid: str, lsn: int) -> None:
        reg = self.registry
        if reg is None:
            return
        lag = max(
            (lsn - link.shipped.get(sid, 0)) for link in self.links
        )
        reg.gauge("cluster.replica.lag").set(float(max(lag, 0)))

    def status(self) -> dict[str, Any]:
        """Per-link progress view (JSON-serializable; ``repro cluster status``)."""
        now = time.monotonic()
        return {
            "ack_mode": self.ack_mode,
            "need": self.need,
            "ships": self.ships,
            "installs": self.installs,
            "links": [
                {
                    "target": link.name,
                    "sessions": len(link.shipped),
                    "behind": sorted(link.behind),
                    "down": now < link.down_until,
                }
                for link in self.links
            ],
        }

    async def close(self) -> None:
        for link in self.links:
            writer = link.writer
            if writer is not None:
                writer.cancel()
                try:
                    await writer
                except asyncio.CancelledError:
                    pass
                link.writer = None
            await link.client.close()
