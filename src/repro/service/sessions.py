"""Session manager: many concurrent scheduler instances, durably.

A *session* is one named scheduler (single-server or parallel) with its
own journal directory.  The manager hosts many sessions inside one
asyncio event loop and provides the guarantees the protocol promises:

* **Per-session serialization.**  Every operation on a session flows
  through that session's bounded queue and is executed by its worker
  task, so the journal order *is* the execution order -- the property
  recovery relies on.  Different sessions proceed concurrently.
* **LRU eviction + lazy rehydration.**  At most ``max_live`` sessions
  keep a scheduler in memory.  The least-recently-used one is
  checkpointed (snapshot with ledger + journal truncation) and dropped;
  the next operation on it recovers from disk transparently.  Eviction
  rides the victim's own queue, so it serializes with in-flight ops.
  Eviction, migration, replica install and the degraded heal all move
  the same :class:`~repro.service.image.SessionImage`, through one
  checkpoint-and-drop step and one install step.
* **Write-ahead ordering.**  Mutations are validated, journaled (per
  the fsync policy), then applied; an acknowledged op is exactly as
  durable as the policy promises.
* **Exactly-once retries.**  Mutating requests may carry a client
  idempotency key; a bounded per-session :class:`DedupWindow` maps keys
  to their original results, so a retry after an ambiguous failure
  (dropped connection, timeout) returns the first answer instead of
  double-applying.  Keys ride in the journal records and the snapshot
  sidecar, so the window survives eviction and crash recovery.
* **Graceful degradation.**  A journal I/O failure (real, or injected
  through the ``journal.*`` failpoints of :mod:`repro.faults`) flips
  the session into an explicit *degraded* read-only state instead of
  crashing: queries/stats keep serving from memory, mutations fail
  fast with ``DEGRADED``, and a background recovery sweep retries a
  journal reopen + checkpoint with exponential backoff.  Because the
  write-ahead discipline means every acknowledged op is already on
  disk, a degraded session can always be dropped to its journal.
* **Load shedding.**  A full queue (or an injected ``sessions.admit``
  fault) rejects immediately with ``RETRY_LATER`` plus an advisory
  ``retry_after`` delay instead of buffering unboundedly.

Layering (reprolint RL002): this package builds on ``repro.core``,
``repro.obs`` and ``repro.faults`` only -- never ``repro.sim`` or
``repro.workloads``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import time
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro import faults

from repro.core.costfn import STANDARD_FAMILY
from repro.core.parallel import ParallelScheduler
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service import tracing

from repro.service.image import (
    _CONFIG_FILE,
    _MOVED_FILE,
    DedupWindow,
    SchedulerT,
    SessionImage,
    apply_record,
    lsn_floor,
    moved_target,
)

# Re-exported: the benchmark suite imports these from this module.
from repro.service.image import (
    build_scheduler as build_scheduler,
    recover_scheduler as recover_scheduler,
    restore_snapshot as restore_snapshot,
    take_snapshot as take_snapshot,
)
from repro.service.journal import (
    Journal,
    JournalCorrupt,
    JournalRecord,
    _decode_record,
    write_json_durable,
)
from repro.service.protocol import (
    ErrorCode,
    Request,
    ServiceError,
    SessionConfig,
)
from repro.service.tracing import OpTrace

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a hard import)
    from repro.service.replica import Replicator

log = get_logger("service")

_SID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")

#: Replication-role markers at the *data-dir* root (docs/CLUSTER.md):
#: a replica serve writes ``replica.json`` naming its primary;
#: ``repl_promote`` durably supersedes it with ``promoted.json`` at the
#: new placement epoch; the failover driver writes ``fence.json`` into
#: a dead primary's data dir so a late respawn refuses stale writes.
_REPLICA_FILE = "replica.json"
_PROMOTED_FILE = "promoted.json"
_FENCE_FILE = "fence.json"

#: Client-facing mutating ops: the set replica mode and an epoch fence
#: refuse with MOVED.  Reads (``query``/``stats``) and the ``repl_*``
#: stream keep serving -- fencing guards *authority*, not visibility.
_FENCED_OPS = frozenset(
    {
        "open",
        "insert",
        "delete",
        "close",
        "migrate_out",
        "migrate_in",
        "migrate_seal",
    }
)

#: The per-session queue ops.  :meth:`SessionManager.admit` puts them on
#: their session's queue synchronously, in arrival order, so a client may
#: pipeline them; every other op runs through :meth:`SessionManager.
#: dispatch` and is a barrier on its connection (docs/SERVICE.md).
QUEUE_OPS = frozenset(
    {"insert", "delete", "query", "snapshot", "migrate_out", "repl_apply"}
)

#: Receives an op's outcome -- its result, or the :class:`ServiceError`
#: it failed with -- from the session worker once the op and its
#: replication ship are done.
Reply = Callable[[Union[dict[str, Any], ServiceError]], None]

_QueueItem = Optional[
    tuple[Callable[[], dict[str, Any]], Reply, Optional[OpTrace]]
]


def _resolver(fut: "asyncio.Future[dict[str, Any]]") -> Reply:
    """A :data:`Reply` that settles ``fut`` (the awaitable paths)."""

    def reply(outcome: Union[dict[str, Any], ServiceError]) -> None:
        if fut.done():  # the awaiting caller was cancelled
            return
        if isinstance(outcome, ServiceError):
            fut.set_exception(outcome)
        else:
            fut.set_result(outcome)

    return reply


def _discard(outcome: Union[dict[str, Any], ServiceError]) -> None:
    """The :data:`Reply` of background evictions: nobody awaits them,
    and a failed checkpoint already flipped the session degraded."""


class Session:
    """One named scheduler plus its durability + serialization state."""

    __slots__ = (
        "sid",
        "root",
        "config",
        "queue",
        "worker",
        "scheduler",
        "journal",
        "touched",
        "ops",
        "last_recovery",
        "degraded",
        "dedup",
        "sweeper",
        "migrating",
    )

    def __init__(
        self,
        sid: str,
        root: str,
        config: SessionConfig,
        queue: "asyncio.Queue[_QueueItem]",
        *,
        dedup_window: int = 1024,
    ) -> None:
        self.sid = sid
        self.root = root
        self.config = config
        self.queue = queue
        self.worker: Optional["asyncio.Task[None]"] = None
        self.scheduler: Optional[SchedulerT] = None
        self.journal: Optional[Journal] = None
        self.touched = 0
        self.ops = 0
        self.last_recovery: dict[str, Any] = {}
        #: Reason string while read-only (journal failure); None = healthy.
        self.degraded: Optional[str] = None
        self.dedup = DedupWindow(dedup_window)
        #: Background recovery-sweep task while degraded.
        self.sweeper: Optional["asyncio.Task[None]"] = None
        #: perf_counter() when migrate_out froze this session; ops answer
        #: RETRY_LATER until migrate_seal lands or the hold expires
        #: (driver died mid-handoff: the source resumes authority).
        self.migrating: Optional[float] = None

    @property
    def live(self) -> bool:
        return self.scheduler is not None


class SessionManager:
    """Hosts sessions under one data directory; see the module docstring."""

    def __init__(
        self,
        root: str,
        *,
        fsync: str = "interval",
        fsync_interval: int = 64,
        max_live: int = 64,
        queue_depth: int = 256,
        dedup_window: int = 1024,
        retry_after_hint: float = 0.05,
        recover_backoff: float = 0.05,
        recover_backoff_max: float = 2.0,
        migrate_hold: float = 5.0,
        replica_of: Optional[str] = None,
        epoch: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if dedup_window < 0:
            raise ValueError("dedup_window must be >= 0")
        if recover_backoff <= 0 or recover_backoff_max < recover_backoff:
            raise ValueError("recover backoff bounds must be positive and ordered")
        if migrate_hold <= 0:
            raise ValueError("migrate_hold must be positive")
        self.root = root
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.max_live = max_live
        self.queue_depth = queue_depth
        self.dedup_window = dedup_window
        #: Advisory client delay attached to RETRY_LATER responses.
        self.retry_after_hint = retry_after_hint
        self.recover_backoff = recover_backoff
        self.recover_backoff_max = recover_backoff_max
        #: Seconds a migrate_out freeze holds without a seal before the
        #: source resumes serving (abandoned-handoff recovery).
        self.migrate_hold = migrate_hold
        self.registry = registry
        self.tracer = tracer
        self.sessions: dict[str, Session] = {}
        self._clock = 0
        self._shutting_down = False
        self._t_start = time.perf_counter()
        os.makedirs(root, exist_ok=True)
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        self.epoch = epoch
        self.replica_of: Optional[str] = None
        #: Cached fence marker once seen; None until (unless) fenced.
        self._fence: Optional[dict[str, Any]] = None
        #: Journal-shipping driver (primary side); installed by
        #: :meth:`set_replicator` when serving with ``--replicate``.
        self.replicator: Optional["Replicator"] = None
        promoted = self._read_marker(_PROMOTED_FILE)
        if promoted is not None:
            # A durable promotion outlives the spawn args: this shard
            # was promoted out of replica mode and comes back a primary
            # even when respawned with its original --replica-of.
            p_epoch = promoted.get("epoch")
            if isinstance(p_epoch, int) and p_epoch > self.epoch:
                self.epoch = p_epoch
            self._remove_marker(_REPLICA_FILE)
        elif replica_of:
            self.replica_of = replica_of
            self._write_marker(_REPLICA_FILE, {"primary": replica_of})

    # -- discovery -------------------------------------------------------

    def session_ids_on_disk(self) -> list[str]:
        out = []
        for name in sorted(os.listdir(self.root)):
            sdir = os.path.join(self.root, name)
            if os.path.isfile(
                os.path.join(sdir, _CONFIG_FILE)
            ) and not os.path.isfile(os.path.join(sdir, _MOVED_FILE)):
                out.append(name)
        return out

    def live_count(self) -> int:
        return sum(1 for s in self.sessions.values() if s.live)

    # -- the protocol surface --------------------------------------------

    async def dispatch(
        self, req: Request, ot: Optional[OpTrace] = None
    ) -> dict[str, Any]:
        """Execute one validated request; raises :class:`ServiceError`.

        The awaitable form of the protocol surface: a per-session queue
        op goes through :meth:`admit` and this awaits the worker's
        reply; every other op runs here, to completion.
        """
        op = req.op
        if op in QUEUE_OPS:
            fut: "asyncio.Future[dict[str, Any]]" = (
                asyncio.get_running_loop().create_future()
            )
            self.admit(req, _resolver(fut), ot)
            return await fut
        if op in _FENCED_OPS:
            self._check_authority()
        if op == "ping":
            return {"pong": True}
        if op == "health":
            return self.health()
        if op == "stats":
            return self.stats(req.session)
        if op == "repl_status":
            return self.repl_status()
        if op == "repl_promote":
            assert req.epoch is not None
            return self.repl_promote(req.epoch)
        if op == "open":
            assert req.session is not None
            return await self.open(req.session, req.config, ot=ot)
        assert req.session is not None
        if op == "close":
            return await self.close(req.session, ot=ot)
        if op == "migrate_in" or op == "repl_install":
            assert req.snapshot is not None
            sess = self._attach(
                req.session, req.config, create=True, adopt=True
            )[0]
            snap = req.snapshot
            adopt = (
                self._op_migrate_in if op == "migrate_in" else self._op_repl_install
            )
            return await self._enqueue(sess, lambda: adopt(sess, snap), ot=ot)
        if op == "migrate_seal":
            assert req.target is not None
            return await self.migrate_seal(req.session, req.target, ot=ot)
        raise ServiceError(ErrorCode.UNKNOWN_OP, f"unhandled op {op!r}")

    def admit(
        self, req: Request, reply: Reply, ot: Optional[OpTrace] = None
    ) -> None:
        """Put one per-session queue op (:data:`QUEUE_OPS`) on its
        session's queue, synchronously and in arrival order.

        A refused op raises :class:`ServiceError` here and ``reply`` is
        never called; an admitted one gets exactly one ``reply`` from
        the session worker, with the result or the error, as soon as
        the op and its replication ship are done.
        """
        op = req.op
        if op in _FENCED_OPS:
            self._check_authority()
        assert req.session is not None
        fn: Callable[[], dict[str, Any]]
        if op == "repl_apply":
            records = req.records
            assert records is not None
            # No create: a fresh replica session must be seeded by
            # repl_install (which carries the primary's config), so the
            # NOT_FOUND here steers the primary onto the install path.
            sess = self._attach(req.session, req.config, create=False)[0]
            fn = lambda: self._op_repl_apply(sess, records)
        else:
            sess = self._attach(req.session, None, create=False)[0]
            if op == "insert" or op == "delete":
                assert req.name is not None
                name, size, idem = req.name, req.size, req.idem
                fn = lambda: self._op_write(sess, op, name, size, idem)
            elif op == "query":
                fn = lambda: self._op_query(sess, req.name, req.jobs)
            elif op == "snapshot":
                fn = lambda: self._op_snapshot(sess)
            elif op == "migrate_out":
                fn = lambda: self._op_migrate_out(sess)
            else:
                raise ServiceError(ErrorCode.UNKNOWN_OP, f"unhandled op {op!r}")
        self._put(sess, fn, reply, ot)

    async def open(
        self,
        sid: str,
        config_map: Optional[dict[str, Any]],
        *,
        ot: Optional[OpTrace] = None,
    ) -> dict[str, Any]:
        sess, created = self._attach(sid, config_map, create=True)
        info = await self._enqueue(sess, lambda: self._op_touch(sess), ot=ot)
        return {
            "created": created,
            "config": sess.config.to_dict(),
            **info,
        }

    async def close(
        self, sid: str, *, ot: Optional[OpTrace] = None
    ) -> dict[str, Any]:
        # Close is naturally idempotent: re-closing a session that is
        # already checkpointed to disk (e.g. a retry after a dropped
        # connection) is a no-op success, not NO_SUCH_SESSION.
        if sid not in self.sessions and sid in self.session_ids_on_disk():
            return {"closed": True, "noop": True}
        sess = self._attach(sid, None, create=False)[0]
        res = await self._retire(sess, lambda: self._op_evict(sess), ot)
        out: dict[str, Any] = {"closed": True}
        if "lsn" in res:
            out["checkpoint_lsn"] = res["lsn"]
        if res.get("degraded"):
            out["degraded"] = True
        return out

    async def migrate_seal(
        self, sid: str, target: str, *, ot: Optional[OpTrace] = None
    ) -> dict[str, Any]:
        """Tombstone a migrated-out session and drop it from this shard.

        Idempotent like ``close``: re-sealing an already-sealed session
        (a retry after a dropped connection) is a no-op success.
        """
        if sid not in self.sessions:
            sdir = os.path.join(self.root, sid)
            if os.path.isfile(os.path.join(sdir, _MOVED_FILE)):
                return {
                    "sealed": True,
                    "noop": True,
                    "target": moved_target(sdir),
                }
            if not os.path.isfile(os.path.join(sdir, _CONFIG_FILE)):
                raise ServiceError(
                    ErrorCode.NO_SUCH_SESSION, f"no session {sid!r}"
                )
            # On disk but not attached: no worker to serialize with.
            self._write_tombstone(sdir, target)
            return {"sealed": True, "target": target}
        sess = self.sessions[sid]
        return await self._retire(
            sess, lambda: self._op_migrate_seal(sess, target), ot
        )

    async def _retire(
        self,
        sess: Session,
        fn: Callable[[], dict[str, Any]],
        ot: Optional[OpTrace],
    ) -> dict[str, Any]:
        """Run ``fn`` as the session's last op, then stop and forget it."""
        res = await self._enqueue(sess, fn, ot=ot)
        await self._stop_session(sess)
        self.sessions.pop(sess.sid, None)
        return res

    def health(self) -> dict[str, Any]:
        """Cheap liveness probe: no queues touched, no sessions hydrated."""
        degraded = sum(
            1 for s in self.sessions.values() if s.degraded is not None
        )
        return {
            "ok": degraded == 0 and not self._shutting_down,
            "shutting_down": self._shutting_down,
            "sessions": len(self.sessions),
            "live": self.live_count(),
            "degraded": degraded,
            "uptime_s": round(time.perf_counter() - self._t_start, 3),
            "role": "replica" if self.replica_of is not None else "primary",
            "epoch": self.epoch,
        }

    # -- replication roles (docs/CLUSTER.md) -------------------------------

    def set_replicator(self, repl: "Replicator") -> None:
        """Install the journal-shipping driver (primary side).  Every
        acknowledged mutation is shipped -- and, under ``quorum`` ack
        mode, quorum-durable -- before its future resolves."""
        self.replicator = repl

    def _read_marker(self, name: str) -> Optional[dict[str, Any]]:
        try:
            with open(os.path.join(self.root, name), encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    def _write_marker(self, name: str, doc: dict[str, Any]) -> None:
        write_json_durable(os.path.join(self.root, name), doc)

    def _remove_marker(self, name: str) -> None:
        try:
            os.unlink(os.path.join(self.root, name))
        except OSError:
            pass

    def _check_authority(self) -> None:
        """Refuse a client-facing mutation (:data:`_FENCED_OPS`) unless
        this shard is the authority: MOVED toward the primary on a
        replica, and toward the winner once a newer epoch has fenced
        this shard.

        The failover driver writes ``fence.json`` (promotion winner +
        new epoch) into a dead primary's data dir before promoting;
        should that primary come back -- respawn, or it was never really
        dead -- every write from its stale epoch answers MOVED toward
        the promoted shard instead of diverging the session.
        """
        if self.replica_of is not None:
            raise ServiceError(
                ErrorCode.MOVED,
                f"shard is a replica of {self.replica_of!r}; "
                f"write to the primary",
                moved=self.replica_of,
            )
        fence = self._fence
        if fence is None:
            fence = self._read_marker(_FENCE_FILE)
            if fence is None:
                return
            self._fence = fence
        f_epoch = fence.get("epoch")
        if not isinstance(f_epoch, int) or f_epoch <= self.epoch:
            return
        target = fence.get("promoted")
        reg = self.registry
        if reg is not None:
            reg.inc_all({"cluster.replica.fence_refusals": 1})
        raise ServiceError(
            ErrorCode.MOVED,
            f"shard fenced at epoch {f_epoch} (serving epoch "
            f"{self.epoch}); authority moved",
            moved=target if isinstance(target, str) else "unknown",
        )

    def repl_status(self) -> dict[str, Any]:
        """Per-session durable LSNs: what the failover driver compares
        across replicas to pick the promotion winner."""
        sessions: dict[str, int] = {}
        for sid in self.session_ids_on_disk():
            sess = self.sessions.get(sid)
            journal = sess.journal if sess is not None else None
            if journal is not None:
                sessions[sid] = journal.last_lsn
            else:
                try:
                    scan = Journal(os.path.join(self.root, sid), fsync="never")
                    sessions[sid] = scan.last_lsn
                    scan.close()
                except (JournalCorrupt, OSError):
                    sessions[sid] = 0
        return {
            "replica_of": self.replica_of,
            "epoch": self.epoch,
            "fenced": self._read_marker(_FENCE_FILE) is not None,
            "sessions": sessions,
            "total": sum(sessions.values()),
        }

    def repl_promote(self, epoch: int) -> dict[str, Any]:
        """Durably exit replica mode at ``epoch`` (failover promotion).

        Idempotent: re-promoting an already-primary serve at (or below)
        its current epoch is a no-op success.  A fence from an earlier
        epoch is cleared -- a shard fenced at epoch 3 can be promoted
        again at epoch 4.
        """
        if self.replica_of is None and epoch <= self.epoch:
            return {"promoted": True, "epoch": self.epoch, "noop": True}
        self._write_marker(_PROMOTED_FILE, {"epoch": epoch})
        self._remove_marker(_REPLICA_FILE)
        fence = self._read_marker(_FENCE_FILE)
        if fence is not None:
            f_epoch = fence.get("epoch")
            if not isinstance(f_epoch, int) or f_epoch <= epoch:
                self._remove_marker(_FENCE_FILE)
                self._fence = None
        self.replica_of = None
        self.epoch = max(self.epoch, epoch)
        log.info("promoted to primary at epoch %d", self.epoch)
        return {"promoted": True, "epoch": self.epoch}

    def stats(self, sid: Optional[str] = None) -> dict[str, Any]:
        if sid is not None:
            sess = self.sessions.get(sid)
            if sess is None:
                if sid in self.session_ids_on_disk():
                    return {"session": sid, "open": False, "on_disk": True}
                raise ServiceError(
                    ErrorCode.NO_SUCH_SESSION, f"no session {sid!r}"
                )
            out: dict[str, Any] = {
                "session": sid,
                "open": True,
                "live": sess.live,
                "ops": sess.ops,
                "config": sess.config.to_dict(),
                "queue_depth": sess.queue.qsize(),
                "dedup": len(sess.dedup),
            }
            if sess.degraded is not None:
                out["degraded"] = sess.degraded
            if sess.migrating is not None:
                out["migrating"] = True
            sched = sess.scheduler
            if sched is not None:
                out["active"] = len(sched)
                out["objective"] = sched.sum_completion_times()
                out["ledger"] = sched.ledger.summary()
                out["competitiveness"] = {
                    label: sched.ledger.competitiveness(f)
                    for label, f in STANDARD_FAMILY.items()
                }
            if sess.journal is not None:
                out["journal"] = sess.journal.stats()
            return out
        totals: dict[str, Any] = {
            "sessions": {
                "open": len(self.sessions),
                "live": self.live_count(),
                "on_disk": len(self.session_ids_on_disk()),
                "degraded": sum(
                    1 for s in self.sessions.values() if s.degraded is not None
                ),
            },
            "ops": sum(s.ops for s in self.sessions.values()),
            "max_live": self.max_live,
            "queue_depth": self.queue_depth,
            "dedup_window": self.dedup_window,
            "fsync": self.fsync,
            "uptime_s": round(time.perf_counter() - self._t_start, 3),
            "per_session": [
                {
                    "session": s.sid,
                    "live": s.live,
                    "ops": s.ops,
                    "queue": s.queue.qsize(),
                    "dedup": len(s.dedup),
                    "degraded": s.degraded is not None,
                    "active": (
                        len(s.scheduler) if s.scheduler is not None else None
                    ),
                    "journal": (
                        s.journal.stats() if s.journal is not None else None
                    ),
                }
                for s in sorted(self.sessions.values(), key=lambda s: s.sid)
            ],
        }
        reg = self.registry
        if reg is not None:
            totals["counters"] = {
                name: reg.value(name)
                for name in (
                    "service.op.count",
                    "service.shed",
                    "service.dedup.hits",
                    "service.degraded.entered",
                    "service.evictions",
                    "service.journal.appends",
                    "service.journal.checkpoints",
                )
            }
            latency = reg.series_summaries("service.op.", scale=1000.0)
            if latency:
                totals["latency_ms"] = latency
        plan = faults.ACTIVE
        if plan is not None:
            totals["faults"] = plan.stats()
        return totals

    async def shutdown(self) -> dict[str, int]:
        """Checkpoint and stop every session (graceful shutdown)."""
        self._shutting_down = True
        checkpointed = 0
        for sess in list(self.sessions.values()):
            try:
                res = await self._enqueue(
                    sess, lambda s=sess: self._op_evict(s), force=True
                )
                if "lsn" in res:
                    checkpointed += 1
            except ServiceError as e:  # keep shutting down regardless
                log.warning("shutdown: session %s: %s", sess.sid, e.message)
            await self._stop_session(sess)
        self.sessions.clear()
        repl = self.replicator
        if repl is not None:
            await repl.close()
        return {"checkpointed": checkpointed}

    # -- attach / queue plumbing -----------------------------------------

    def _attach(
        self,
        sid: str,
        config_map: Optional[dict[str, Any]],
        *,
        create: bool,
        adopt: bool = False,
    ) -> tuple[Session, bool]:
        if self._shutting_down:
            raise ServiceError(ErrorCode.SHUTTING_DOWN, "server is shutting down")
        if not _SID_RE.match(sid):
            raise ServiceError(ErrorCode.BAD_REQUEST, f"invalid session id {sid!r}")
        sess = self.sessions.get(sid)
        if sess is not None:
            self._check_config(sess.config, config_map)
            return sess, False
        sdir = os.path.join(self.root, sid)
        cfg_path = os.path.join(sdir, _CONFIG_FILE)
        moved_path = os.path.join(sdir, _MOVED_FILE)
        if os.path.isfile(moved_path):
            if adopt:
                # The session is migrating back in; the incoming snapshot
                # supersedes whatever this tombstoned directory holds.
                os.unlink(moved_path)
            else:
                target = moved_target(sdir)
                raise ServiceError(
                    ErrorCode.MOVED,
                    f"session {sid!r} moved to shard {target!r}",
                    moved=target,
                )
        created = False
        if os.path.isfile(cfg_path):
            with open(cfg_path, encoding="utf-8") as fh:
                stored = json.load(fh)
            cfg = SessionConfig.from_mapping(stored)
            self._check_config(cfg, config_map)
        else:
            if not create:
                raise ServiceError(
                    ErrorCode.NO_SUCH_SESSION,
                    f"no session {sid!r}; open it first",
                )
            cfg = SessionConfig.from_mapping(config_map or {})
            os.makedirs(sdir, exist_ok=True)
            write_json_durable(cfg_path, cfg.to_dict())
            created = True
        queue: "asyncio.Queue[_QueueItem]" = asyncio.Queue(maxsize=self.queue_depth)
        sess = Session(
            sid=sid,
            root=sdir,
            config=cfg,
            queue=queue,
            dedup_window=self.dedup_window,
        )
        sess.worker = asyncio.get_running_loop().create_task(self._worker(sess))
        self.sessions[sid] = sess
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.sessions.opened": 1})
        return sess, created

    @staticmethod
    def _check_config(
        existing: SessionConfig, config_map: Optional[dict[str, Any]]
    ) -> None:
        if config_map:
            provided = SessionConfig.from_mapping(config_map)
            if provided != existing:
                raise ServiceError(
                    ErrorCode.SESSION_EXISTS,
                    f"session exists with different config "
                    f"{existing.to_dict()}",
                )

    async def _enqueue(
        self,
        sess: Session,
        fn: Callable[[], dict[str, Any]],
        *,
        force: bool = False,
        ot: Optional[OpTrace] = None,
    ) -> dict[str, Any]:
        """Run ``fn`` on the session's queue and await its outcome.

        ``force`` (shutdown, the recovery sweep) waits for queue room
        instead of shedding and bypasses the shutdown gate.
        """
        fut: "asyncio.Future[dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        if force:
            if ot is not None:
                ot.enqueued()
            await sess.queue.put((fn, _resolver(fut), ot))
        else:
            self._put(sess, fn, _resolver(fut), ot)
        return await fut

    def _put(
        self,
        sess: Session,
        fn: Callable[[], dict[str, Any]],
        reply: Reply,
        ot: Optional[OpTrace],
    ) -> None:
        """Admission: queue ``fn`` for the session worker without
        waiting, or refuse (shutting down, injected ``sessions.admit``
        fault, full queue -> RETRY_LATER with the advisory delay)."""
        if self._shutting_down:
            raise ServiceError(ErrorCode.SHUTTING_DOWN, "server is shutting down")
        plan = faults.ACTIVE
        if plan is not None:
            try:
                plan.hit("sessions.admit")
            except OSError as e:
                self._shed(sess, ot)
                raise ServiceError(
                    ErrorCode.RETRY_LATER,
                    f"admission refused for session {sess.sid!r}: {e}",
                    retry_after=self.retry_after_hint,
                ) from e
        if ot is not None:
            ot.enqueued()
        try:
            sess.queue.put_nowait((fn, reply, ot))
        except asyncio.QueueFull:
            self._shed(sess, ot)
            raise ServiceError(
                ErrorCode.RETRY_LATER,
                f"session {sess.sid!r} queue is full "
                f"({self.queue_depth} pending ops); retry later",
                retry_after=self.retry_after_hint,
            ) from None

    def _shed(self, sess: Session, ot: Optional[OpTrace] = None) -> None:
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.shed": 1})
        if ot is not None:
            ot.event(
                "shed", {"session": sess.sid, "queue_depth": self.queue_depth}
            )

    async def _worker(self, sess: Session) -> None:
        queue = sess.queue
        while True:
            item = await queue.get()
            try:
                if item is None:
                    return
                fn, reply, ot = item
                self._clock += 1
                sess.touched = self._clock
                if ot is not None:
                    ot.dequeued()
                tracing.CURRENT = ot
                outcome: Union[dict[str, Any], ServiceError]
                try:
                    outcome = fn()
                except ServiceError as e:
                    outcome = e
                except Exception as e:  # internal bug: report, keep serving
                    log.exception("session %s: internal error", sess.sid)
                    outcome = ServiceError(
                        ErrorCode.INTERNAL, f"{type(e).__name__}: {e}"
                    )
                else:
                    # Replication ship point: the op is applied and
                    # journaled locally; under quorum ack mode it must
                    # not be answered until the record is quorum-durable.
                    # The worker awaits its own ship, so per-session
                    # ship order equals journal order while other
                    # sessions' ships share the replica link.
                    repl = self.replicator
                    journal = sess.journal
                    if (
                        repl is not None
                        and self.replica_of is None
                        and journal is not None
                        and journal.last_lsn > 0
                    ):
                        try:
                            await repl.ship(
                                sess.sid,
                                journal.last_lsn,
                                journal.last_line,
                                lambda: self._op_repl_snapshot(sess),
                            )
                        except ServiceError as e:
                            outcome = e
                        except Exception as e:  # a ship bug must not
                            # wedge the session worker: fail this op,
                            # keep the queue draining.
                            log.exception(
                                "session %s: replication ship failed",
                                sess.sid,
                            )
                            outcome = ServiceError(
                                ErrorCode.INTERNAL,
                                f"replication: {type(e).__name__}: {e}",
                            )
                finally:
                    tracing.CURRENT = None
                if ot is not None:
                    ot.executed()
                try:
                    reply(outcome)
                except Exception:  # an answer path must not kill the worker
                    log.exception("session %s: reply failed", sess.sid)
            finally:
                queue.task_done()

    async def _stop_session(self, sess: Session) -> None:
        sweeper = sess.sweeper
        if sweeper is not None:
            sweeper.cancel()
            try:
                await sweeper
            except asyncio.CancelledError:
                pass
            sess.sweeper = None
        await sess.queue.put(None)
        if sess.worker is not None:
            await sess.worker
            sess.worker = None

    # -- operations (run inside the session worker) ----------------------

    def _check_migrating(self, sess: Session) -> None:
        """Gate ops on a session frozen by ``migrate_out``.

        Within ``migrate_hold`` seconds of the freeze the session is in
        handoff: every op (reads included -- the target may already be
        authoritative) answers RETRY_LATER.  Past the hold the driver is
        presumed dead without having sealed, so the source resumes
        serving from its own journal -- nothing was lost, the target's
        unsealed copy is simply abandoned.
        """
        started = sess.migrating
        if started is None:
            return
        if time.perf_counter() - started > self.migrate_hold:
            sess.migrating = None
            log.warning(
                "session %s: migration hold expired without a seal; "
                "resuming local authority",
                sess.sid,
            )
            return
        raise ServiceError(
            ErrorCode.RETRY_LATER,
            f"session {sess.sid!r} is migrating; retry shortly",
            retry_after=self.retry_after_hint,
        )

    def _hydrated(self, sess: Session) -> SchedulerT:
        self._check_migrating(sess)
        sched = sess.scheduler
        if sched is not None:
            return sched
        plan = faults.ACTIVE
        if plan is not None:
            try:
                plan.hit("sessions.rehydrate")
            except OSError as e:
                raise ServiceError(
                    ErrorCode.RETRY_LATER,
                    f"session {sess.sid!r} rehydration failed: {e}",
                    retry_after=self.retry_after_hint,
                ) from e
        try:
            sched, journal, info = recover_scheduler(
                sess.root,
                sess.config,
                fsync=self.fsync,
                fsync_interval=self.fsync_interval,
                registry=self.registry,
                tracer=self.tracer,
            )
        except JournalCorrupt as e:
            raise ServiceError(ErrorCode.JOURNAL_CORRUPT, str(e)) from e
        except OSError as e:
            # Transient I/O during recovery (including an injected
            # journal.recover.io fault): nothing was mutated, retry.
            raise ServiceError(
                ErrorCode.RETRY_LATER,
                f"session {sess.sid!r} recovery failed: {e}",
                retry_after=self.retry_after_hint,
            ) from e
        sess.dedup.load(info.pop("_dedup_entries", []))
        sess.scheduler, sess.journal, sess.last_recovery = sched, journal, info
        sess.degraded = None
        if info["replayed"] or info["from_snapshot"]:
            log.info(
                "session %s: recovered (%d replayed, snapshot=%s, %d dedup keys)",
                sess.sid, info["replayed"], info["from_snapshot"], len(sess.dedup),
            )
        self._maybe_evict(exclude=sess.sid)
        return sched

    @staticmethod
    def _close_journal(sess: Session) -> None:
        """Forget the session's journal handle, closing it best-effort."""
        journal, sess.journal = sess.journal, None
        if journal is not None:
            try:
                journal.close()
            except OSError:
                pass

    def _journal(self, sess: Session) -> Journal:
        journal = sess.journal
        assert journal is not None, "journal exists whenever scheduler is live"
        return journal

    def _maybe_evict(self, exclude: str) -> None:
        candidates = [
            s
            for s in self.sessions.values()
            # Degraded sessions stay resident: their reads keep serving
            # from memory and the recovery sweep needs the scheduler.
            if s.live and s.sid != exclude and s.degraded is None
        ]
        excess = len(candidates) + 1 - self.max_live
        if excess <= 0:
            return
        candidates.sort(key=lambda s: s.touched)
        for victim in candidates[:excess]:
            try:
                victim.queue.put_nowait(
                    (lambda v=victim: self._op_evict(v), _discard, None)
                )
            except asyncio.QueueFull:
                continue  # busy session: not LRU for long; retry later

    def _count_op(self, sess: Session, kind: str) -> None:
        sess.ops += 1
        reg = self.registry
        if reg is not None:
            reg.inc_all(
                {
                    "service.op.count": 1,
                    f"service.op.{kind}": 1,
                    f"service.session.{sess.sid}.ops": 1,
                }
            )

    def _op_touch(self, sess: Session) -> dict[str, Any]:
        sched = self._hydrated(sess)
        return {"active": len(sched), "recovery": dict(sess.last_recovery)}

    def _dedup_lookup(self, sess: Session, idem: Optional[str]) -> Optional[dict[str, Any]]:
        """Return the cached result for a retried mutation, if any.

        Checked *before* validation and the degraded gate: a retry of an
        op that was applied just before the journal failed must still
        get its original answer, and must not trip DUPLICATE_JOB.
        """
        if idem is None:
            return None
        cached = sess.dedup.get(idem)
        if cached is None:
            return None
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.dedup.hits": 1})
        ot = tracing.CURRENT
        if ot is not None:
            ot.event("dedup.hit", {"session": sess.sid, "idem": idem})
        return dict(cached)

    def _dedup_store(
        self, sess: Session, idem: Optional[str], result: dict[str, Any]
    ) -> None:
        if idem is None:
            return
        evicted = sess.dedup.put(idem, dict(result))
        if evicted:
            reg = self.registry
            if reg is not None:
                reg.inc_all({"service.dedup.evictions": evicted})

    def _op_write(
        self,
        sess: Session,
        op: str,
        name: str,
        size: Optional[int],
        idem: Optional[str],
    ) -> dict[str, Any]:
        """Live ``insert``/``delete``: validate, then :meth:`_commit`."""
        sched = self._hydrated(sess)
        cached = self._dedup_lookup(sess, idem)
        if cached is not None:
            return cached
        if sess.degraded is not None:
            raise self._degraded_error(sess)
        if op == "insert":
            if name in sched:
                raise ServiceError(
                    ErrorCode.DUPLICATE_JOB, f"job {name!r} already active"
                )
        elif name not in sched:
            raise ServiceError(ErrorCode.NO_SUCH_JOB, f"job {name!r} not active")
        else:
            size = sched.placement(name).size
        assert size is not None
        rec = self._journal(sess).next_record(op, name, size, idem)
        result = self._commit(sess, sched, rec)
        self._count_op(sess, op)
        return result

    def _commit(
        self, sess: Session, sched: SchedulerT, rec: JournalRecord
    ) -> dict[str, Any]:
        """Journal ``rec``, then apply it (write-ahead); a keyed answer
        enters the dedup window.  Live writes and ``repl_apply`` share it.
        """
        try:
            self._journal(sess).append_record(rec)
        except OSError as e:
            raise self._degrade(sess, e) from e
        result = apply_record(sched, rec)
        self._dedup_store(sess, rec.idem, result)
        return result

    def _op_query(
        self, sess: Session, name: Optional[str], include_jobs: bool
    ) -> dict[str, Any]:
        sched = self._hydrated(sess)
        self._count_op(sess, "query")
        out: dict[str, Any] = {
            "active": len(sched),
            "objective": sched.sum_completion_times(),
            "volume": sched.total_volume(),
        }
        if isinstance(sched, ParallelScheduler):
            out["makespan"] = max(
                (child.makespan() for child in sched.servers), default=0
            )
        else:
            out["makespan"] = sched.makespan()
        if name is not None:
            try:
                pj = sched.placement(name)
            except KeyError:
                raise ServiceError(
                    ErrorCode.NO_SUCH_JOB, f"job {name!r} not active"
                ) from None
            out["job"] = {
                "name": name,
                "size": pj.size,
                "klass": pj.klass,
                "start": pj.start,
                "server": pj.server,
            }
        if include_jobs:
            out["jobs"] = sorted(
                [
                    [str(pj.name), pj.size, pj.klass, pj.start, pj.server]
                    for pj in sched.jobs()
                ],
                key=lambda row: (row[4], row[3], row[0]),
            )
        return out

    def _op_snapshot(self, sess: Session) -> dict[str, Any]:
        sched = self._hydrated(sess)
        if sess.degraded is not None:
            # An explicit snapshot request is a natural recovery point:
            # try to heal right now instead of waiting for the sweep.
            restored = self._op_restore(sess)
            self._count_op(sess, "snapshot")
            return {
                "lsn": restored.get("lsn", 0),
                "active": len(sched),
                "recovered": True,
            }
        doc = SessionImage(sched, sess.dedup.entries()).encode()
        try:
            lsn = self._journal(sess).checkpoint(doc)
        except OSError as e:
            raise self._degrade(sess, e) from e
        self._count_op(sess, "snapshot")
        return {"lsn": lsn, "active": len(sched)}

    def _op_evict(self, sess: Session) -> dict[str, Any]:
        sched = sess.scheduler
        if sched is None:
            return {"evicted": False}
        plan = faults.ACTIVE
        if plan is not None:
            try:
                plan.hit("sessions.evict")
            except OSError as e:
                raise self._degrade(sess, e) from e
        if sess.degraded is not None:
            # Read-only: no checkpoint is possible, but the write-ahead
            # discipline means every acknowledged op is already in the
            # on-disk journal, so dropping the in-memory scheduler loses
            # nothing -- the next touch replays it.
            sess.scheduler = None
            sess.journal = None
            res: dict[str, Any] = {"evicted": True, "degraded": True}
        else:
            res = {"evicted": True, "lsn": self._checkpoint_drop(sess, sched)[0]}
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.evictions": 1})
        return res

    def _checkpoint_drop(
        self, sess: Session, sched: SchedulerT
    ) -> tuple[int, dict[str, Any]]:
        """Checkpoint the session's image, close its journal and drop it
        from memory (eviction and ``migrate_out``); returns the covered
        LSN and the image doc."""
        doc = SessionImage(sched, sess.dedup.entries()).encode()
        journal = self._journal(sess)
        try:
            lsn = journal.checkpoint(doc)
            journal.close()
        except OSError as e:
            raise self._degrade(sess, e) from e
        sess.scheduler = None
        sess.journal = None
        return lsn, doc

    def _install(self, sess: Session, image: SessionImage) -> int:
        """Make ``image`` the session's state as the first checkpoint of
        a fresh journal handle (``migrate_in``, ``repl_install``, the
        degraded heal); returns the covered LSN.  An image with an LSN
        floor replaces the on-disk journal and continues the primary's
        numbering; without one the local numbering continues.  A disk
        failure raises ``OSError``; the caller decides what it means.
        """
        self._close_journal(sess)
        if image.sched is not sess.scheduler:
            # Until the checkpoint lands, neither the old scheduler nor
            # the incoming one is the session's state.
            sess.scheduler = None
            sess.dedup.load(image.dedup)
        if image.lsn is not None:
            Journal.discard(sess.root)
        journal = Journal(
            sess.root,
            fsync=self.fsync,
            fsync_interval=self.fsync_interval,
            registry=self.registry,
        )
        journal.advance_to(image.lsn or 0)
        lsn = journal.checkpoint(
            SessionImage(image.sched, sess.dedup.entries()).encode()
        )
        sess.scheduler = image.sched
        sess.journal = journal
        sess.degraded = None
        sess.migrating = None
        return lsn

    @staticmethod
    def _decode_image(snap: dict[str, Any]) -> SessionImage:
        """An incoming transfer payload; a malformed one is BAD_REQUEST."""
        try:
            return SessionImage.decode(snap)
        except (ServiceError, KeyError, TypeError, ValueError) as e:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, f"snapshot rejected: {e}"
            ) from e

    # -- live migration (docs/CLUSTER.md) ---------------------------------

    def _op_migrate_out(self, sess: Session) -> dict[str, Any]:
        """Freeze the session and hand its image to the caller.

        Rides the eviction step: checkpoint the image (scheduler
        snapshot *with* ledger totals plus the dedup window), close the
        journal, drop the scheduler.  The returned snapshot is exactly
        what ``migrate_in`` installs on the target, so reallocation
        accounting and in-flight idempotent retries survive the move.
        The session then answers RETRY_LATER until sealed (or the hold
        expires -- the handoff failed and this shard resumes authority).
        """
        sess.migrating = None  # a retried migrate_out refreshes the freeze
        sched = self._hydrated(sess)
        if sess.degraded is not None:
            # No durable checkpoint is possible; refuse the handoff
            # rather than ship state we cannot prove is on disk.
            raise self._degraded_error(sess)
        active = len(sched)
        volume = sched.total_volume()
        lsn, doc = self._checkpoint_drop(sess, sched)
        sess.migrating = time.perf_counter()
        self._count_op(sess, "migrate_out")
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.migrate.out": 1})
        return {
            "snapshot": doc,
            "config": sess.config.to_dict(),
            "lsn": lsn,
            "active": active,
            "volume": volume,
        }

    def _op_migrate_in(self, sess: Session, snap: dict[str, Any]) -> dict[str, Any]:
        """Adopt a migrated session: install its image.

        The image replaces any local state (a stale pre-migration copy,
        or nothing) and keeps this shard's LSN numbering.  Idempotent:
        re-adopting the same snapshot converges to the same state.
        """
        image = self._decode_image(snap)
        try:
            lsn = self._install(sess, image)
        except OSError as e:
            raise self._degrade(sess, e) from e
        self._count_op(sess, "migrate_in")
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.migrate.in": 1})
        self._maybe_evict(exclude=sess.sid)
        return {"adopted": True, "lsn": lsn, "active": len(image.sched)}

    def _op_migrate_seal(self, sess: Session, target: str) -> dict[str, Any]:
        self._close_journal(sess)
        sess.scheduler = None
        sess.migrating = None
        self._write_tombstone(sess.root, target)
        self._count_op(sess, "migrate_seal")
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.migrate.sealed": 1})
        return {"sealed": True, "target": target}

    def _write_tombstone(self, sdir: str, target: str) -> None:
        try:
            write_json_durable(os.path.join(sdir, _MOVED_FILE), {"target": target})
        except OSError as e:
            # Without a durable tombstone the seal did not happen; the
            # driver retries (both copies exist, the placement map still
            # routes to the target, so this is safe).
            raise ServiceError(
                ErrorCode.RETRY_LATER,
                f"could not seal migration: {e}",
                retry_after=self.retry_after_hint,
            ) from e

    # -- replication stream (run inside the session worker) ----------------

    def _op_repl_snapshot(self, sess: Session) -> tuple[dict[str, Any], dict[str, Any]]:
        """Catch-up payload for a lagging or fresh replica: the live
        image with the LSN it covers, and the session config.

        Called by the replicator from inside this session's worker turn
        -- the worker is blocked awaiting the ship, so nothing can
        interleave with the read.
        """
        sched = sess.scheduler
        assert sched is not None, "ship runs only after a hydrated op"
        lsn = self._journal(sess).last_lsn
        doc = SessionImage(sched, sess.dedup.entries(), lsn).encode()
        return doc, sess.config.to_dict()

    def _op_repl_apply(self, sess: Session, lines: list[str]) -> dict[str, Any]:
        """Apply shipped journal records verbatim (the replica half of
        the replication stream).

        Records at or below the local durable LSN are duplicates of an
        earlier ship and are skipped; a record past ``last_lsn + 1``
        means this replica missed part of the stream, so the reply
        carries ``need`` and the primary falls back to the snapshot
        install path.  Each adopted record is appended byte-identically
        (CRC and all) *before* it is applied -- the same write-ahead
        :meth:`_commit` as the primary's own writes -- so a promoted
        replica answers retried ops exactly like the dead primary would
        have.
        """
        sched = self._hydrated(sess)
        if sess.degraded is not None:
            raise self._degraded_error(sess)
        plan = faults.ACTIVE
        if plan is not None:
            # Crash the replica at the worst moment: the batch is about
            # to land, nothing applied yet (armed with kind=exit).
            plan.hit("replica.apply.exit")
        journal = self._journal(sess)
        applied = 0
        for line in lines:
            rec = _decode_record(line)
            if rec is None:
                raise ServiceError(
                    ErrorCode.BAD_REQUEST, "undecodable replication record"
                )
            if rec.lsn <= journal.last_lsn:
                continue
            if rec.lsn != journal.last_lsn + 1:
                return {
                    "applied": applied,
                    "lsn": journal.last_lsn,
                    "need": journal.last_lsn + 1,
                }
            try:
                self._commit(sess, sched, rec)
            except KeyError:
                log.warning("repl_apply: op at LSN %d does not apply", rec.lsn)
            except JournalCorrupt as e:
                raise ServiceError(
                    ErrorCode.BAD_REQUEST,
                    f"unknown replicated op {rec.op!r} at LSN {rec.lsn}",
                ) from e
            applied += 1
        self._count_op(sess, "repl_apply")
        reg = self.registry
        if reg is not None and applied:
            reg.inc_all({"service.repl.applies": applied})
        if plan is not None:
            # Ack-side fault: stall (or drop) the durability ack the
            # primary's quorum gate is waiting on.
            plan.hit("replica.ack.delay")
        return {"applied": applied, "lsn": journal.last_lsn}

    def _op_repl_install(self, sess: Session, snap: dict[str, Any]) -> dict[str, Any]:
        """Seed or catch up this replica from the primary's image: the
        local journal is replaced and adopts the primary's LSN floor (0
        when the payload has none), so shipped records extend it verbatim."""
        floor = lsn_floor(snap)
        image = self._decode_image(snap)
        image.lsn = floor
        try:
            lsn = self._install(sess, image)
        except OSError as e:
            raise self._degrade(sess, e) from e
        self._count_op(sess, "repl_install")
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.repl.installs": 1})
        self._maybe_evict(exclude=sess.sid)
        return {"installed": True, "lsn": lsn, "active": len(image.sched)}

    # -- degraded mode -----------------------------------------------------

    def _degraded_error(self, sess: Session) -> ServiceError:
        ot = tracing.CURRENT
        if ot is not None:
            ot.event(
                "degraded", {"session": sess.sid, "reason": sess.degraded}
            )
        return ServiceError(
            ErrorCode.DEGRADED,
            f"session {sess.sid!r} is read-only (journal failure: "
            f"{sess.degraded}); reads still serve, recovery in progress",
            retry_after=self.recover_backoff,
        )

    def _degrade(self, sess: Session, exc: BaseException) -> ServiceError:
        """Flip the session read-only after a journal failure.

        Idempotent; closes the journal handle best-effort, spawns the
        recovery sweep, and returns the error the caller should raise.
        """
        if sess.degraded is None:
            sess.degraded = f"{type(exc).__name__}: {exc}"
            self._close_journal(sess)
            log.error(
                "session %s: journal failure, entering degraded "
                "(read-only) mode: %s",
                sess.sid,
                sess.degraded,
            )
            reg = self.registry
            if reg is not None:
                reg.inc_all(
                    {"service.degraded.entered": 1, "service.journal.errors": 1}
                )
            if not self._shutting_down and sess.sweeper is None:
                sess.sweeper = asyncio.get_running_loop().create_task(
                    self._recovery_sweep(sess)
                )
        return self._degraded_error(sess)

    def _op_restore(self, sess: Session) -> dict[str, Any]:
        """Leave degraded mode: re-install the in-memory image into a
        fresh journal handle (:meth:`_install`).

        The checkpoint persists the full in-memory state (scheduler +
        dedup window), so nothing depends on the dead journal's tail.
        Raises DEGRADED (with backoff advice) if the disk still fails.
        """
        if sess.degraded is None:
            return {"recovered": False, "degraded": False}
        sched = sess.scheduler
        if sched is None:
            # Evicted while degraded: disk already has everything; the
            # next touch rehydrates and clears the flag.
            sess.degraded = None
            return {"recovered": True, "rehydrate": True}
        try:
            lsn = self._install(sess, SessionImage(sched, sess.dedup.entries()))
        except OSError as e:
            raise ServiceError(
                ErrorCode.DEGRADED,
                f"session {sess.sid!r} still degraded: {e}",
                retry_after=self.recover_backoff,
            ) from e
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.degraded.recovered": 1})
        log.info(
            "session %s: journal recovered, leaving degraded mode "
            "(checkpoint LSN %d)",
            sess.sid,
            lsn,
        )
        return {"recovered": True, "lsn": lsn}

    async def _recovery_sweep(self, sess: Session) -> None:
        """Retry the journal reopen with exponential backoff until healed."""
        delay = self.recover_backoff
        while not self._shutting_down:
            await asyncio.sleep(delay)
            if self.sessions.get(sess.sid) is not sess or sess.degraded is None:
                return
            try:
                res = await self._enqueue(
                    sess, lambda: self._op_restore(sess), force=True
                )
                if res.get("recovered"):
                    sess.sweeper = None
                    return
            except ServiceError:
                pass  # still failing; back off and try again
            delay = min(delay * 2.0, self.recover_backoff_max)
