"""Session image: the one shape a session's state travels in.

Eviction and rehydration, ``migrate_out`` -> ``migrate_in``,
``repl_install`` and crash recovery all carry a :class:`SessionImage`:
the scheduler snapshot with its ledger totals, the idempotency dedup
window and, for a replica install, the primary's LSN floor.  Encoded,
an image is a snapshot doc plus two sidecar keys, which only this module
reads or writes.  :func:`apply_record` is the one rule that turns a
journal record into a scheduler call and the answer the client got;
live writes, recovery replay and ``repl_apply`` all use it.  Nothing
here touches the event loop.  docs/SERVICE.md ("Session image") has the
contract.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.core.parallel import ParallelScheduler
from repro.core.single import SingleServerScheduler
from repro.core.snapshot import (
    restore_parallel,
    restore_single,
    snapshot_parallel,
    snapshot_single,
)
from repro.obs.instrument import attach
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.journal import Journal, JournalCorrupt, JournalRecord
from repro.service.protocol import ErrorCode, ServiceError, SessionConfig

log = get_logger("service")

SchedulerT = Union[SingleServerScheduler, ParallelScheduler]
#: One dedup-window entry: idempotency key -> the original answer.
DedupEntry = tuple[str, dict[str, Any]]

_CONFIG_FILE = "config.json"
#: Tombstone left by ``migrate_seal``: the session now lives on another
#: shard; later ops here answer MOVED with the target shard name.
_MOVED_FILE = "moved.json"

#: The sidecar keys an image adds to its scheduler snapshot doc.
_DEDUP_KEY = "service_dedup"
_LSN_KEY = "service_lsn"


# ---------------------------------------------------------------------------
# Scheduler construction / snapshot


def build_scheduler(cfg: SessionConfig) -> SchedulerT:
    if cfg.p > 1:
        return ParallelScheduler(
            cfg.p, cfg.max_size, delta=cfg.delta, dynamic=cfg.dynamic
        )
    return SingleServerScheduler(
        cfg.max_size, delta=cfg.delta, dynamic=cfg.dynamic
    )


def take_snapshot(sched: SchedulerT) -> dict[str, Any]:
    """Full state snapshot *including* ledger totals (exact accounting
    across recovery -- see :mod:`repro.core.snapshot`)."""
    if isinstance(sched, ParallelScheduler):
        return snapshot_parallel(sched, include_ledger=True)
    return snapshot_single(sched, include_ledger=True)


def restore_snapshot(doc: dict[str, Any]) -> SchedulerT:
    kind = doc.get("kind")
    if kind == "parallel":
        return restore_parallel(doc)
    if kind == "single":
        return restore_single(doc)
    raise ServiceError(
        ErrorCode.JOURNAL_CORRUPT, f"snapshot has unknown kind {kind!r}"
    )


# ---------------------------------------------------------------------------
# The dedup window and its sidecar


class DedupWindow:
    """Bounded FIFO map of idempotency key -> original op result.

    ``put`` evicts the oldest entries past ``cap`` (FIFO, not LRU: a
    *hit* must not extend a key's lifetime, or a pathological retry loop
    could pin the window forever).  Entries round-trip through the
    snapshot sidecar via :meth:`entries` and :meth:`load`.
    """

    __slots__ = ("cap", "_map")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._map: "OrderedDict[str, dict[str, Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._map)

    def get(self, key: str) -> Optional[dict[str, Any]]:
        return self._map.get(key)

    def put(self, key: str, result: dict[str, Any]) -> int:
        """Record a result; returns how many old entries were evicted."""
        if self.cap < 1:
            return 0
        self._map[key] = result
        evicted = 0
        while len(self._map) > self.cap:
            self._map.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._map.clear()

    def load(self, entries: list[DedupEntry]) -> None:
        """Replace the contents with ``entries`` (oldest first)."""
        self.clear()
        for key, result in entries:
            self.put(key, result)

    def entries(self) -> list[DedupEntry]:
        """Oldest-first (insertion-order) entries, for the snapshot sidecar."""
        return list(self._map.items())


def _entry_ok(item: object) -> bool:
    return (
        isinstance(item, list)
        and len(item) == 2
        and isinstance(item[0], str)
        and isinstance(item[1], dict)
    )


def dedup_sidecar(doc: dict[str, Any]) -> tuple[list[DedupEntry], int]:
    """The well-formed entries of ``doc``'s dedup sidecar, oldest first,
    and how many items are malformed (a sidecar that is not a list
    counts as one).  Decoding keeps the entries and drops the rest;
    fsck reports the rest as ``dedup_sidecar`` damage."""
    raw = doc.get(_DEDUP_KEY, [])
    items = raw if isinstance(raw, list) else [raw]
    good = [(item[0], item[1]) for item in items if _entry_ok(item)]
    return good, len(items) - len(good)


def set_dedup_sidecar(doc: dict[str, Any], entries: list[DedupEntry]) -> None:
    """Make ``entries`` the dedup sidecar of ``doc`` (none when empty)."""
    if entries:
        doc[_DEDUP_KEY] = [[key, result] for key, result in entries]
    else:
        doc.pop(_DEDUP_KEY, None)


# ---------------------------------------------------------------------------
# The image and the record -> answer rule


@dataclass
class SessionImage:
    """A session's transferable state.

    ``dedup`` holds the window's entries oldest first; ``lsn`` is the
    primary's journal LSN the image covers, set only for a replica
    install (the primary's payload, and the image the replica installs
    and adopts as its own LSN floor).
    """

    sched: SchedulerT
    dedup: list[DedupEntry] = field(default_factory=list)
    lsn: Optional[int] = None

    def encode(self) -> dict[str, Any]:
        """The snapshot doc: a checkpoint file or a transfer payload."""
        doc = take_snapshot(self.sched)
        set_dedup_sidecar(doc, self.dedup)
        if self.lsn is not None:
            doc[_LSN_KEY] = self.lsn
        return doc

    @classmethod
    def decode(cls, doc: dict[str, Any]) -> "SessionImage":
        """Inverse of :meth:`encode`, minus the LSN floor (only a replica
        install reads that, via :func:`lsn_floor`).  Raises what
        :func:`restore_snapshot` raises on a bad snapshot."""
        return cls(restore_snapshot(doc), dedup_sidecar(doc)[0])


def lsn_floor(doc: dict[str, Any]) -> int:
    """The primary LSN a ``repl_install`` payload covers (0 when it has
    none); a malformed floor is BAD_REQUEST."""
    lsn = doc.get(_LSN_KEY, 0)
    if type(lsn) is not int or lsn < 0:
        raise ServiceError(
            ErrorCode.BAD_REQUEST, f"install snapshot lacks a valid {_LSN_KEY}"
        )
    return lsn


def apply_record(sched: SchedulerT, rec: JournalRecord) -> dict[str, Any]:
    """Apply one journal record; returns the answer the client got.

    Raises ``KeyError`` when the record no longer applies (the job is
    already active, or not active) and :class:`JournalCorrupt` on an
    unknown op.
    """
    if rec.op == "insert":
        pj = sched.insert(rec.name, rec.size)
        return {
            "lsn": rec.lsn,
            "placed": {
                "name": rec.name,
                "size": rec.size,
                "klass": pj.klass,
                "start": pj.start,
                "server": pj.server,
            },
        }
    if rec.op == "delete":
        sched.delete(rec.name)
        return {"lsn": rec.lsn, "size": rec.size}
    raise JournalCorrupt(f"unknown journal op {rec.op!r} at LSN {rec.lsn}")


# ---------------------------------------------------------------------------
# Recovery


def moved_target(sdir: str) -> str:
    """Target shard named by a ``moved.json`` tombstone (``"unknown"``
    when it is missing or unreadable)."""
    try:
        with open(os.path.join(sdir, _MOVED_FILE), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return "unknown"
    target = doc.get("target") if isinstance(doc, dict) else None
    return target if isinstance(target, str) else "unknown"


def recover_scheduler(
    root: str,
    cfg: SessionConfig,
    *,
    fsync: str = "interval",
    fsync_interval: int = 64,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    attach_obs: bool = False,
) -> tuple[SchedulerT, Journal, dict[str, Any]]:
    """Crash recovery: latest snapshot + journal-tail replay.

    Returns the rebuilt scheduler, the (re-opened) journal, and an info
    dict (``replayed``, ``from_snapshot``, ``last_lsn``, ``dedup``).
    The recovered idempotency-dedup entries (snapshot sidecar plus keys
    replayed from the tail) ride under the private ``"_dedup_entries"``
    key, which callers pop before exposing the info dict.  With
    ``attach_obs=True`` the replay itself is instrumented, so the
    recovered run feeds the PR-1 counter-delta replay validation
    (``repro report --journal``).
    """
    journal = Journal(
        root, fsync=fsync, fsync_interval=fsync_interval, registry=registry
    )
    if tracer is not None:
        tracer.begin_span("recovery", {"dir": root})
    t0 = time.perf_counter()
    try:
        snap_doc, tail = journal.recover()
        image = (
            SessionImage.decode(snap_doc)
            if snap_doc is not None
            else SessionImage(build_scheduler(cfg))
        )
        attachment = (
            attach(image.sched, registry, tracer)
            if attach_obs and (registry is not None or tracer is not None)
            else None
        )
        try:
            for rec in tail:
                try:
                    answer = apply_record(image.sched, rec)
                except KeyError:
                    # Ops are validated before journaling, so this means
                    # a journal from a buggy/foreign writer; warn, don't die.
                    log.warning("replay: op at LSN %d no longer applies", rec.lsn)
                    continue
                if rec.idem is not None:
                    image.dedup.append((rec.idem, answer))
        finally:
            if attachment is not None:
                attachment.detach()
    finally:
        if tracer is not None:
            tracer.end_span("recovery", {"seconds": round(time.perf_counter() - t0, 6)})
    info: dict[str, Any] = {
        "replayed": len(tail),
        "from_snapshot": snap_doc is not None,
        "last_lsn": journal.last_lsn,
        "dedup": len(image.dedup),
        "_dedup_entries": image.dedup,
    }
    if registry is not None:
        registry.inc_all(
            {"service.recovery.count": 1, "service.recovery.replayed": len(tail)}
        )
        registry.histogram("service.recovery.seconds").observe(
            time.perf_counter() - t0
        )
    return image.sched, journal, info


def replay_journal_dir(
    root: str, *, registry: Optional[MetricsRegistry] = None
) -> tuple[MetricsRegistry, list[dict[str, Any]]]:
    """Rebuild every session under ``root`` with instrumentation attached.

    ``root`` may be a single session directory (holding ``config.json``)
    or a server data directory (holding one subdirectory per session).
    Returns the registry the replay populated -- the same counters a
    live, instrumented, uninterrupted run would have produced, which is
    what lets journal replays feed the PR-1 trace-validation tooling.

    Tombstoned directories (``moved.json`` present: the session migrated
    away, or is mid-migration toward another shard) are not replayable
    here -- their authoritative state lives on the target.  They are
    surfaced as ``{"session": ..., "skipped_moved": True, "moved_to":
    ...}`` rows instead of aborting the whole report.
    """
    reg = registry if registry is not None else MetricsRegistry()
    if os.path.isfile(os.path.join(root, _CONFIG_FILE)):
        found = [(os.path.basename(os.path.abspath(root)), root)]
    else:
        found = [
            (name, os.path.join(root, name))
            for name in sorted(os.listdir(root))
            if os.path.isfile(os.path.join(root, name, _CONFIG_FILE))
        ]
    if not found:
        raise ValueError(f"no service sessions under {root!r}")
    moved = [os.path.isfile(os.path.join(sdir, _MOVED_FILE)) for _, sdir in found]
    infos: list[dict[str, Any]] = [
        {"session": sid, "skipped_moved": True, "moved_to": moved_target(sdir)}
        for (sid, sdir), gone in zip(found, moved)
        if gone
    ]
    for (sid, sdir), gone in zip(found, moved):
        if gone:
            continue
        with open(os.path.join(sdir, _CONFIG_FILE), encoding="utf-8") as fh:
            cfg = SessionConfig.from_mapping(json.load(fh))
        sched, journal, info = recover_scheduler(
            sdir, cfg, registry=reg, attach_obs=True
        )
        info.pop("_dedup_entries", None)
        journal.close()
        infos.append(
            {
                "session": sid,
                "active": len(sched),
                "objective": sched.sum_completion_times(),
                "config": cfg.to_dict(),
                **info,
            }
        )
    return reg, infos
