"""Session image: the one shape a session's state travels in.

Eviction and rehydration, ``migrate_out`` -> ``migrate_in``,
``repl_install`` and crash recovery all carry a :class:`SessionImage`:
the scheduler snapshot with its ledger totals, the idempotency dedup
window and, for a replica install, the primary's LSN floor.  Encoded,
an image is a snapshot doc plus two sidecar keys, which only this module
reads or writes.  :func:`apply_record` is the one rule that turns a
journal record into a scheduler call and the answer the client got;
live writes, recovery replay and ``repl_apply`` all use it.  This
module also owns the session directory: it alone reads and writes
``config.json`` and the ``moved.json`` tombstone, and decides which
directories are sessions.  Nothing here touches the event loop.
docs/SERVICE.md ("Session image") has the contract.
"""

from __future__ import annotations

import itertools
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
from repro.service.journal import (
    Journal,
    JournalCorrupt,
    JournalRecord,
    fsync_dir,
    scan_segment,
    segment_files,
    snapshot_files,
    write_json_durable,
)
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


def _serving(sched: SchedulerT) -> SchedulerT:
    """Drop the ledger's per-op report series.  A session reads only the
    ledger's histograms (``summary``, ``competitiveness``), and a long-lived
    session would otherwise grow by one report per write."""
    sched.ledger.reports = None
    return sched


def build_scheduler(cfg: SessionConfig) -> SchedulerT:
    if cfg.p > 1:
        return _serving(ParallelScheduler(
            cfg.p, cfg.max_size, delta=cfg.delta, dynamic=cfg.dynamic
        ))
    return _serving(SingleServerScheduler(
        cfg.max_size, delta=cfg.delta, dynamic=cfg.dynamic
    ))


def take_snapshot(sched: SchedulerT) -> dict[str, Any]:
    """Full state snapshot *including* ledger totals (exact accounting
    across recovery -- see :mod:`repro.core.snapshot`)."""
    if isinstance(sched, ParallelScheduler):
        return snapshot_parallel(sched, include_ledger=True)
    return snapshot_single(sched, include_ledger=True)


def restore_snapshot(doc: dict[str, Any]) -> SchedulerT:
    kind = doc.get("kind")
    if kind == "parallel":
        return _serving(restore_parallel(doc))
    if kind == "single":
        return _serving(restore_single(doc))
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

    def get_after(self, key: str, puts: int) -> Optional[dict[str, Any]]:
        """What :meth:`get` will answer once ``puts`` more keys, none of
        them in the window yet, have been put: the oldest go first."""
        result = self._map.get(key)
        if result is None or puts < 1:
            return result
        drop = len(self._map) + puts - self.cap
        if drop > 0 and key in itertools.islice(self._map, drop):
            return None
        return result

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
# The session directory


def config_path(sdir: str) -> str:
    return os.path.join(sdir, _CONFIG_FILE)


def load_config(sdir: str) -> SessionConfig:
    """The session's stored config.  Raises ``OSError``, ``ValueError``
    (not JSON) or :class:`ServiceError` (not a valid config)."""
    with open(config_path(sdir), encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ServiceError(ErrorCode.BAD_REQUEST, "stored config is not a JSON object")
    return SessionConfig.from_mapping(doc)


def store_config(sdir: str, cfg: SessionConfig) -> None:
    os.makedirs(sdir, exist_ok=True)
    write_json_durable(config_path(sdir), cfg.to_dict())


def tombstone_path(sdir: str) -> str:
    return os.path.join(sdir, _MOVED_FILE)


def read_tombstone(sdir: str) -> Optional[str]:
    """Target shard named by the ``moved.json`` tombstone; ``"unknown"``
    when the tombstone exists but is unreadable; None when the session
    is not tombstoned."""
    try:
        with open(tombstone_path(sdir), encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        return "unknown"
    target = doc.get("target") if isinstance(doc, dict) else None
    return target if isinstance(target, str) else "unknown"


def write_tombstone(sdir: str, target: str) -> None:
    """Durably (re)write the tombstone toward ``target``."""
    write_json_durable(tombstone_path(sdir), {"target": target})


def remove_tombstone(sdir: str) -> None:
    """Durably remove the tombstone: the directory serves again."""
    os.unlink(tombstone_path(sdir))
    fsync_dir(sdir)


def is_session_dir(path: str) -> bool:
    """A directory holding a config or journal files."""
    if not os.path.isdir(path):
        return False
    return (
        os.path.isfile(config_path(path))
        or bool(segment_files(path))
        or bool(snapshot_files(path))
    )


def session_dirs(root: str) -> list[tuple[str, str]]:
    """``(session id, path)`` of the session directories at ``root``:
    ``root`` itself when it is one, else its subdirectories that are."""
    if is_session_dir(root):
        return [(os.path.basename(os.path.abspath(root)), root)]
    subdirs = [(name, os.path.join(root, name)) for name in sorted(os.listdir(root))]
    return [(name, path) for name, path in subdirs if is_session_dir(path)]


def scan_sessions(root: str) -> tuple[list[str], list[tuple[str, str]]]:
    """What a data dir holds: the ids of the sessions it owns (a config
    and no tombstone) and ``(session id, target)`` per tombstone."""
    owned: list[str] = []
    moved: list[tuple[str, str]] = []
    for sid, sdir in session_dirs(root):
        target = read_tombstone(sdir)
        if target is not None:
            moved.append((sid, target))
        elif os.path.isfile(config_path(sdir)):
            owned.append(sid)
    return owned, moved


# ---------------------------------------------------------------------------
# Recovery


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
    found = [
        (sid, sdir, read_tombstone(sdir))
        for sid, sdir in session_dirs(root)
        if os.path.isfile(config_path(sdir))
    ]
    if not found:
        raise ValueError(f"no service sessions under {root!r}")
    infos: list[dict[str, Any]] = [
        {"session": sid, "skipped_moved": True, "moved_to": target}
        for sid, _, target in found
        if target is not None
    ]
    for sid, sdir, target in found:
        if target is not None:
            continue
        cfg = load_config(sdir)
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


def read_journal_records(root: str) -> dict[str, list[JournalRecord]]:
    """Valid on-disk records per session, in LSN order (LSNs are
    per-session, so the map key is part of the join identity).

    Offline forensics helper (``repro report --journal --trace``): unlike
    :meth:`Journal.recover` it ignores snapshots entirely -- it answers
    "which LSNs are still in the segment files", which is exactly the set
    a trace join can resolve back to requests.  ``root`` may be a single
    session directory (key = its basename) or a server data directory.
    """
    out: dict[str, list[JournalRecord]] = {}
    for sid, sdir in session_dirs(root):
        records: list[JournalRecord] = []
        for _, path in segment_files(sdir):
            records.extend(scan_segment(path, strict=True).records)
        out[sid] = sorted(records, key=lambda rec: rec.lsn)
    return out
