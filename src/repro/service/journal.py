"""Write-ahead journal: append-only segments + snapshots + recovery.

The durability layer under every session.  The contract mirrors the
database motivation of cost obliviousness (Bender et al., "Cost-Oblivious
Storage Reallocation"): a reallocator must persist enough state to resume
*deterministically* after a crash.  Because scheduler decisions are a
pure function of the request order (the :mod:`repro.core.snapshot`
determinism contract), it suffices to make the request order durable:

* every mutating request (``insert``/``delete``) is appended to the
  journal -- and optionally fsynced -- **before** it is applied to the
  in-memory scheduler (write-ahead discipline);
* a *checkpoint* writes a full ``core/snapshot`` document (with
  ``include_ledger=True``, so cumulative competitiveness accounting is
  exact across restarts) and truncates the journal tail;
* *recovery* = load the latest snapshot, then replay every journal
  record past it, in LSN order.

On-disk layout (one directory per session)::

    wal-0000000000000001.seg     segment starting at LSN 1 (JSON lines)
    wal-0000000000000042.seg     segment starting at LSN 42
    snap-0000000000000041.json   snapshot covering LSNs <= 41

Each record line is ``{"lsn": n, "op": ..., "name": ..., "size": ...,
"c": crc32}``; the CRC is over the record minus ``c``, so a torn write
(crash mid-line) is detected, not silently replayed.  The line rule,
which :func:`scan_lines` implements for every reader (the server,
``repro fsck``, the reconciler): lines end at ``\n`` only; a lone
undecodable *final* line is a torn tail -- the record was never
acknowledged -- while an undecodable line with anything after it is
corruption, and so is a gap in the LSNs (:func:`replay_chain`):
replaying past a hole would silently diverge from the pre-crash
scheduler.  This module is the only reader and writer of segment and
snapshot files.

Fsync policy trades durability for throughput (measurable with the load
generator; see docs/SERVICE.md):

``always``    fsync after every append (one per batch) -- an
              acknowledged op survives power loss;
``interval``  fsync once N records have been appended since the last one
              (default 64) -- bounded loss window;
``never``     flush to the OS only -- survives process crash (SIGKILL),
              not power loss.

Group commit: :meth:`Journal.append_batch` logs a run of records with
one write and at most one fsync under the policy, so ``always`` costs
one fsync per batch, not per record.  A batch never straddles two
segments, which keeps every segment named by its first LSN; a segment
may run past ``segment_records`` by less than one batch.

Failure atomicity: an append either completes (every record of the
batch written, counters advanced, LSNs assigned) or leaves no trace --
on any I/O error the partial write is truncated away, so an op that was
never acknowledged can never be replayed.  If even the truncation fails
the handle is dropped; recovery then tolerates the orphan as a torn tail,
and the client-side idempotency keys (carried in each record's ``i``
field) close the remaining ambiguity.  I/O failure paths are exercised
deterministically through the ``journal.*`` failpoints
(:mod:`repro.faults`; catalogue in docs/FAULTS.md).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterable, Optional, Sequence, TypeVar

from repro import faults
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service import tracing

log = get_logger("service.journal")

FSYNC_POLICIES = ("always", "interval", "never")

_SEG_PREFIX, _SEG_SUFFIX = "wal-", ".seg"
_SNAP_PREFIX, _SNAP_SUFFIX = "snap-", ".json"
#: Kept snapshot generations (the newest, plus one fallback).
SNAPSHOT_KEEP = 2


class JournalCorrupt(Exception):
    """The journal contains a hole or an undecodable non-tail record."""


@dataclass(frozen=True)
class JournalRecord:
    """One durable mutating request.

    ``idem`` is the client's idempotency key, when one was supplied;
    replaying it lets recovery rebuild the server-side dedup window so
    retries stay exactly-once across a crash.
    """

    lsn: int
    op: str  # "insert" | "delete"
    name: str
    size: int
    idem: Optional[str] = None


def _seg_name(start_lsn: int) -> str:
    return f"{_SEG_PREFIX}{start_lsn:016d}{_SEG_SUFFIX}"


def _snap_name(lsn: int) -> str:
    return f"{_SNAP_PREFIX}{lsn:016d}{_SNAP_SUFFIX}"


def _encode_line(rec: JournalRecord) -> str:
    """``rec``'s journal line, CRC included, without the newline."""
    body: dict[str, Any] = {
        "lsn": rec.lsn, "op": rec.op, "name": rec.name, "size": rec.size,
    }
    if rec.idem is not None:
        body["i"] = rec.idem
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["c"] = zlib.crc32(payload.encode("utf-8"))
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _encode_record(rec: JournalRecord) -> bytes:
    return (_encode_line(rec) + "\n").encode("utf-8")


def decode_record(line: str) -> Optional[JournalRecord]:
    """Parse one journal line; ``None`` if torn/undecodable."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or "c" not in doc:
        return None
    crc = doc.pop("c")
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if crc != zlib.crc32(payload.encode("utf-8")):
        return None
    idem = doc.get("i")
    try:
        return JournalRecord(
            lsn=int(doc["lsn"]),
            op=str(doc["op"]),
            name=str(doc["name"]),
            size=int(doc["size"]),
            idem=str(idem) if idem is not None else None,
        )
    except (KeyError, TypeError, ValueError):
        return None


def _encode_json(doc: Any) -> str:
    """``doc`` as a snapshot or marker file holds it.  The same bytes as
    ``json.dump(doc, fh, sort_keys=True)``, but ``json.dumps`` encodes
    in C, where ``json.dump`` takes the pure-Python path."""
    return json.dumps(doc, sort_keys=True)


def fsync_dir(path: str) -> None:
    """Best-effort directory fsync (durable file creation/rename)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def write_json_durable(path: str, doc: Any) -> None:
    """Replace ``path`` with ``doc`` as JSON, atomically and durably.

    Write a temp file, fsync it, rename it over ``path``, then fsync the
    directory: without that last step a power loss after the rename can
    bring the old file back (an undone seal or fence).
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_encode_json(doc))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")


def _listing(root: str, prefix: str, suffix: str) -> list[tuple[int, str]]:
    """Sorted ``(number, path)`` of the ``<prefix><digits><suffix>`` files."""
    out: list[tuple[int, str]] = []
    for name in os.listdir(root):
        if name.startswith(prefix) and name.endswith(suffix):
            digits = name[len(prefix) : -len(suffix)]
            if digits.isdigit():
                out.append((int(digits), os.path.join(root, name)))
    return sorted(out)


def segment_files(root: str) -> list[tuple[int, str]]:
    """Sorted ``(start_lsn, path)`` for every segment under ``root``."""
    return _listing(root, _SEG_PREFIX, _SEG_SUFFIX)


def snapshot_files(root: str) -> list[tuple[int, str]]:
    """Sorted ``(covered_lsn, path)`` for every snapshot under ``root``."""
    return _listing(root, _SNAP_PREFIX, _SNAP_SUFFIX)


def read_snapshot(path: str) -> dict[str, Any]:
    """One snapshot document; raises ``OSError``, or ``ValueError`` when
    the file is not a JSON object."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    return doc


_Rec = TypeVar("_Rec")


@dataclass
class LineScan(Generic[_Rec]):
    """A JSON-lines file read by the line rule: the valid record prefix
    plus what, if anything, cut it short."""

    path: str
    records: list[_Rec]
    #: Byte offset just past each record, and its 1-based line number.
    ends: list[int]
    linenos: list[int]
    #: Byte offset and line number of the first undecodable line.
    bad_at: Optional[int]
    bad_lineno: int
    #: Whether anything but blank lines follows the undecodable line.
    trailing: bool

    def cut_at(self, index: int) -> int:
        """Byte size keeping only ``records[:index]``."""
        return self.ends[index - 1] if index > 0 else 0


def scan_lines(path: str, parse: Callable[[str], Optional[_Rec]]) -> LineScan[_Rec]:
    """Read ``path`` by the line rule; ``parse`` returns None for a bad
    line.  Lines end at ``\n`` only (the file is read in binary, so a
    stray ``\r`` is part of its line); blank lines are skipped; records
    stop at the first undecodable line.  Never raises on damage."""
    records: list[_Rec] = []
    ends: list[int] = []
    linenos: list[int] = []
    bad_at: Optional[int] = None
    pos = lineno = bad_lineno = 0
    trailing = False
    with open(path, "rb") as fh:
        for raw in fh:
            lineno += 1
            end = pos + len(raw)
            text = raw.decode("utf-8", "replace")
            if text.strip():
                if bad_at is not None:
                    trailing = True
                    break
                rec = parse(text)
                if rec is None:
                    bad_at, bad_lineno = pos, lineno
                else:
                    records.append(rec)
                    ends.append(end)
                    linenos.append(lineno)
            pos = end
    return LineScan(path, records, ends, linenos, bad_at, bad_lineno, trailing)


def scan_segment(path: str, *, strict: bool = False) -> LineScan[JournalRecord]:
    """One segment's records.  ``strict`` (the serving read) raises
    :class:`JournalCorrupt` on an undecodable line with data after it
    and logs a dropped torn tail; otherwise (fsck) the damage is left
    in the scan for the caller to classify."""
    scan = scan_lines(path, decode_record)
    if strict and scan.bad_at is not None:
        if scan.trailing:
            raise JournalCorrupt(
                f"{path}:{scan.bad_lineno}: undecodable record followed by more data"
            )
        log.warning("journal %s: dropped torn record at line %d", path, scan.bad_lineno)
    return scan


@dataclass(frozen=True)
class ChainBreak:
    """Where a replay chain stops: ``scans[segment].records[record]``
    carries an LSN other than ``expected``."""

    segment: int
    record: int
    expected: int


def replay_chain(
    scans: list[LineScan[JournalRecord]], base_lsn: int
) -> tuple[list[JournalRecord], Optional[ChainBreak]]:
    """The replay rule: the records past ``base_lsn`` (the snapshot's
    LSN), in segment order, must continue it one LSN at a time.
    Returns the contiguous tail and where it breaks, if it does;
    records at or below ``base_lsn`` are skipped."""
    tail: list[JournalRecord] = []
    expect = base_lsn + 1
    for si, scan in enumerate(scans):
        for ri, rec in enumerate(scan.records):
            if rec.lsn <= base_lsn:
                continue
            if rec.lsn != expect:
                return tail, ChainBreak(si, ri, expect)
            tail.append(rec)
            expect += 1
    return tail, None


def durable_lsn(root: str, *, strict: bool = False) -> int:
    """Highest LSN on disk under ``root``: the last valid record, else
    the newest snapshot's.  ``strict`` as in :func:`scan_segment`."""
    return _highest_lsn(
        snapshot_files(root),
        (scan_segment(path, strict=strict) for _, path in segment_files(root)),
    )


def _highest_lsn(
    snaps: list[tuple[int, str]], scans: Iterable[LineScan[JournalRecord]]
) -> int:
    last = snaps[-1][0] if snaps else 0
    for scan in scans:
        for rec in scan.records:
            if rec.lsn > last:
                last = rec.lsn
    return last


class Journal:
    """Append-only journal over one directory.

    A fresh segment is started on every open (never appending to a
    possibly-torn tail), named by the LSN of its first record, so the
    segment list alone encodes the replay order.  Opening scans every
    segment once; :meth:`recover` replays that scan rather than reading
    the segments again.
    """

    def __init__(
        self,
        root: str,
        *,
        fsync: str = "interval",
        fsync_interval: int = 64,
        segment_records: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}")
        if fsync_interval < 1:
            raise ValueError("fsync_interval must be >= 1")
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.root = root
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self.segment_records = segment_records
        self.registry = registry
        self.appends = 0
        self.fsyncs = 0
        self.checkpoints = 0
        #: Encoded lines of the most recent successful append, one per
        #: record (no trailing newline) -- what a replicating primary
        #: ships verbatim, CRC and all, so replicas store byte-identical
        #: records.
        self.last_lines: list[str] = []
        self._fh: Optional[Any] = None
        self._seg_records = 0
        self._since_fsync = 0
        os.makedirs(root, exist_ok=True)
        #: The open's segment scan, until :meth:`recover` consumes it or
        #: the first roll or checkpoint makes it stale.
        self._scans: Optional[list[LineScan[JournalRecord]]] = [
            scan_segment(path, strict=True) for _, path in segment_files(root)
        ]
        self._lsn = _highest_lsn(snapshot_files(root), self._scans)

    # -- discovery -------------------------------------------------------

    @staticmethod
    def discard(root: str) -> None:
        """Delete every segment and snapshot under ``root`` (a replica
        install: the incoming image supersedes the local copy wholesale)."""
        for _, path in segment_files(root) + snapshot_files(root):
            os.unlink(path)

    # -- appending -------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._lsn

    @property
    def tail(self) -> int:
        """Records past the newest snapshot on disk: what the next
        recovery replays."""
        snaps = snapshot_files(self.root)
        return self._lsn - (snaps[-1][0] if snaps else 0)

    def append(self, op: str, name: str, size: int, *, idem: Optional[str] = None) -> int:
        """Durably log one mutating request at the next LSN; returns it."""
        return self.append_batch((JournalRecord(self._lsn + 1, op, name, size, idem),))

    def advance_to(self, lsn: int) -> None:
        """Adopt an externally-assigned LSN floor (replica install).

        The snapshot about to be checkpointed covers the *primary's*
        LSNs up to ``lsn``; this journal must continue from there so
        subsequently shipped records extend it verbatim.
        """
        if lsn > self._lsn:
            self._lsn = lsn

    def append_batch(self, recs: Sequence[JournalRecord]) -> int:
        """Durably log ``recs`` with one write and at most one fsync
        under the policy (group commit); returns the last LSN.

        ``recs`` must extend this journal exactly, one LSN at a time: the
        records of live writes, or records shipped from the primary (the
        replica side of journal shipping, docs/CLUSTER.md), adopted
        verbatim.  A gap or regression means a shipped stream diverged,
        and the caller must fall back to the snapshot catch-up path.

        All-or-nothing: on an I/O error (real or injected via the
        ``journal.append.*`` failpoints, which fire once per call) the
        whole batch is rewound and no LSN is consumed, so the journal
        stays replayable -- the caller decides whether to degrade the
        session.
        """
        if not recs:
            raise ValueError("append_batch: no records")
        for k, rec in enumerate(recs, start=self._lsn + 1):
            if rec.lsn != k:
                raise ValueError(f"append_batch: LSN {rec.lsn}, expected {k}")
        if self._fh is None or self._seg_records >= self.segment_records:
            self._roll()
        fh = self._fh
        assert fh is not None
        lines = list(map(_encode_line, recs))
        data = ("\n".join(lines) + "\n").encode("utf-8")
        n = len(recs)
        do_fsync = self.fsync == "always" or (
            self.fsync == "interval" and self._since_fsync + n >= self.fsync_interval
        )
        pos = fh.tell()
        ot = tracing.CURRENT
        if ot is not None:
            ot.journal_begin("append")
        try:
            plan = faults.ACTIVE
            if plan is not None:
                plan.hit("journal.append.io")
                # Dedicated disk-full site: arming it with error:ENOSPC
                # exercises the no-LSN-consumed atomicity contract without
                # disturbing schedules bound to the generic io point.
                plan.hit("journal.append.enospc")
            fh.write(data)
            fh.flush()
            if do_fsync:
                if plan is not None:
                    plan.hit("journal.append.fsync")
                if ot is not None:
                    t_f = time.perf_counter()
                    os.fsync(fh.fileno())
                    ot.fsync_done(time.perf_counter() - t_f)
                else:
                    os.fsync(fh.fileno())
        except OSError as e:
            self._rewind(pos)
            if ot is not None:
                ot.journal_end(error=f"{type(e).__name__}: {e}")
            raise
        self._lsn = recs[-1].lsn
        self.last_lines = lines
        self._seg_records += n
        self.appends += n
        if do_fsync:
            self.fsyncs += 1
            self._since_fsync = 0
        else:
            self._since_fsync += n
        reg = self.registry
        if reg is not None:
            reg.inc_all(
                {
                    "service.journal.appends": n,
                    "service.journal.writes": 1,
                    "service.journal.bytes": len(data),
                }
            )
        if ot is not None:
            ot.journal_end(self._lsn, records=n)
        return self._lsn

    def _rewind(self, pos: int) -> None:
        """Drop whatever a failed append left past ``pos``.

        Best effort: if even the truncation fails, the handle is dropped
        so the next append (or the degraded-mode recovery sweep) starts
        from a fresh scan -- recovery tolerates the orphan bytes as a
        torn tail, and in the worst double-fault case (record fully
        flushed, fsync *and* truncate both failing) an unacknowledged
        record may survive to be replayed; the client idempotency keys
        carried in the records keep retries exactly-once regardless.
        """
        fh = self._fh
        if fh is None:
            return
        try:
            fh.seek(pos)
            fh.truncate(pos)
            fh.flush()
        except OSError:
            log.warning("journal %s: could not rewind failed append", self.root)
            try:
                fh.close()
            except OSError:
                pass
            self._fh = None

    def _roll(self) -> None:
        """Close the open segment and start a fresh one at ``lsn + 1``.

        If the target file already exists it can only hold a torn tail
        from a crashed predecessor (any valid record in it would have
        advanced the scanned LSN), so truncating it is safe.
        """
        self.close()
        self._scans = None
        plan = faults.ACTIVE
        if plan is not None:
            plan.hit("journal.roll.io")
        path = os.path.join(self.root, _seg_name(self._lsn + 1))
        self._fh = open(path, "wb")
        self._seg_records = 0
        self._since_fsync = 0
        # Under ``never`` a power loss can already lose or tear any
        # segment's unsynced data, so making its name durable buys nothing.
        if self.fsync != "never":
            fsync_dir(self.root)

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self, snapshot_doc: dict[str, Any]) -> int:
        """Write a snapshot covering everything logged so far, then
        truncate the journal tail.  Returns the covered LSN.

        The snapshot lands via write-to-temp + atomic rename + directory
        fsync, so a crash mid-checkpoint leaves the previous generation
        (and the still-complete segment tail) intact.
        """
        lsn = self._lsn
        path = os.path.join(self.root, _snap_name(lsn))
        tmp = path + ".tmp"
        ot = tracing.CURRENT
        if ot is not None:
            ot.journal_begin("checkpoint")
        try:
            plan = faults.ACTIVE
            if plan is not None:
                plan.hit("journal.checkpoint.io")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(_encode_json(snapshot_doc))
                fh.flush()
                if ot is not None:
                    t_f = time.perf_counter()
                    os.fsync(fh.fileno())
                    ot.fsync_done(time.perf_counter() - t_f)
                else:
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as e:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if ot is not None:
                ot.journal_end(error=f"{type(e).__name__}: {e}")
            raise
        fsync_dir(self.root)
        # Now the tail is redundant: drop covered segments + old snaps.
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            self._seg_records = 0
            self._since_fsync = 0
        self._scans = None
        for start, seg_path in segment_files(self.root):
            if start <= lsn:
                os.unlink(seg_path)
        for _, snap_path in snapshot_files(self.root)[:-SNAPSHOT_KEEP]:
            os.unlink(snap_path)
        self.checkpoints += 1
        reg = self.registry
        if reg is not None:
            reg.inc_all({"service.journal.checkpoints": 1})
        if ot is not None:
            ot.journal_end(lsn)
        return lsn

    # -- recovery --------------------------------------------------------

    def recover(self) -> tuple[Optional[dict[str, Any]], list[JournalRecord]]:
        """Latest usable snapshot (or None) + the replay tail past it.

        Falls back to an older snapshot generation if the newest one is
        unreadable, provided the journal tail still covers the gap.
        """
        plan = faults.ACTIVE
        if plan is not None:
            plan.hit("journal.recover.io")
        snap_doc: Optional[dict[str, Any]] = None
        snap_lsn = 0
        snaps = snapshot_files(self.root)
        for lsn, path in reversed(snaps):
            try:
                snap_doc, snap_lsn = read_snapshot(path), lsn
                break
            except (OSError, ValueError) as e:
                log.warning("journal %s: unreadable snapshot %s (%s)", self.root, path, e)
        scans, self._scans = self._scans, None
        if scans is None:
            scans = [
                scan_segment(path, strict=True) for _, path in segment_files(self.root)
            ]
        tail, brk = replay_chain(scans, snap_lsn)
        if brk is not None:
            scan = scans[brk.segment]
            raise JournalCorrupt(
                f"{scan.path}:{scan.linenos[brk.record]}: LSN "
                f"{scan.records[brk.record].lsn}, expected {brk.expected} "
                f"(hole in the journal)"
            )
        # Falling back to an older snapshot is only sound if the journal
        # still covers everything the newer (unreadable) one did --
        # otherwise acknowledged ops would silently vanish.
        newest = snaps[-1][0] if snaps else 0
        recovered_to = tail[-1].lsn if tail else snap_lsn
        if recovered_to < newest:
            raise JournalCorrupt(
                f"{self.root}: snapshot covering LSN {newest} is unreadable "
                f"and the journal only reaches LSN {recovered_to}"
            )
        return snap_doc, tail

    # -- lifecycle / stats -----------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "last_lsn": self._lsn,
            "tail": self.tail,
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "checkpoints": self.checkpoints,
            "segments": len(segment_files(self.root)),
            "snapshots": len(snapshot_files(self.root)),
        }

    def close(self) -> None:
        if self._fh is not None:
            if self.fsync != "never":
                os.fsync(self._fh.fileno())
                self.fsyncs += 1
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

