"""Offline integrity scanner and repairer (``repro fsck``).

Walks journal directories and cluster state *at rest* -- the crashed
shard's directory, a whole server data dir, or a cluster root -- and
classifies every deviation from the on-disk contracts of
:mod:`repro.service.journal`, :mod:`repro.service.sessions` and
:mod:`repro.cluster` into typed :class:`Finding` records.

The repair contract (docs/RECOVERY.md) has three clauses:

1. **Roll back to the longest cleanly-recoverable prefix.**  A repaired
   directory always satisfies :meth:`repro.service.journal.Journal.recover`:
   torn tails are truncated to the last valid record, segments broken
   mid-file are cut at the corruption, and anything past an LSN hole is
   taken out of the replay path.  This holds by construction: fsck
   reads segments with the journal's own scanner
   (:func:`~repro.service.journal.scan_segment`) and judges the replay
   chain with its own rule (:func:`~repro.service.journal.replay_chain`),
   so it classifies exactly the damage recovery would refuse.
2. **Quarantine, never destroy.**  Bytes that carried (or may have
   carried) acknowledged state are renamed/copied to ``*.corrupt``
   siblings, which fsck and the serving stack both ignore.  Only
   artifacts that are garbage *by contract* -- stale ``*.tmp`` files from
   interrupted atomic renames, snapshot generations beyond the
   checkpoint keep window -- are deleted outright.
3. **Idempotence.**  Every repair is journaled to ``fsck.log.jsonl`` in
   the repaired directory and re-running ``repro fsck --repair`` on its
   own output is a no-op: the second run reports zero findings.

Cluster-level inconsistencies that need *liveness* to resolve --
double ownership after a half-completed migration, tombstones pointing
at shards that never adopted -- are reported here but repaired by the
anti-entropy reconciler (:mod:`repro.recovery.reconcile`), which can
talk to the shards and record the resolution in the reallocation
ledger.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.cluster.group import MANIFEST_FILE, ShardSpec, load_manifest
from repro.cluster.placement import PLACEMENT_FILE, PlacementMap
from repro.cluster.rebalance import REALLOC_FILE, ReallocationLedger
from repro.obs.logsetup import get_logger
from repro.service.image import (
    config_path,
    dedup_sidecar,
    is_session_dir,
    load_config,
    read_tombstone,
    scan_sessions,
    session_dirs,
    set_dedup_sidecar,
    tombstone_path,
)
from repro.service.journal import (
    SNAPSHOT_KEEP,
    Journal,
    JournalCorrupt,
    fsync_dir,
    read_snapshot,
    replay_chain,
    scan_segment,
    segment_files,
    snapshot_files,
    write_json_durable,
)
from repro.service.protocol import ServiceError
from repro.service.sessions import data_role

log = get_logger("recovery.fsck")

#: Repair journal written into every directory fsck touches.
FSCK_LOG = "fsck.log.jsonl"
#: Suffix quarantined files get; fsck and the serving stack ignore it.
QUARANTINE_SUFFIX = ".corrupt"

#: The findings taxonomy (documented in docs/RECOVERY.md); every
#: :class:`Finding` carries exactly one of these kinds.
FINDING_KINDS = frozenset(
    {
        # session/journal layer
        "torn_tail",            # undecodable final segment line
        "corrupt_record",       # undecodable line with data after it
        "lsn_hole",             # replay tail skips an LSN
        "lsn_duplicate",        # replay tail repeats/regresses an LSN
        "snapshot_orphan",      # snapshot generation past the keep window
        "snapshot_unreadable",  # kept snapshot fails to parse
        "dedup_sidecar",        # malformed service_dedup entries in a snapshot
        "stale_tmp",            # leftover *.tmp from an interrupted rename
        "tombstone_unreadable", # moved.json fails to parse
        "config_unreadable",    # config.json missing or fails to parse
        "unrecoverable",        # post-repair verification still fails
        # cluster layer
        "manifest_unreadable",  # cluster.json fails to parse
        "shard_data_missing",   # manifest names a data dir that is absent
        "placement_unreadable", # placement.json fails to parse
        "ledger_torn",          # reallocations.jsonl has an unparsable line
        "double_ownership",     # session owned by more than one shard
        "dangling_tombstone",   # tombstone target never adopted the session
    }
)

#: Kinds fsck itself cannot repair; the reconciler resolves them.
RECONCILER_KINDS = frozenset({"double_ownership", "dangling_tombstone"})

_INFO_KINDS = frozenset({"stale_tmp", "snapshot_orphan", "shard_data_missing"})


@dataclass(frozen=True)
class Finding:
    """One classified deviation from the on-disk contract.

    ``repair`` describes the applicable repair (or is ``None`` when fsck
    has none -- e.g. the reconciler-owned cluster kinds); ``repaired``
    records whether this run actually applied it.
    """

    kind: str
    path: str
    detail: str
    repair: Optional[str] = None
    repaired: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FINDING_KINDS:
            raise ValueError(f"unknown finding kind {self.kind!r}")

    @property
    def severity(self) -> str:
        return "info" if self.kind in _INFO_KINDS else "error"

    def to_doc(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "path": self.path,
            "detail": self.detail,
            "repair": self.repair,
            "repaired": self.repaired,
        }


@dataclass
class FsckReport:
    """Everything one ``run_fsck`` pass saw and did."""

    findings: list[Finding] = field(default_factory=list)
    scanned: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def repaired_count(self) -> int:
        return sum(1 for f in self.findings if f.repaired)

    @property
    def unrepaired(self) -> list[Finding]:
        return [f for f in self.findings if not f.repaired]

    def to_doc(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "scanned": self.scanned,
            "findings": [f.to_doc() for f in self.findings],
            "repaired": self.repaired_count,
        }

    def human_lines(self) -> list[str]:
        """Render for the console (printed by ``repro fsck``)."""
        out = [f"fsck: scanned {len(self.scanned)} director{'y' if len(self.scanned) == 1 else 'ies'}"]
        for f in self.findings:
            state = "repaired" if f.repaired else (
                "repairable" if f.repair is not None else "needs reconcile"
                if f.kind in RECONCILER_KINDS else "unrepairable"
            )
            out.append(f"  [{f.severity}] {f.kind} {f.path}: {f.detail} ({state})")
        if self.clean:
            out.append("  clean: no findings")
        else:
            out.append(
                f"  {len(self.findings)} finding(s), {self.repaired_count} repaired"
            )
        return out


class _RepairLog:
    """Append-only ``fsck.log.jsonl`` writer (the journaled-repairs part
    of the contract); opened lazily so scan-only runs touch nothing."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.path = os.path.join(root, FSCK_LOG)
        self._seq = 0
        self._opened = False

    def record(self, action: str, path: str, detail: str) -> None:
        if not self._opened:
            if os.path.isfile(self.path):
                with open(self.path, encoding="utf-8", errors="replace") as fh:
                    self._seq = sum(1 for line in fh if line.strip())
            self._opened = True
        self._seq += 1
        doc = {
            "seq": self._seq,
            "action": action,
            "path": os.path.basename(path),
            "detail": detail,
        }
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        log.info("fsck repair %s: %s %s (%s)", self.root, action, path, detail)


def _ignored(name: str) -> bool:
    return name == FSCK_LOG or name.endswith(QUARANTINE_SUFFIX)


def _quarantine_dst(path: str) -> str:
    """First free ``*.corrupt`` sibling name for ``path``."""
    dst, n = path + QUARANTINE_SUFFIX, 1
    while os.path.exists(dst):
        n += 1
        dst = f"{path}.{n}{QUARANTINE_SUFFIX}"
    return dst


def _quarantine_rename(path: str, rlog: _RepairLog, detail: str) -> str:
    dst = _quarantine_dst(path)
    os.replace(path, dst)
    fsync_dir(os.path.dirname(path) or ".")
    rlog.record("quarantine", path, f"-> {os.path.basename(dst)}: {detail}")
    return dst


def _quarantine_copy(path: str, rlog: _RepairLog, detail: str) -> str:
    dst = _quarantine_dst(path)
    with open(path, "rb") as src, open(dst, "wb") as out:
        out.write(src.read())
        out.flush()
        os.fsync(out.fileno())
    fsync_dir(os.path.dirname(path) or ".")
    rlog.record("quarantine-copy", path, f"-> {os.path.basename(dst)}: {detail}")
    return dst


def _truncate(path: str, size: int, rlog: _RepairLog, detail: str) -> None:
    with open(path, "rb+") as fh:
        fh.truncate(size)
        fh.flush()
        os.fsync(fh.fileno())
    rlog.record("truncate", path, f"to {size} bytes: {detail}")


def _unlink(path: str, rlog: _RepairLog, detail: str) -> None:
    os.unlink(path)
    fsync_dir(os.path.dirname(path) or ".")
    rlog.record("unlink", path, detail)


def scan_ownership(
    specs: Sequence[ShardSpec],
) -> tuple[dict[str, list[str]], list[tuple[str, str, str]]]:
    """On-disk ownership across a cluster: ``{session: [owning
    shards]}`` plus ``(shard, session, target)`` for every tombstone.

    Only primary data dirs count: replicas and fenced ex-primaries hold
    *copies* of their primary's sessions -- present on disk, never
    owners (the reconciler trims divergent copies).
    """
    owners: dict[str, list[str]] = {}
    tombstones: list[tuple[str, str, str]] = []
    for spec in specs:
        if not os.path.isdir(spec.data) or data_role(spec.data) != "primary":
            continue
        owned, moved = scan_sessions(spec.data)
        for sid in owned:
            owners.setdefault(sid, []).append(spec.name)
        tombstones.extend((spec.name, sid, target) for sid, target in moved)
    return owners, tombstones


# ----------------------------------------------------------------------
# Session-directory scan + repair


def _scan_stale_tmp(
    root: str, rlog: _RepairLog, repair: bool, add: Callable[[Finding], None]
) -> None:
    """Stale ``*.tmp`` files from interrupted atomic renames."""
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if _ignored(name) or not name.endswith(".tmp") or not os.path.isfile(path):
            continue
        if repair:
            _unlink(path, rlog, "stale tmp from interrupted rename")
        add(Finding("stale_tmp", path, "interrupted atomic rename",
                    repair="delete", repaired=repair))


def _scan_session_dir(sdir: str, *, repair: bool, report: FsckReport) -> None:
    report.scanned.append(sdir)
    rlog = _RepairLog(sdir)
    repaired_any = False

    def add(finding: Finding) -> None:
        nonlocal repaired_any
        repaired_any = repaired_any or finding.repaired
        report.findings.append(finding)

    # 1. stale *.tmp files from interrupted atomic renames.
    _scan_stale_tmp(sdir, rlog, repair, add)

    # 2. tombstone readability.
    moved_path = tombstone_path(sdir)
    if read_tombstone(sdir) == "unknown":
        detail = "moved.json unreadable; session cannot answer MOVED correctly"
        if repair:
            _quarantine_rename(moved_path, rlog, "unreadable tombstone")
        add(Finding("tombstone_unreadable", moved_path, detail,
                    repair="quarantine (source resumes authority)",
                    repaired=repair))

    # 3. config readability (unrepairable: fsck cannot invent a config).
    cfg_path = config_path(sdir)
    segments = segment_files(sdir)
    snaps = snapshot_files(sdir)
    if os.path.isfile(cfg_path):
        try:
            load_config(sdir)
        except (OSError, ValueError, ServiceError) as e:
            add(Finding("config_unreadable", cfg_path, f"cannot parse: {e}"))
    elif segments or snaps:
        add(Finding("config_unreadable", cfg_path,
                    "journal data present but config.json is missing"))

    # 4. per-segment structure, by the journal's own line rule.
    scans = [scan_segment(path) for _, path in segments]
    for scan in scans:
        if scan.bad_at is None:
            continue
        if not scan.trailing:
            detail = (f"line {scan.bad_lineno}: undecodable final record "
                      f"(never acknowledged)")
            if repair:
                _truncate(scan.path, scan.bad_at, rlog, "torn tail")
            add(Finding("torn_tail", scan.path, detail,
                        repair="truncate to last valid record", repaired=repair))
        else:
            detail = (f"line {scan.bad_lineno}: undecodable record followed "
                      f"by more data")
            if repair:
                _quarantine_copy(scan.path, rlog, "segment broken mid-file")
                _truncate(scan.path, scan.bad_at, rlog, "cut at corrupt record")
            add(Finding("corrupt_record", scan.path, detail,
                        repair="quarantine copy, cut at corruption",
                        repaired=repair))

    # 5. snapshot generations: delete past the keep window (what the
    #    interrupted checkpoint would have done), quarantine unreadable.
    for lsn, path in snaps[:-SNAPSHOT_KEEP]:
        detail = f"generation covering LSN {lsn} is past the keep window"
        if repair:
            _unlink(path, rlog, "snapshot past keep window")
        add(Finding("snapshot_orphan", path, detail, repair="delete",
                    repaired=repair))

    kept = snaps[-SNAPSHOT_KEEP:]
    base_lsn = 0
    base_doc: Optional[dict[str, Any]] = None
    base_path = ""
    newest_named = kept[-1][0] if kept else 0
    for lsn, path in kept:
        try:
            doc = read_snapshot(path)
        except (OSError, ValueError) as e:
            detail = f"snapshot covering LSN {lsn} unreadable: {e}"
            if repair:
                _quarantine_rename(path, rlog, "unreadable snapshot")
            add(Finding("snapshot_unreadable", path, detail,
                        repair="quarantine (recovery falls back)",
                        repaired=repair))
            continue
        if lsn >= base_lsn:
            base_lsn, base_doc, base_path = lsn, doc, path

    # 6. dedup sidecar of the surviving base snapshot.
    if base_doc is not None:
        entries, bad = dedup_sidecar(base_doc)
        if bad:
            detail = (f"{bad} malformed dedup entr{'y' if bad == 1 else 'ies'} "
                      f"(recovery would silently drop them)")
            if repair:
                fixed = dict(base_doc)
                set_dedup_sidecar(fixed, entries)
                write_json_durable(base_path, fixed)
                rlog.record("rewrite", base_path, "dropped malformed dedup entries")
            add(Finding("dedup_sidecar", base_path, detail,
                        repair="rewrite snapshot without malformed entries",
                        repaired=repair))

    # 7. replay-chain contiguity above the base snapshot, over the valid
    #    record prefixes (the post-repair view of step 4), by the rule
    #    recovery applies.
    chain, brk = replay_chain(scans, base_lsn)
    if brk is not None:
        scan = scans[brk.segment]
        lsn = scan.records[brk.record].lsn
        kind = "lsn_hole" if lsn > brk.expected else "lsn_duplicate"
        detail = (f"record LSN {lsn} where {brk.expected} was expected; "
                  f"replay stops at LSN {brk.expected - 1}")
        if repair:
            _quarantine_copy(scan.path, rlog, f"{kind} at LSN {lsn}")
            _truncate(scan.path, scan.cut_at(brk.record), rlog,
                      f"cut replay chain before LSN {lsn}")
            for later in scans[brk.segment + 1:]:
                if os.path.exists(later.path):
                    _quarantine_rename(later.path, rlog,
                                       f"past {kind} at LSN {lsn}")
        add(Finding(kind, scan.path, detail,
                    repair="quarantine everything past the chain break",
                    repaired=repair))

    # A repair that rolls back past an LSN a (now quarantined) newer
    # snapshot had covered loses acknowledged state; say so explicitly.
    if repair and repaired_any:
        chain_end = chain[-1].lsn if chain else base_lsn
        if chain_end < newest_named and base_lsn < newest_named:
            rlog.record(
                "rollback", sdir,
                f"recovered prefix ends at LSN {chain_end}; acknowledged "
                f"LSNs ({chain_end}, {newest_named}] were quarantined",
            )

    # 8. verify: a repaired directory must recover cleanly.
    if repair and repaired_any:
        try:
            jr = Journal(sdir, fsync="never")
            jr.recover()
            jr.close()
            rlog.record("verify", sdir, "journal recovers cleanly")
        except (JournalCorrupt, OSError) as e:  # pragma: no cover - safety net
            add(Finding("unrecoverable", sdir, f"post-repair recovery failed: {e}"))


# ----------------------------------------------------------------------
# Server data dirs and cluster roots


def _scan_server_dir(root: str, *, repair: bool, report: FsckReport) -> None:
    """Scan one shard/server data directory and its sessions."""
    report.scanned.append(root)
    _scan_stale_tmp(root, _RepairLog(root), repair, report.findings.append)
    for name, path in session_dirs(root):
        if not _ignored(name):
            _scan_session_dir(path, repair=repair, report=report)


def _scan_ledger(root: str, *, repair: bool, report: FsckReport) -> None:
    path = os.path.join(root, REALLOC_FILE)
    if not os.path.isfile(path):
        return
    scan = ReallocationLedger(path).scan()
    if scan.bad_at is None:
        return
    detail = f"line {scan.bad_lineno}: unparsable ledger record"
    rlog = _RepairLog(root)
    if repair:
        if scan.trailing:
            _quarantine_copy(path, rlog, "ledger broken mid-file")
        _truncate(path, scan.bad_at, rlog, "cut at unparsable ledger record")
    report.findings.append(Finding("ledger_torn", path, detail,
                                   repair="cut at first unparsable record",
                                   repaired=repair))


def _scan_cluster_root(root: str, *, repair: bool, report: FsckReport) -> None:
    report.scanned.append(root)
    rlog = _RepairLog(root)
    add = report.findings.append
    _scan_stale_tmp(root, rlog, repair, add)

    manifest_path = os.path.join(root, MANIFEST_FILE)
    try:
        shards = load_manifest(manifest_path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
        add(Finding("manifest_unreadable", manifest_path, f"cannot parse: {e}"))
        return

    placement_path = os.path.join(root, PLACEMENT_FILE)
    if os.path.isfile(placement_path):
        try:
            PlacementMap.load(placement_path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            detail = (f"cannot parse: {e}; routing falls back to rendezvous "
                      f"hashing and MOVED chasing")
            if repair:
                _quarantine_rename(placement_path, rlog, "unreadable placement")
            add(Finding("placement_unreadable", placement_path, detail,
                        repair="quarantine (reconciler re-learns overrides)",
                        repaired=repair))

    _scan_ledger(root, repair=repair, report=report)

    # Ownership as it stood before any repair below; an unreadable
    # tombstone quarantined under --repair makes its shard an owner on
    # the next run.
    owners, tombstones = scan_ownership(shards)
    if repair:
        tombstones = [t for t in tombstones if t[2] != "unknown"]
    for spec in shards:
        if not os.path.isdir(spec.data):
            detail = f"manifest names shard {spec.name!r} data dir {spec.data!r}"
            if repair:
                os.makedirs(spec.data, exist_ok=True)
                rlog.record("mkdir", spec.data, "recreated missing shard data dir")
            add(Finding("shard_data_missing", spec.data, detail,
                        repair="recreate empty", repaired=repair))
            continue
        # Journal-level repair applies to every shard's sessions,
        # replicas and fenced ex-primaries included.
        _scan_server_dir(spec.data, repair=repair, report=report)

    for sid, names in sorted(owners.items()):
        if len(names) > 1:
            add(Finding(
                "double_ownership", root,
                f"session {sid!r} owned by {', '.join(sorted(names))}",
            ))
    for shard, sid, target in tombstones:
        if target not in owners.get(sid, []):
            where = (f"target {target!r} does not own it"
                     if target != "unknown" else "tombstone target unreadable")
            add(Finding(
                "dangling_tombstone",
                os.path.join(shard, sid),
                f"session {sid!r} tombstoned toward {target!r} but {where}",
            ))


# ----------------------------------------------------------------------


def run_fsck(paths: Sequence[str], *, repair: bool = False) -> FsckReport:
    """Scan (and with ``repair=True``, repair) each path.

    Each path may be a single session directory, a server data
    directory (one level of session subdirectories), or a cluster root
    (``cluster.json`` present).  Repairs are idempotent: a second
    ``repair=True`` run over the output reports zero findings, except
    for the reconciler-owned cluster kinds (:data:`RECONCILER_KINDS`)
    which fsck only reports.
    """
    report = FsckReport()
    for path in paths:
        if not os.path.isdir(path):
            raise ValueError(f"fsck target {path!r} is not a directory")
        if os.path.isfile(os.path.join(path, MANIFEST_FILE)):
            _scan_cluster_root(path, repair=repair, report=report)
        elif is_session_dir(path):
            _scan_session_dir(path, repair=repair, report=report)
        else:
            _scan_server_dir(path, repair=repair, report=report)
    return report
