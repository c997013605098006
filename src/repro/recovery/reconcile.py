"""Cluster anti-entropy reconciler (``repro cluster reconcile``).

Cross-checks what the cluster *says* against what is *on disk*: the
manifest's shard data directories are scanned for actual session
ownership (a directory with ``config.json`` and no ``moved.json`` owns
its session; a ``moved.json`` is a tombstone naming the adopter), and
every divergence from a single-owner, correctly-routed world is
resolved by rolling the three-step migration handshake
(:func:`repro.cluster.rebalance.migrate_session`) forward or back --
deterministically, and with every resolution recorded in the
:class:`~repro.cluster.rebalance.ReallocationLedger` under
``reason="reconcile"`` so that even repair traffic stays
cost-oblivious: the reconciler never weighs what a resolution costs,
it only reports what it moved and lets the analysis layer price it
after the fact.

Decision table (docs/RECOVERY.md):

=====================  ==============================================
observed state         resolution
=====================  ==============================================
session owned by > 1   keep the copy with the highest durable LSN
shards                 (ties: the placement owner, then the first
                       shard by name); ``migrate_seal`` every other
                       copy toward the keeper (``seal_stale``)
tombstone whose        no copy left anywhere: quarantine-free roll
target owns nothing    back -- delete the tombstone so the sealed
                       source resumes authority (``roll_back``)
tombstone pointing     rewrite the tombstone toward the actual owner
at a non-owner while   so MOVED chases terminate
another shard owns     (``retarget_tombstone``)
owner disagrees with   record the override
placement map          (``placement_learn``)
copy (replica or       truncate the copy's journal back to the
fenced ex-primary)     owner's durable LSN -- the suffix was never
ahead of the owner     quorum-acked; quarantine the cut bytes and
                       journal the repair like fsck
                       (``replica_truncate``)
=====================  ==============================================

Everything the reconciler reads at rest it reads through the modules
that write it (:mod:`repro.service.journal`, :mod:`repro.service.image`,
:mod:`repro.service.sessions`) and fsck's ownership scan; run
``repro fsck --repair`` first
after a crash so journal-level damage does not masquerade as missing
ownership.  The periodic in-group sweep is
:meth:`repro.cluster.group.ShardGroup.reconcile`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.group import ShardSpec, load_manifest
from repro.cluster.placement import PLACEMENT_FILE, PlacementMap
from repro.cluster.rebalance import REALLOC_FILE, Migration, ReallocationLedger
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.recovery.fsck import (
    _quarantine_copy,
    _quarantine_rename,
    _truncate,
    _RepairLog,
    scan_ownership,
)
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.image import (
    read_tombstone,
    remove_tombstone,
    session_dirs,
    write_tombstone,
)
from repro.service.journal import (
    durable_lsn,
    fsync_dir,
    scan_segment,
    segment_files,
    snapshot_files,
)
from repro.service.protocol import ServiceError
from repro.service.sessions import data_role

log = get_logger("recovery.reconcile")

#: Resolution kinds (the decision-table rows; docs/RECOVERY.md).
RESOLUTION_KINDS = frozenset(
    {
        "seal_stale",
        "roll_back",
        "retarget_tombstone",
        "placement_learn",
        "replica_truncate",
    }
)


@dataclass(frozen=True)
class Resolution:
    """One applied (or planned, under ``apply=False``) repair."""

    kind: str
    session: str
    shard: str  # the shard acted on
    target: str  # the shard authority ends up on
    detail: str
    applied: bool = False

    def __post_init__(self) -> None:
        if self.kind not in RESOLUTION_KINDS:
            raise ValueError(f"unknown resolution kind {self.kind!r}")

    def to_doc(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "session": self.session,
            "shard": self.shard,
            "target": self.target,
            "detail": self.detail,
            "applied": self.applied,
        }


@dataclass
class ReconcileReport:
    """Outcome of one reconciliation sweep."""

    resolutions: list[Resolution] = field(default_factory=list)
    sessions: int = 0
    errors: list[str] = field(default_factory=list)
    placement_epoch: int = 0

    @property
    def clean(self) -> bool:
        return not self.resolutions and not self.errors

    def to_doc(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "sessions": self.sessions,
            "resolutions": [r.to_doc() for r in self.resolutions],
            "errors": self.errors,
            "placement_epoch": self.placement_epoch,
        }

    def human_lines(self) -> list[str]:
        out = [f"reconcile: {self.sessions} session(s) checked"]
        for r in self.resolutions:
            state = "applied" if r.applied else "planned"
            out.append(
                f"  [{state}] {r.kind} {r.session}: "
                f"{r.shard} -> {r.target} ({r.detail})"
            )
        for e in self.errors:
            out.append(f"  [error] {e}")
        if self.clean:
            out.append("  clean: ownership, tombstones and placement agree")
        return out


class _Shards:
    """Lazy per-shard clients plus the on-disk ownership scan."""

    def __init__(self, specs: list[ShardSpec], timeout: float) -> None:
        self.specs = {s.name: s for s in specs}
        self.timeout = timeout
        self._clients: dict[str, ServiceClient] = {}

    def client(self, name: str) -> ServiceClient:
        cli = self._clients.get(name)
        if cli is None:
            spec = self.specs[name]
            cli = ServiceClient(
                spec.host,
                spec.port,
                timeout=self.timeout,
                retry=RetryPolicy(attempts=3, seed=0),
            )
            self._clients[name] = cli
        return cli

    def session_dir(self, shard: str, sid: str) -> str:
        return os.path.join(self.specs[shard].data, sid)

    def close(self) -> None:
        for cli in self._clients.values():
            cli.close()
        self._clients.clear()


def _measure(shards: _Shards, name: str, sid: str) -> tuple[float, float]:
    """(active jobs, total volume) of a session, attaching it if needed;
    (0, 0) when the shard cannot answer (including a shard that is down,
    so connecting fails) -- the ledger record then prices to zero, which
    only *under*-counts repair traffic."""
    try:
        doc = shards.client(name).query(sid)
        return float(doc.get("active", 0)), float(doc.get("volume", 0.0))
    except (ServiceError, OSError) as e:
        log.warning("reconcile: could not measure session %s: %s", sid, e)
        return 0.0, 0.0


def _truncate_divergent(sdir: str, keep_lsn: int) -> list[str]:
    """Cut everything past ``keep_lsn`` out of a copy's journal.

    The suffix beyond the owner's durable LSN was never quorum-acked,
    so dropping it loses no promised write; the cut bytes are
    quarantined first and every action lands in the session's
    ``fsck.log.jsonl`` -- the same evidence discipline as an fsck
    repair.
    """
    rlog = _RepairLog(sdir)
    actions: list[str] = []
    for lsn, path in snapshot_files(sdir):
        if lsn > keep_lsn:
            actions.append(f"quarantined snapshot at LSN {lsn}")
            _quarantine_rename(
                path, rlog, f"snapshot past quorum-durable LSN {keep_lsn}"
            )
    for _start, path in segment_files(sdir):
        scan = scan_segment(path)
        keep = 0
        for rec in scan.records:
            if rec.lsn > keep_lsn:
                break
            keep += 1
        if keep == len(scan.records):
            continue  # entirely within the durable prefix
        name = os.path.basename(path)
        if keep == 0:
            actions.append(f"quarantined segment {name}")
            _quarantine_rename(
                path, rlog,
                f"segment entirely past quorum-durable LSN {keep_lsn}",
            )
            continue
        actions.append(f"cut segment {name} to {keep} record(s)")
        _quarantine_copy(
            path, rlog,
            f"pre-truncate copy; dropping records past LSN {keep_lsn}",
        )
        _truncate(
            path, scan.cut_at(keep), rlog,
            f"unacked suffix past quorum-durable LSN {keep_lsn}",
        )
    fsync_dir(sdir)
    return actions


def reconcile_cluster(
    root: str,
    *,
    apply: bool = True,
    timeout: float = 10.0,
    registry: Optional[MetricsRegistry] = None,
) -> ReconcileReport:
    """One anti-entropy sweep over the cluster at ``root``.

    With ``apply=False`` the sweep only reports what it would do.
    Applying requires the shards to be up (resolutions go through the
    normal ``migrate_seal`` op where possible); a shard that cannot be
    reached leaves its resolutions planned-but-unapplied plus an entry
    in ``report.errors``, and the next sweep retries.
    """
    report = ReconcileReport()
    specs = load_manifest(root)
    shards = _Shards(specs, timeout)
    # The rendezvous ring is the configured primaries (``of`` unset --
    # a fenced ex-primary stays in it so hashing is stable); replicas
    # and promoted replicas are assignable members only.
    ring = [s.name for s in specs if s.of is None]
    followers = [s.name for s in specs if s.of is not None]

    ppath = os.path.join(root, PLACEMENT_FILE)
    if os.path.isfile(ppath):
        placement = PlacementMap.load(ppath)
        for name in followers:
            placement.add_member(name)
    else:
        placement = PlacementMap(ring or [s.name for s in specs],
                                 members=followers)
    epoch0 = placement.epoch
    ledger = ReallocationLedger(os.path.join(root, REALLOC_FILE))

    owners, tombstones = scan_ownership(specs)
    report.sessions = len(set(owners) | {sid for _, sid, _ in tombstones})

    try:
        # -- 1. double ownership: a crash between migrate_in and ----------
        #    migrate_seal leaves two live copies; keep the most advanced.
        for sid in sorted(owners):
            holders = owners[sid]
            if len(holders) <= 1:
                continue
            lsns = {n: durable_lsn(shards.session_dir(n, sid)) for n in holders}
            routed = placement.owner(sid)
            keeper = sorted(
                holders,
                key=lambda n: (-lsns[n], 0 if n == routed else 1, n),
            )[0]
            for stale in sorted(h for h in holders if h != keeper):
                detail = (
                    f"durable LSN {lsns[stale]} vs keeper "
                    f"{keeper!r} at LSN {lsns[keeper]}"
                )
                applied = False
                if apply:
                    try:
                        shards.client(stale).migrate_seal(sid, keeper)
                        applied = True
                    except (ServiceError, OSError) as e:
                        report.errors.append(
                            f"seal_stale {sid} on {stale}: {e}"
                        )
                report.resolutions.append(
                    Resolution("seal_stale", sid, stale, keeper, detail, applied)
                )
                if applied:
                    active, volume = _measure(shards, keeper, sid)
                    placement.assign(sid, keeper)
                    ledger.append(
                        Migration(session=sid, source=stale, target=keeper,
                                  weight=active),
                        volume=volume,
                        epoch=placement.epoch,
                        reason="reconcile",
                    )
            owners[sid] = [keeper]

        # -- 2. tombstones: dangle (roll back), mis-aim (retarget) --------
        for shard, sid, target in sorted(tombstones):
            holders = owners.get(sid, [])
            if holders:
                own = holders[0]
                if target != own:
                    detail = f"tombstone aimed at {target!r}, owner is {own!r}"
                    applied = False
                    if apply:
                        write_tombstone(shards.session_dir(shard, sid), own)
                        applied = True
                    report.resolutions.append(
                        Resolution("retarget_tombstone", sid, shard, own,
                                   detail, applied)
                    )
                continue
            # Nobody owns the session: adoption never became durable, so
            # the seal promised a copy that does not exist.  Roll back --
            # the tombstoned source still has the full pre-migration
            # state (snapshot + journal) and resumes authority.
            detail = (
                f"tombstone aimed at {target!r} but no shard owns the "
                f"session; restoring source authority"
            )
            applied = False
            if apply:
                remove_tombstone(shards.session_dir(shard, sid))
                applied = True
            report.resolutions.append(
                Resolution("roll_back", sid, shard, shard, detail, applied)
            )
            if applied:
                owners[sid] = [shard]
                active, volume = _measure(shards, shard, sid)
                placement.assign(sid, shard)
                ledger.append(
                    Migration(session=sid, source=target, target=shard,
                              weight=active),
                    volume=volume,
                    epoch=placement.epoch,
                    reason="reconcile",
                )

        # -- 3. placement learning: the map must route to the owner -------
        for sid in sorted(owners):
            holders = owners[sid]
            if len(holders) != 1:
                continue
            own = holders[0]
            if placement.owner(sid) != own:
                detail = f"placement routed {placement.owner(sid)!r}"
                report.resolutions.append(
                    Resolution("placement_learn", sid, own, own, detail, apply)
                )
                if apply:
                    placement.assign(sid, own)

        # -- 4. divergent copies: a replica or fenced ex-primary whose ----
        #    journal runs past the owner's holds writes that were never
        #    quorum-acked; truncate back to the durable prefix.  No
        #    ledger row -- no session moved, only a copy was trimmed.
        for spec in specs:
            if not os.path.isdir(spec.data) or data_role(spec.data) == "primary":
                continue
            for sid, sdir in session_dirs(spec.data):
                if read_tombstone(sdir) is not None:
                    continue
                holders = owners.get(sid, [])
                if len(holders) != 1:
                    continue
                own = holders[0]
                copy_lsn = durable_lsn(sdir)
                own_lsn = durable_lsn(shards.session_dir(own, sid))
                if copy_lsn <= own_lsn:
                    continue
                detail = (
                    f"copy at LSN {copy_lsn} past owner {own!r} at "
                    f"LSN {own_lsn}"
                )
                applied = False
                if apply:
                    acts = _truncate_divergent(sdir, own_lsn)
                    applied = True
                    if acts:
                        detail += "; " + "; ".join(acts)
                report.resolutions.append(
                    Resolution("replica_truncate", sid, spec.name, own,
                               detail, applied)
                )
    finally:
        shards.close()

    if apply and placement.epoch != epoch0:
        placement.save(ppath)
    report.placement_epoch = placement.epoch

    if registry is not None:
        registry.inc_all(
            {
                "cluster.reconcile.runs": 1,
                "cluster.reconcile.resolutions": len(report.resolutions),
            }
        )
    if report.resolutions or report.errors:
        log.info(
            "reconcile %s: %d resolution(s), %d error(s)",
            root, len(report.resolutions), len(report.errors),
        )
    return report
