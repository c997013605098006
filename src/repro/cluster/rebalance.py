"""Cost-oblivious rebalancing, the reallocation ledger, live migration.

The rebalance policy sees one thing only: per-shard load (a weight per
session -- ops served, active jobs, whatever the caller measures).  It
never inspects what a move would *cost*; it emits the moves it wants to
the :class:`ReallocationLedger`, and the analysis layer prices them
after the fact against any cost function -- the same discipline
:class:`repro.core.events.Ledger` applies to job reallocations inside
one scheduler.  That is the paper's contract lifted one level up:
placement decisions under churn, oblivious to per-move cost, with exact
accounting available afterwards.

:func:`migrate_session` is the driver for one live move.  It is safe
under crash at any point (docs/CLUSTER.md):

1. ``migrate_out`` on the source: checkpoint (scheduler snapshot *with*
   ledger totals plus the idempotency-dedup sidecar), close the
   journal, freeze the session.  Crash here: the freeze expires and the
   source resumes authority; nothing moved.
2. ``migrate_in`` on the target: restore the snapshot, persist it into
   a fresh journal, install the dedup window *before* acking.  Crash
   here: the source still holds everything; the target's unsealed copy
   is superseded on retry or abandoned.
3. ``migrate_seal`` on the source: durable tombstone; later ops there
   answer ``MOVED`` with the target shard, which redirect-following
   clients chase.  Crash between 2 and 3: both copies exist, the
   placement map already routes to the target, and the seal retries.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro import faults
from repro.obs.logsetup import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.service.client import ServiceClient
from repro.service.journal import LineScan, scan_lines

log = get_logger("cluster")

REALLOC_FILE = "reallocations.jsonl"


@dataclass(frozen=True)
class Migration:
    """One planned session move (no cost attached -- by design)."""

    session: str
    source: str
    target: str
    #: The load weight the policy balanced on (not a cost).
    weight: float


def plan_rebalance(
    loads: Mapping[str, Mapping[str, float]],
    *,
    tolerance: float = 0.25,
    max_moves: Optional[int] = None,
) -> list[Migration]:
    """Plan moves that even out per-shard load; cost-oblivious.

    ``loads`` maps shard -> {session: weight}.  Deterministic greedy:
    while the most-loaded shard exceeds ``(1 + tolerance)`` times the
    mean, move one of its sessions to the least-loaded shard -- the
    largest session that does not overshoot the midpoint, else the
    smallest one, and only if the move strictly shrinks the pair's
    maximum.  The policy never sees migration costs; it reports what it
    wants moved and the ledger prices it later.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if not loads:
        return []
    weights: dict[str, dict[str, float]] = {
        shard: dict(sess) for shard, sess in loads.items()
    }
    totals: dict[str, float] = {
        shard: sum(sess.values()) for shard, sess in weights.items()
    }
    mean = sum(totals.values()) / len(totals)
    ceiling = mean * (1.0 + tolerance)
    moves: list[Migration] = []
    while max_moves is None or len(moves) < max_moves:
        # Ties break on shard name so plans are reproducible.
        donor = max(sorted(totals), key=lambda s: totals[s])
        recipient = min(sorted(totals), key=lambda s: totals[s])
        if donor == recipient or totals[donor] <= ceiling:
            break
        gap = totals[donor] - totals[recipient]
        fitting = [
            (w, sid)
            for sid, w in weights[donor].items()
            if 0 < w <= gap / 2.0
        ]
        if fitting:
            weight, sid = max(fitting)
        else:
            positive = [(w, sid) for sid, w in weights[donor].items() if w > 0]
            if not positive:
                break
            weight, sid = min(positive)
        if max(totals[donor] - weight, totals[recipient] + weight) >= totals[donor]:
            break  # no strictly improving move left
        del weights[donor][sid]
        weights[recipient][sid] = weight
        totals[donor] -= weight
        totals[recipient] += weight
        moves.append(
            Migration(session=sid, source=donor, target=recipient, weight=weight)
        )
    return moves


def _ledger_row(text: str) -> Optional[dict[str, Any]]:
    """One ledger line: a JSON object, else None."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


class ReallocationLedger:
    """Append-only JSONL record of cluster session moves.

    Each record carries the moved session's *volume* (total job volume
    at handoff) but no price: pricing is strictly after the fact via
    :meth:`price`, mirroring ``repro.core.events.Ledger`` -- the policy
    that emitted the move never saw a cost function.  The file is read
    by the journal's line rule (:func:`repro.service.journal.scan_lines`):
    a torn final row, which a crash mid-append leaves, is dropped; an
    unparsable row with rows after it is damage for ``repro fsck``.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def append(
        self,
        migration: Migration,
        *,
        volume: float,
        epoch: int,
        reason: str = "rebalance",
    ) -> dict[str, Any]:
        record: dict[str, Any] = {
            "kind": "migrate",
            "session": migration.session,
            "from": migration.source,
            "to": migration.target,
            "weight": migration.weight,
            "volume": volume,
            "epoch": epoch,
            "reason": reason,
        }
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._end_line()
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return record

    def _end_line(self) -> None:
        """Make the next row start a line.  A ledger that does not end
        in a newline was cut mid-append: a torn last row is cut off (as
        ``repro fsck --repair`` would), a whole one gets its newline."""
        try:
            with open(self.path, "rb") as fh:
                size = fh.seek(0, os.SEEK_END)
                fh.seek(max(size - 1, 0))
                if size == 0 or fh.read(1) == b"\n":
                    return
        except FileNotFoundError:
            return
        scan = self.scan()
        if scan.bad_at is None:
            with open(self.path, "ab") as fh:
                fh.write(b"\n")
        elif not scan.trailing:
            log.warning("ledger %s: cut torn row at line %d", self.path, scan.bad_lineno)
            os.truncate(self.path, scan.bad_at)

    def scan(self) -> LineScan[dict[str, Any]]:
        """The rows by the line rule, with any damage left for the
        caller (fsck) to classify."""
        return scan_lines(self.path, _ledger_row)

    def read(self) -> list[dict[str, Any]]:
        """Every row.  A torn final row is dropped and logged; an
        unparsable row followed by more rows raises ``ValueError``."""
        if not os.path.exists(self.path):
            return []
        scan = self.scan()
        if scan.bad_at is not None:
            if scan.trailing:
                raise ValueError(
                    f"{self.path}:{scan.bad_lineno}: unparsable ledger row "
                    f"followed by more data (run repro fsck)"
                )
            log.warning(
                "ledger %s: dropped torn row at line %d", self.path, scan.bad_lineno
            )
        return scan.records

    @staticmethod
    def price(
        records: list[dict[str, Any]], f: Callable[[float], float]
    ) -> float:
        """Total cost of the recorded moves under cost function ``f``.

        Called by analysis *after* the run -- the only place a cost
        function ever meets the migration stream.
        """
        return sum(f(float(r.get("volume", 0.0))) for r in records)

    def summary(self) -> dict[str, Any]:
        records = self.read()
        return {
            "migrations": len(records),
            "volume": sum(float(r.get("volume", 0.0)) for r in records),
        }


def migrate_session(
    source: ServiceClient,
    target: ServiceClient,
    session: str,
    *,
    target_name: str,
    source_name: str = "",
    registry: Optional[MetricsRegistry] = None,
    ledger: Optional[ReallocationLedger] = None,
    epoch: int = 0,
    reason: str = "rebalance",
) -> dict[str, Any]:
    """Drive one live migration through the three-step handshake.

    Raises on failure; every step is retry-safe (see module docstring),
    so the caller may simply call again.  The ``cluster.migrate.handoff``
    failpoint fires between the freeze and the adoption -- the window a
    chaos suite most wants to crash in.
    """
    t0 = time.perf_counter()
    out = source.migrate_out(session)
    plan = faults.ACTIVE
    if plan is not None:
        plan.hit("cluster.migrate.handoff")
    target.migrate_in(session, out["snapshot"], config=out.get("config"))
    source.migrate_seal(session, target_name)
    seconds = time.perf_counter() - t0
    volume = float(out.get("volume", 0.0))
    if ledger is not None:
        ledger.append(
            Migration(
                session=session,
                source=source_name,
                target=target_name,
                weight=float(out.get("active", 0)),
            ),
            volume=volume,
            epoch=epoch,
            reason=reason,
        )
    if registry is not None:
        registry.inc_all({"cluster.migrations": 1})
        registry.histogram("cluster.migrate.seconds").observe(seconds)
    log.info(
        "migrated session %s -> %s (%d active, volume %s, %.3fs)",
        session, target_name, out.get("active", 0), volume, seconds,
    )
    return {
        "session": session,
        "target": target_name,
        "active": out.get("active", 0),
        "volume": volume,
        "seconds": seconds,
    }
