"""Disaster recovery: offline fsck plus cluster anti-entropy.

Two complementary halves (docs/RECOVERY.md):

* :mod:`repro.recovery.fsck` -- ``repro fsck [--repair]``: scans
  journal directories and cluster state *at rest*, classifies every
  contract violation into typed findings, and (under ``--repair``)
  applies idempotent, journaled repairs that roll each directory back
  to its longest cleanly-recoverable prefix.
* :mod:`repro.recovery.reconcile` -- ``repro cluster reconcile``: the
  *live* half; resolves half-completed migration handshakes by rolling
  them deterministically forward or back, teaches the placement map
  where sessions actually live, and records every resolution in the
  reallocation ledger so repair traffic is priced after the fact like
  any other reallocation (the cost-oblivious contract).

Layering: this package sits above ``service`` and ``cluster`` (it may
import both); ``cluster`` reaches back only through lazy function-scope
imports (:meth:`repro.cluster.group.ShardGroup.reconcile`).
"""

from __future__ import annotations

from repro.recovery.fsck import (
    FINDING_KINDS,
    FSCK_LOG,
    QUARANTINE_SUFFIX,
    RECONCILER_KINDS,
    Finding,
    FsckReport,
    run_fsck,
)
from repro.recovery.reconcile import (
    RESOLUTION_KINDS,
    ReconcileReport,
    Resolution,
    reconcile_cluster,
)
from repro.service.image import read_tombstone
from repro.service.journal import durable_lsn as session_last_lsn

__all__ = [
    "FINDING_KINDS",
    "FSCK_LOG",
    "Finding",
    "FsckReport",
    "QUARANTINE_SUFFIX",
    "RECONCILER_KINDS",
    "RESOLUTION_KINDS",
    "ReconcileReport",
    "Resolution",
    "read_tombstone",
    "reconcile_cluster",
    "run_fsck",
    "session_last_lsn",
]
