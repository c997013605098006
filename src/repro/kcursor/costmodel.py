"""Explicit machine-model cost accounting for the k-cursor table.

The paper states every bound in units of *array slots scanned or moved*
(the only physical work a sparse table does).  We therefore count exactly
that, per operation and cumulatively, instead of relying on wall-clock
time: the asymptotic claims (Theorems 18/19) are about this measure.

Conventions (matching Section 4's cost arguments / Lemma 17):

* sliding a region of ``s`` occupied-or-gap slots by any offset costs ``s``
  *moves* (a slot's content is relocated once per rebuild regardless of
  distance -- a memmove touches each slot once);
* consuming the leftmost ``t`` gaps embedded in a right sibling slides the
  sibling's prefix up to the ``t``-th gap: costs the prefix length;
* reassigning/tagging freshly taken empty slots costs one *scan* per slot
  (no data moves, but the algorithm walks them);
* the root taking slots from the infinite free tail is free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(slots=True)
class RebuildRecord:
    """One chunk rebuild inside an operation's cascade."""

    level: int
    grow: bool  # True = insertion-direction, False = deletion-direction
    space_delta: int  # Y: slots taken from (grow) or returned to (shrink) the parent
    slots_moved: int
    gaps_consumed: int = 0
    gaps_created: int = 0
    gaps_returned: int = 0


@dataclass(slots=True)
class OpStats:
    """Per-operation statistics (reset at the start of each insert/delete)."""

    kind: str = ""  # "insert" | "delete"
    district: int = -1
    slots_moved: int = 0
    slots_scanned: int = 0
    rebuilds: list[RebuildRecord] = field(default_factory=list)

    @property
    def cost(self) -> int:
        """Total work in the machine model: moves + scans."""
        return self.slots_moved + self.slots_scanned

    @property
    def cascade_depth(self) -> int:
        return len({r.level for r in self.rebuilds})

    @property
    def gaps_consumed(self) -> int:
        return sum(r.gaps_consumed for r in self.rebuilds)

    @property
    def gaps_created(self) -> int:
        return sum(r.gaps_created for r in self.rebuilds)


@dataclass
class CostCounter:
    """Cumulative counters across the lifetime of a table."""

    ops: int = 0
    inserts: int = 0
    deletes: int = 0
    slots_moved: int = 0
    slots_scanned: int = 0
    rebuilds: int = 0
    rebuilds_by_level: dict[int, int] = field(default_factory=dict)
    gaps_consumed: int = 0
    gaps_created: int = 0

    @property
    def total_cost(self) -> int:
        return self.slots_moved + self.slots_scanned

    @property
    def amortized_cost(self) -> float:
        """Average machine-model work per insert/delete so far."""
        return self.total_cost / self.ops if self.ops else 0.0

    def absorb(self, op: OpStats, units: int = 1) -> None:
        """Fold one operation in; ``units`` > 1 for batched element ops."""
        self.ops += units
        if op.kind == "insert":
            self.inserts += units
        elif op.kind == "delete":
            self.deletes += units
        self.slots_moved += op.slots_moved
        self.slots_scanned += op.slots_scanned
        rebuilds = op.rebuilds
        if rebuilds:
            self.rebuilds += len(rebuilds)
            by_level = self.rebuilds_by_level
            for r in rebuilds:
                by_level[r.level] = by_level.get(r.level, 0) + 1
                self.gaps_consumed += r.gaps_consumed
                self.gaps_created += r.gaps_created

    def snapshot(self) -> dict[str, Any]:
        return {
            "ops": self.ops,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "slots_moved": self.slots_moved,
            "slots_scanned": self.slots_scanned,
            "total_cost": self.total_cost,
            "amortized_cost": self.amortized_cost,
            "rebuilds": self.rebuilds,
            "rebuilds_by_level": dict(self.rebuilds_by_level),
            "gaps_consumed": self.gaps_consumed,
            "gaps_created": self.gaps_created,
        }
