"""Cost-oblivious reallocation accounting.

A reallocating scheduler is ``(f, a, b)``-competitive when the reallocation
cost is at most ``b`` times the sum of allocation costs of every job ever
inserted.  Crucially, the paper's algorithm is *cost oblivious*: it never
inspects ``f``.  We enforce that architecturally -- schedulers emit
:class:`Reallocation` records (which job moved, its size, whether it
changed servers) into a :class:`Ledger`; pricing under any cost function
happens strictly after the fact (:meth:`Ledger.reallocation_cost` etc.),
typically in :mod:`repro.analysis`.

Per the paper's definition, a request's reallocation cost counts each job
whose scheduling changed *once*, so the ledger deduplicates moves within a
single operation (:meth:`Ledger.commit`, the one place that rule lives).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Hashable, Iterable, NamedTuple, Optional, Protocol


class ReallocKind(enum.Enum):
    PLACE = "place"  # initial allocation of an inserted job
    MOVE = "move"  # nonmigrating reallocation (same server, new slot)
    MIGRATE = "migrate"  # migrating reallocation (server changed)
    REMOVE = "remove"  # job left the system (no cost; bookkeeping)


# Read per event on the hot path: a global is far cheaper to read than an
# Enum member, whose lookup goes through the Enum metaclass.
_MOVE = ReallocKind.MOVE
_MIGRATE = ReallocKind.MIGRATE


class Reallocation(NamedTuple):
    """One ledger event: a job, its size and what happened to it."""

    name: Hashable
    size: int
    kind: ReallocKind


@dataclass(slots=True)
class OpReport:
    """All (re)allocations triggered by one insert/delete request.

    ``events`` lists them as they were recorded.  :meth:`Ledger.commit`
    counts them the paper's way into ``moved`` (each job whose schedule
    changed, once, with its size) and ``migrated`` (those of them that
    changed servers); observers and analyses read those two.
    """

    kind: str  # "insert" | "delete"
    name: Hashable
    size: int
    events: list[Reallocation] = field(default_factory=list)
    moved: dict[Hashable, int] = field(default_factory=dict)
    migrated: AbstractSet[Hashable] = frozenset()


class LedgerObserverProto(Protocol):
    """Structural contract for ledger observers (RL001/RL002: the hot
    layer never imports ``repro.obs``; ``repro.obs.instrument.
    LedgerObserver`` satisfies this protocol implicitly)."""

    def op_begin(self, op: OpReport) -> None: ...

    def op_commit(self, op: OpReport) -> None: ...

    def op_abort(self, op: OpReport) -> None: ...


class Ledger:
    """Streaming aggregation of allocation/reallocation events.

    Holds only histograms (size -> count), so pricing an arbitrary cost
    function afterwards is O(#distinct sizes), plus the last committed
    report (:attr:`last`).  Optionally keeps the full per-op report list
    for fine-grained series (enabled by default, cheap for the trace
    lengths we use; long-lived service schedulers turn it off, see
    :func:`repro.service.image.build_scheduler`).
    """

    def __init__(self, keep_reports: bool = True) -> None:
        self.alloc_hist: dict[int, int] = {}
        self.realloc_hist: dict[int, int] = {}
        self.migrate_hist: dict[int, int] = {}
        self.ops = 0
        self.inserts = 0
        self.deletes = 0
        self.total_migrations = 0
        self.reports: Optional[list[OpReport]] = [] if keep_reports else None
        #: The most recently committed report, kept with or without the series.
        self.last: Optional[OpReport] = None
        self._open: Optional[OpReport] = None
        # Optional obs hook (repro.obs.instrument.LedgerObserver); None =
        # uninstrumented, costing one attribute test per request.
        self.observer: Optional[LedgerObserverProto] = None

    # -- recording (called by schedulers) --------------------------------

    def begin(self, kind: str, name: Hashable, size: int) -> OpReport:
        if self._open is not None:
            raise RuntimeError("previous operation not committed")
        self._open = OpReport(kind=kind, name=name, size=size)
        if self.observer is not None:
            self.observer.op_begin(self._open)
        return self._open

    def record(self, name: Hashable, size: int, kind: ReallocKind) -> None:
        if self._open is None:
            raise RuntimeError("no open operation")
        self._open.events.append(Reallocation(name, size, kind))

    def adopt(self, events: Iterable[Reallocation]) -> None:
        """Append events another ledger already recorded (a child
        scheduler's, :class:`repro.core.parallel.ParallelScheduler`) to
        the open operation, as they are."""
        if self._open is None:
            raise RuntimeError("no open operation")
        self._open.events.extend(events)

    def commit(self) -> OpReport:
        op = self._open
        if op is None:
            raise RuntimeError("no open operation")
        self._open = None
        self.ops += 1
        if op.kind == "insert":
            self.inserts += 1
            self.alloc_hist[op.size] = self.alloc_hist.get(op.size, 0) + 1
        else:
            self.deletes += 1
        # The paper's counting rule, in one pass: a job whose schedule
        # changed counts once per request (insertion order is its first
        # event's, the size its last one's), and a migration outranks a
        # plain move.  The migrate histogram counts every MIGRATE event.
        moved = op.moved
        migrated: Optional[set[Hashable]] = None
        for name, size, kind in op.events:
            if kind is _MOVE:
                moved[name] = size
            elif kind is _MIGRATE:
                moved[name] = size
                if migrated is None:
                    migrated = set()
                migrated.add(name)
                self.migrate_hist[size] = self.migrate_hist.get(size, 0) + 1
        if moved:
            hist = self.realloc_hist
            for w in moved.values():
                hist[w] = hist.get(w, 0) + 1
        if migrated is not None:
            op.migrated = migrated
            self.total_migrations += len(migrated)
        self.last = op
        if self.reports is not None:
            self.reports.append(op)
        if self.observer is not None:
            self.observer.op_commit(op)
        return op

    def abort(self) -> None:
        op = self._open
        self._open = None
        if op is not None and self.observer is not None:
            self.observer.op_abort(op)

    # -- pricing (called by analysis; f never reaches the scheduler) -----

    def allocation_cost(self, f: Callable[[int], float]) -> float:
        return sum(f(w) * c for w, c in self.alloc_hist.items())

    def reallocation_cost(self, f: Callable[[int], float]) -> float:
        return sum(f(w) * c for w, c in self.realloc_hist.items())

    def competitiveness(self, f: Callable[[int], float]) -> float:
        """The paper's ``b``: reallocation cost / total allocation cost."""
        alloc = self.allocation_cost(f)
        return self.reallocation_cost(f) / alloc if alloc > 0 else 0.0

    def reallocation_series(self, f: Callable[[int], float]) -> list[float]:
        """Per-operation reallocation cost (requires keep_reports=True)."""
        if self.reports is None:
            raise RuntimeError("ledger was built with keep_reports=False")
        return [sum(f(w) for w in op.moved.values()) for op in self.reports]

    def moved_jobs_total(self) -> int:
        return sum(self.realloc_hist.values())

    def summary(self) -> dict[str, int]:
        return {
            "ops": self.ops,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "jobs_moved": self.moved_jobs_total(),
            "migrations": self.total_migrations,
        }


def merge_histograms(parts: Iterable[dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for h in parts:
        for w, c in h.items():
            out[w] = out.get(w, 0) + c
    return out
