"""The single-server cost-oblivious reallocating scheduler (Section 2).

Implements Theorem 1: for constant ``0 < epsilon <= 1``, a
``(1 + epsilon, O((1/eps^5) log^3 log Delta))``-competitive reallocating
scheduler for ``1 | f(w) realloc | sum C_j`` over all subadditive cost
functions (``O(1/eps^3)`` over strongly subadditive ones), *without ever
looking at f*.

Operation per request (insertion; deletions mirror it):

1. update the class volume ``V(j)`` and sync district ``j`` of the
   k-cursor table to ``floor(V(j)(1+delta))`` elements; the table reports
   which districts its rebuild cascade can have moved (``j`` through the
   subtree the cascade reached, docs/INTERNALS.md section 4);
2. read those classes' (possibly moved) boundaries -- *no jobs moved yet*;
3. collect jobs now overlapping lost slots (outside their class's new
   segment), largest class first;
4. re-place each within its own segment (Claim 2's procedure,
   :mod:`repro.core.placement`);
5. place the new job.

The ledger records which jobs moved; costs are priced later (cost
obliviousness is structural, see :mod:`repro.core.events`).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence

from repro.core.events import Ledger, Reallocation, ReallocKind
from repro.core.jobs import Job, PlacedJob, SizeClasser
from repro.core.placement import ClassLayout
from repro.core.segments import SegmentManager


class SingleServerScheduler:
    """Cost-oblivious reallocating scheduler for one server.

    Parameters
    ----------
    max_job_size:
        the paper's ``Delta`` (largest job length ever inserted).  With
        ``dynamic=True`` the scheduler instead grows its class table on
        demand (the paper's "creating more cursors" extension).
    epsilon:
        approximation target: the maintained sum of completion times stays
        within ``1 + epsilon`` of optimal.  Internally ``delta =
        epsilon/17`` (Lemma 4 proves a ``1 + 17*delta`` ratio).
    delta:
        set the class-width parameter directly (overrides ``epsilon``).
    server:
        server id stamped on placements (used by the parallel scheduler).
    """

    def __init__(
        self,
        max_job_size: int,
        *,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        dynamic: bool = False,
        server: int = 0,
        ledger: Optional[Ledger] = None,
        tau_factor: Optional[int] = None,
        padding_enabled: bool = True,
        _segments: Optional[SegmentManager] = None,
    ) -> None:
        if delta is None:
            eps = 0.5 if epsilon is None else epsilon
            if not (0.0 < eps <= 1.0):
                raise ValueError("epsilon must be in (0, 1]")
            delta = max(min(eps / 17.0, 1.0), 1e-3)
        if not (0.0 < delta <= 1.0):
            raise ValueError("delta must be in (0, 1]")
        self.delta = delta
        self.server = server
        self.dynamic = dynamic
        self.classer = SizeClasser(delta, max_job_size)
        k = self.classer.num_classes
        # A snapshot restore hands over segments it built from its own
        # chunk states (repro.core.snapshot), so no tree is built twice.
        self.segments = _segments if _segments is not None else SegmentManager(
            k,
            delta,
            tau_mode="local" if dynamic else "global",
            tau_factor=tau_factor,
        )
        self.padding_enabled = padding_enabled
        self.layouts: list[ClassLayout] = [
            ClassLayout(j, self.classer.min_size(j), delta, padding_enabled=padding_enabled)
            for j in range(k)
        ]
        self.ledger = ledger if ledger is not None else Ledger()
        self._jobs: dict[Hashable, PlacedJob] = {}
        # Classes that may hold a job outside their segment after the last
        # request.  A repair can leave one there: Claim 2's compaction
        # treats an evicted job that is not re-placed yet as a member and
        # stretches the region over it, past the segment's edge.  Every
        # request on a class at or below such a class repairs it again, as
        # when every class from j up was checked on each request.
        self._outside: set[int] = set()

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, name: Hashable) -> bool:
        return name in self._jobs

    @property
    def num_classes(self) -> int:
        return len(self.layouts)

    def jobs(self) -> list[PlacedJob]:
        return sorted(self._jobs.values(), key=lambda pj: pj.start)

    def placement(self, name: Hashable) -> PlacedJob:
        return self._jobs[name]

    def sum_completion_times(self) -> int:
        """Objective value of the current schedule: sum of job end slots."""
        return sum(pj.completion for pj in self._jobs.values())

    def total_volume(self) -> int:
        return sum(l.volume for l in self.layouts)

    def makespan(self) -> int:
        return max((pj.end for pj in self._jobs.values()), default=0)

    # ------------------------------------------------------------------
    # Requests

    def insert(self, name: Hashable, size: int) -> PlacedJob:
        """<INSERTJOB, name, length>: add a job and repair the schedule."""
        if name in self._jobs:
            raise KeyError(f"job {name!r} already active")
        if self.dynamic and size > self.classer.max_size:
            self._grow_for(size)
        job = Job(name, size)
        j = self.classer.class_of(size)
        events = self.ledger.begin("insert", name, size).events
        try:
            moved = self.segments.apply_volume_change(j, size)
            # Only the classes the segment manager reports as moved, and
            # any left holding a job outside their segment, can have lost
            # slots; repair them largest first.
            seg = self._repair(self._to_repair(moved, j)[::-1], j, events)
            placed = self._place(job, j, seg, events)
            events.append(Reallocation(name, size, ReallocKind.PLACE))
            self._jobs[name] = placed
        except BaseException:
            self.ledger.abort()
            raise
        self.ledger.commit()
        return placed

    def bulk_load(self, jobs: Iterable[tuple[Hashable, int]]) -> None:
        """Load an initial job set efficiently.

        Inserting in ascending size order fills classes left to right, so
        each insertion's boundary movement affects only empty classes to
        the right -- the cheapest possible build (one pass, no repairs of
        already-placed larger jobs).
        """
        for name, size in sorted(jobs, key=lambda item: item[1]):
            self.insert(name, size)

    def delete(self, name: Hashable) -> Job:
        """<DELETEJOB, name>: remove a job and repair the schedule."""
        placed = self._jobs.pop(name, None)
        if placed is None:
            raise KeyError(f"job {name!r} not active")
        j = placed.klass
        events = self.ledger.begin("delete", name, placed.size).events
        try:
            self.layouts[j].remove(placed)
            events.append(Reallocation(name, placed.size, ReallocKind.REMOVE))
            moved = self.segments.apply_volume_change(j, -placed.size)
            # Deletions repair from the smallest affected class upward.
            self._repair(self._to_repair(moved, j), j, events)
        except BaseException:
            self.ledger.abort()
            raise
        self.ledger.commit()
        return placed.job

    # ------------------------------------------------------------------
    # Internals

    def _to_repair(self, moved: range, j: int) -> Sequence[int]:
        """Classes a request on class ``j`` must check, smallest first:
        those whose segment moved, and any class from ``j`` up that may
        still hold a job outside its segment."""
        if not self._outside:
            return moved
        return sorted(set(moved).union(c for c in self._outside if c >= j))

    def _repair(
        self, order: Sequence[int], j: int, events: list[Reallocation]
    ) -> Optional[tuple[int, int]]:
        """Re-place every job overlapping lost slots of its class, visiting
        the classes in ``order`` and recording moves into ``events``.

        A class whose segment did not move and that held no job outside it
        cannot have lost slots, so the caller passes only the others
        (:meth:`_to_repair`).  Their extents come from one table walk.  A
        class's jobs are disjoint and sorted, so they all lie inside its
        segment when the first starts and the last ends inside it; only
        otherwise is the class searched for the jobs outside.  Returns
        class ``j``'s segment if it was read on the way (for :meth:`_place`).
        """
        seg_j = None
        layouts = self.layouts
        outside = self._outside
        # Empty classes have nothing to repair, so their extents are not
        # read; class j's is, for the job about to be placed there.
        order = [jj for jj in order if layouts[jj]._jobs or jj == j]
        for jj, seg in zip(order, self.segments.extents(order)):
            if jj == j:
                seg_j = seg
            layout = layouts[jj]
            jobs = layout._jobs
            if not jobs:
                if outside:
                    outside.discard(jj)
                continue
            last = jobs[-1]
            if jobs[0].start >= seg[0] and last.start + last.size <= seg[1]:
                if outside:
                    outside.discard(jj)
                continue
            for pj in layout.evicted(seg):
                layout.remove(pj)
                self._jobs[pj.name] = layout.place(pj.job, seg, events, self.server)
                events.append(Reallocation(pj.name, pj.size, ReallocKind.MOVE))
            if layout.evicted(seg):
                outside.add(jj)
            elif outside:
                outside.discard(jj)
        return seg_j

    def _place(
        self, job: Job, j: int, seg: Optional[tuple[int, int]], events: list[Reallocation]
    ) -> PlacedJob:
        if seg is None:
            seg = self.segments.extent(j)
        layout = self.layouts[j]
        placed = layout.place(job, seg, events, self.server)
        # Placing into a class whose jobs all lie in its segment keeps them
        # there; only a class a repair left outside needs another look.
        if j in self._outside and not layout.evicted(seg):
            self._outside.discard(j)
        return placed

    def _find_outside(self) -> None:
        """Recompute :attr:`_outside` from scratch (after a restore)."""
        self._outside = {
            j
            for j, (layout, seg) in enumerate(zip(self.layouts, self.segments.extents()))
            if len(layout) and layout.evicted(seg)
        }

    def _grow_for(self, size: int) -> None:
        self.classer.grow(size)
        k = self.classer.num_classes
        self.segments.grow_classes(k)
        while len(self.layouts) < k:
            j = len(self.layouts)
            self.layouts.append(
                ClassLayout(
                    j,
                    self.classer.min_size(j),
                    self.delta,
                    padding_enabled=self.padding_enabled,
                )
            )

    # ------------------------------------------------------------------
    # Validation (tests / harness)

    def check_schedule(self) -> None:
        """Full self-check: Property 1, job containment, disjointness."""
        self.segments.check_property1()
        for j, layout in enumerate(self.layouts):
            seg = self.segments.extent(j)
            layout.check_disjoint(seg)
            vol = sum(pj.size for pj in layout)
            if vol != layout.volume or vol != self.segments.volumes[j]:
                raise AssertionError(f"class {j}: volume bookkeeping mismatch")
            for pj in layout:
                if self.classer.class_of(pj.size) != j:
                    raise AssertionError(f"job {pj.name} in wrong class {j}")
