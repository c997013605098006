"""Per-size-class job placement (Section 2, Claim 2).

Each size class owns a contiguous *segment* of the schedule array (its
k-cursor district's extent).  Jobs of the class live at absolute positions
inside that segment, in arbitrary order.  (Re)placing a job must disturb
only ``O(1/delta)`` other jobs; the paper's three-case procedure achieves
this:

* ``V(j) < 2/delta`` -- trivially few jobs: rearrange them all (the
  boundary padding ``floor(w~ * delta / 4)`` is 0 here);
* ``V(j) <= 5w/delta`` -- compact the whole class into the non-boundary
  region;
* ``V(j) > 5w/delta`` -- partition the non-boundary region into
  subintervals of length in ``[5w/delta, 10w/delta)``; by averaging, some
  subinterval has at least ``w`` free space; rearrange only the (at most
  ``O(1/delta)``) jobs inside it.

The *boundary padding* -- never placing a job within the first or last
``floor(w~ * delta / 4)`` slots of the segment, where ``w~`` is the class's
minimum job size -- guarantees that a boundary must move by
``Omega(delta * w~)`` slots before any job is forced to move, which is the
hinge of the reallocation-cost amortization (Lemma 3).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional

from repro.core.events import Reallocation, ReallocKind
from repro.core.jobs import Job, PlacedJob

_MOVE = ReallocKind.MOVE  # read per moved job (see repro.core.events)


class ClassLayout:
    """Jobs of one size class, kept sorted by start position."""

    def __init__(self, klass: int, min_size: int, delta: float, *,
                 padding_enabled: bool = True) -> None:
        self.klass = klass
        self.min_size = min_size  # the paper's w-tilde for this class
        self.delta = delta
        # Ablation switch: False disables boundary padding, so any boundary
        # movement immediately evicts edge jobs (bench_ablation.py).
        self.padding_enabled = padding_enabled
        self.volume = 0  # V(j): total length of jobs in the class
        self._starts: list[int] = []  # parallel sorted keys
        self._jobs: list[PlacedJob] = []
        self._scan_hint = 0  # case-3 subinterval to try first (any is valid)

    # ------------------------------------------------------------------
    # Basic container operations

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[PlacedJob]:
        return iter(self._jobs)

    @property
    def padding(self) -> int:
        """Boundary padding width ``floor(w~ * delta / 4)``."""
        if not self.padding_enabled:
            return 0
        return int(self.min_size * self.delta / 4.0)

    def add(self, pj: PlacedJob) -> None:
        i = bisect_right(self._starts, pj.start)
        self._starts.insert(i, pj.start)
        self._jobs.insert(i, pj)
        self.volume += pj.size

    def remove(self, pj: PlacedJob) -> None:
        i = bisect_left(self._starts, pj.start)
        while i < len(self._jobs) and self._jobs[i] is not pj:
            i += 1
        if i >= len(self._jobs):
            raise KeyError(f"job {pj.name} not in class {self.klass}")
        self._starts.pop(i)
        self._jobs.pop(i)
        self.volume -= pj.size

    def _reindex(self) -> None:
        order = sorted(range(len(self._jobs)), key=lambda i: self._jobs[i].start)
        self._jobs = [self._jobs[i] for i in order]
        self._starts = [pj.start for pj in self._jobs]

    # ------------------------------------------------------------------
    # Queries

    def evicted(self, seg: tuple[int, int]) -> list[PlacedJob]:
        """Jobs no longer fully inside the segment ``[lo, hi)``.

        Jobs are disjoint and sorted, so the evicted set is a prefix
        (start < lo) plus a suffix (end > hi).
        """
        lo, hi = seg
        jobs = self._jobs
        n = len(jobs)
        out: list[PlacedJob] = []
        i = 0
        while i < n and jobs[i].start < lo:
            out.append(jobs[i])
            i += 1
        j = n - 1
        tail: list[PlacedJob] = []
        while j >= i and jobs[j].start + jobs[j].size > hi:
            tail.append(jobs[j])
            j -= 1
        out.extend(tail)
        return out

    def _overlapping_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Index range [i0, i1) of jobs intersecting ``[lo, hi)`` (jobs are
        disjoint and sorted, so overlappers are contiguous)."""
        starts = self._starts
        i = bisect_left(starts, lo)
        if i > 0:
            prev = self._jobs[i - 1]
            if prev.start + prev.size > lo:
                i -= 1
        return i, bisect_left(starts, hi, i)

    def overlapping(self, lo: int, hi: int) -> list[PlacedJob]:
        """Jobs intersecting ``[lo, hi)`` (bisected; jobs are disjoint)."""
        i, j = self._overlapping_range(lo, hi)
        return self._jobs[i:j]

    def occupied_in(self, lo: int, hi: int) -> int:
        """Total job volume overlapping ``[lo, hi)``."""
        i, j = self._overlapping_range(lo, hi)
        jobs = self._jobs
        total = 0
        for k in range(i, j):
            pj = jobs[k]
            start = pj.start
            end = start + pj.size
            total += (end if end < hi else hi) - (start if start > lo else lo)
        return total

    # ------------------------------------------------------------------
    # Placement

    def place(
        self,
        job: Job,
        seg: tuple[int, int],
        events: Optional[list[Reallocation]] = None,
        server: int = 0,
    ) -> PlacedJob:
        """(Re)place ``job`` inside segment ``seg``; returns its placement.

        Each existing job that changes position is appended to ``events``
        as a MOVE (the scheduler passes its open ledger operation's list).
        The caller must have already removed ``job``'s old placement.
        """
        s, e = seg
        w = job.size
        v_incl = self.volume + w  # paper's V(j) "including the new job"
        pad = self.padding
        two_over_delta = 2.0 / self.delta

        if v_incl < two_over_delta:
            # Case 1: tiny class -- rearrange everything; padding is 0.
            return self._compact_and_place(job, s, e, events, server)
        if v_incl <= 5.0 * w / self.delta:
            # Case 2: compact the whole class into the non-boundary region.
            return self._compact_and_place(job, s + pad, e - pad, events, server)
        # Case 3: find a subinterval of length ~[5w/d, 10w/d) with >= w free.
        # Lazy left-to-right sweep with a shared job pointer: stops at the
        # first subinterval with enough free space (usually the first).
        lo, hi = s + pad, e - pad
        usable = hi - lo
        l_min = 5.0 * w / self.delta
        m = max(1, int(usable // l_min))
        # Any subinterval with >= w free is valid (averaging argument), so
        # scan round-robin from a rotating hint: repeatedly-filled
        # intervals are skipped on subsequent placements.
        best: Optional[tuple[int, int, int]] = None  # (free, ilo, ihi)
        start_i = self._scan_hint % m
        for step in range(m):
            i = (start_i + step) % m
            ilo = lo + (i * usable) // m
            ihi = lo + ((i + 1) * usable) // m
            free = (ihi - ilo) - self.occupied_in(ilo, ihi)
            if free >= w:
                best = (free, ilo, ihi)
                self._scan_hint = i
                break
            if best is None or free > best[0]:
                best = (free, ilo, ihi)
        assert best is not None  # m >= 1, so the loop always sets it
        _, ilo, ihi = best
        if (ihi - ilo) - self.occupied_in(ilo, ihi) < w:
            # Defensive fallback (cannot occur when Property 1 holds):
            # compact the entire non-boundary region.
            return self._compact_and_place(job, lo, hi, events, server)
        # Extend to cover straddling jobs fully (keeps free space intact).
        i0, i1 = self._overlapping_range(ilo, ihi)
        if i1 > i0:
            last = self._jobs[i1 - 1]
            ilo = min(ilo, self._jobs[i0].start)
            ihi = max(ihi, last.start + last.size)
        return self._rearrange(job, i0, i1, ilo, ihi, events, server)

    def _compact_and_place(
        self,
        job: Job,
        lo: int,
        hi: int,
        events: Optional[list[Reallocation]],
        server: int,
    ) -> PlacedJob:
        return self._rearrange(job, 0, len(self._jobs), lo, hi, events, server)

    def _rearrange(
        self,
        job: Job,
        i0: int,
        i1: int,
        lo: int,
        hi: int,
        events: Optional[list[Reallocation]],
        server: int,
    ) -> PlacedJob:
        """Left-compact the member run ``self._jobs[i0:i1]`` into ``[lo, hi)``
        and insert ``job`` right after it.

        Members are a contiguous index run (jobs are disjoint and sorted),
        compaction preserves their relative order, and the new job lands
        after the last member but before the next non-member, so sorted
        order is maintained with an O(members) in-place update plus one
        list insertion -- no re-sort.
        """
        members = self._jobs[i0:i1]
        need = job.size
        for pj in members:
            need += pj.size
        if need > hi - lo:
            raise RuntimeError(
                f"class {self.klass}: placement region [{lo},{hi}) too small "
                f"for volume {need} (Property 1 violated?)"
            )
        cursor = lo
        for idx, pj in enumerate(members, start=i0):
            if pj.start != cursor:
                pj.start = cursor
                self._starts[idx] = cursor
                if events is not None:
                    events.append(Reallocation(pj.name, pj.size, _MOVE))
            cursor += pj.size
        placed = PlacedJob(job=job, klass=self.klass, start=cursor, server=server)
        self._jobs.insert(i1, placed)
        self._starts.insert(i1, cursor)
        self.volume += job.size
        return placed

    # ------------------------------------------------------------------

    def check_disjoint(self, seg: Optional[tuple[int, int]] = None) -> None:
        """Debug: jobs must be pairwise disjoint (and inside the segment)."""
        prev_end = None
        for pj in sorted(self._jobs, key=lambda p: p.start):
            if prev_end is not None and pj.start < prev_end:
                raise AssertionError(f"class {self.klass}: overlapping jobs at {pj.start}")
            prev_end = pj.end
        if seg is not None and self._jobs:
            lo, hi = seg
            first = min(pj.start for pj in self._jobs)
            last = max(pj.end for pj in self._jobs)
            if first < lo or last > hi:
                raise AssertionError(
                    f"class {self.klass}: jobs [{first},{last}) outside segment [{lo},{hi})"
                )


def total_volume(layouts: Iterable[ClassLayout]) -> int:
    return sum(l.volume for l in layouts)
