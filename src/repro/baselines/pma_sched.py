"""Section-2 scheduler running on a *general* sparse table (PMA).

The paper (Section 1, "Results"): "Replacing the k-cursor sparse table
with a general sparse table in the scheduling algorithm of Section 2 would
yield a significantly worse reallocation cost of O(log^3 V), where V > Delta
is the total length of all jobs."

This baseline realizes that substitution: :class:`PMASegmentManager`
exposes the same interface as :class:`repro.core.segments.SegmentManager`
but keeps the ``floor(V(j)(1+delta))`` space units per class as elements
of a :class:`~repro.pma.PackedMemoryArray` (element value = class id,
classes stored in order).  Everything above the segment layer -- size
classes, boundary padding, Claim-2 placement, the ledger -- is the
identical code, so experiment E8 isolates exactly the data-structure swap.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.single import SingleServerScheduler
from repro.pma import PackedMemoryArray


class PMASegmentManager:
    """Drop-in for ``SegmentManager`` backed by a packed-memory array."""

    def __init__(self, num_classes: int, delta: float, initial_capacity: int = 64):
        self.delta = delta
        self._k = num_classes
        self.pma = PackedMemoryArray(initial_capacity)
        self.counts = [0] * num_classes  # elements per class district
        self.volumes = [0] * num_classes

    @property
    def num_classes(self) -> int:
        return self._k

    @property
    def counter(self):
        return self.pma.counter

    def target(self, volume: int) -> int:
        return int(volume * (1.0 + self.delta) + 1e-9)

    def _prefix(self, j: int) -> int:
        return sum(self.counts[:j])

    def apply_volume_change(self, j: int, dv: int) -> range:
        """Sync class ``j``'s element count as the k-cursor manager does.

        PMA rebalances are *not* one-directional: an update in class ``j``
        can shift earlier classes too, so every class may have moved."""
        v = self.volumes[j] + dv
        if v < 0:
            raise ValueError(f"class {j} volume would go negative")
        self.volumes[j] = v
        want = self.target(v)
        end_rank = self._prefix(j) + self.counts[j]
        while self.counts[j] < want:
            self.pma.insert(end_rank, j)  # general sparse table: unit insert
            end_rank += 1
            self.counts[j] += 1
        while self.counts[j] > want:
            end_rank -= 1
            self.pma.delete(end_rank)
            self.counts[j] -= 1
        return range(self._k)

    def extent(self, j: int) -> tuple[int, int]:
        if self.counts[j] == 0:
            # Zero-width extent at the class's boundary position.
            prefix = self._prefix(j)
            if prefix == 0:
                return (0, 0)
            pos = self.pma.position_of(prefix - 1) + 1
            return (pos, pos)
        prefix = self._prefix(j)
        start = self.pma.position_of(prefix)
        end = self.pma.position_of(prefix + self.counts[j] - 1) + 1
        return (start, end)

    def extents(self, classes: Optional[Iterable[int]] = None) -> list[tuple[int, int]]:
        return [self.extent(j) for j in (range(self._k) if classes is None else classes)]

    def grow_classes(self, new_num: int) -> None:
        while self._k < new_num:
            self._k += 1
            self.counts.append(0)
            self.volumes.append(0)

    def check_property1(self, tol: int = 2) -> None:
        """Space lower bound holds by construction; the PMA's density
        guarantees are coarser than the k-cursor's so the (1+delta)^2
        upper bounds are *not* asserted here (that looseness is part of
        what E8 exhibits)."""
        for j in range(self._k):
            if self.counts[j] < self.target(self.volumes[j]):
                raise AssertionError(f"class {j}: allocated space below floor(V(1+delta))")


class PMABackedScheduler(SingleServerScheduler):
    """The single-server scheduler with its k-cursor swapped for a PMA."""

    def __init__(
        self,
        max_job_size: int,
        *,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
    ):
        super().__init__(max_job_size, epsilon=epsilon, delta=delta, dynamic=False)
        # Swap the segment manager; everything else is shared code.
        self.segments = PMASegmentManager(self.classer.num_classes, self.delta)

    @property
    def substrate_counter(self):
        return self.segments.pma.counter
