"""Size-class segment management on top of the k-cursor table.

The scheduler's array is *aligned* with a k-cursor sparse table: size
class ``j``'s segment is the extent of district ``j``'s element slots.
District ``j`` always holds exactly ``floor(V(j) * (1 + delta))`` elements
(``V(j)`` = total job volume of the class), which yields Property 1:

* ``S(j) >= floor(V(j)(1+delta))``      (by construction),
* ``start(j) <= V(1, j-1)(1+delta)^2``  (prefix density x the extra factor),
* ``end(j)   <= V(1, j)(1+delta)^2``.

Crucially, k-cursor rebuilds move *boundaries*, not jobs: a job pays a
reallocation only when it falls outside its class's new segment ("lost
slots"), which is what the boundary padding then amortizes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.kcursor import KCursorSparseTable, Params


class SegmentManager:
    """Maintains ``floor(V(j)(1+delta))`` k-cursor elements per class."""

    def __init__(
        self,
        num_classes: int,
        delta: float,
        *,
        params: Optional[Params] = None,
        tau_mode: str = "global",
        tau_factor: Optional[int] = None,
    ) -> None:
        self.delta = delta
        if params is None and tau_factor is not None:
            # Experimentation knob: run the identical algorithm with a
            # smaller 1/tau (less space slack, earlier BUFFERED regime).
            # Theorem 16's density bound weakens to 1 + 9/tau_factor.
            params = Params.explicit(num_classes, tau_factor)
        self.table = KCursorSparseTable(
            num_classes,
            delta=delta,
            params=params,
            track_values=False,
            tau_mode=tau_mode,
        )
        self.volumes = [0] * num_classes

    @classmethod
    def from_table(
        cls, table: KCursorSparseTable, delta: float, volumes: list[int]
    ) -> "SegmentManager":
        """A manager over an already-built table (a snapshot restore)."""
        out = cls.__new__(cls)
        out.delta = delta
        out.table = table
        out.volumes = volumes
        return out

    @property
    def num_classes(self) -> int:
        return self.table.k

    def target(self, volume: int) -> int:
        """Allocated space for a class of volume V: floor(V * (1+delta))."""
        return int(volume * (1.0 + self.delta) + 1e-9)

    def apply_volume_change(self, j: int, dv: int) -> range:
        """Add ``dv`` (may be negative) to class ``j``'s volume and sync the
        district's element count to the new target.

        Returns the classes whose segment may have moved, in increasing
        order: ``j`` through the end of the subtree the table's rebuild
        cascade reached (:meth:`KCursorSparseTable.extend`), or none when
        the element count stayed the same.  No other segment moved.
        """
        v = self.volumes[j] + dv
        if v < 0:
            raise ValueError(f"class {j} volume would go negative")
        self.volumes[j] = v
        want = self.target(v)
        have = self.table.district_len(j)
        if want > have:
            return range(j, self.table.extend(j, want - have))
        if want < have:
            return range(j, self.table.shrink(j, have - want))
        return range(j, j)

    def extent(self, j: int) -> tuple[int, int]:
        return self.table.district_extent(j)

    def extents(self, classes: Optional[Iterable[int]] = None) -> list[tuple[int, int]]:
        """:meth:`extent` of each of ``classes`` (default: every class), in
        order, from one table call."""
        return self.table.district_extents(classes)

    def grow_classes(self, new_num: int) -> None:
        """Add districts at the end (requires the table's local tau mode)."""
        while self.table.k < new_num:
            self.table.append_district()
            self.volumes.append(0)

    def check_property1(self, tol: int = 2) -> None:
        """Assert Property 1 for every class (``tol`` slots of integral slack)."""
        d2 = (1.0 + self.delta) ** 2
        prefix = 0
        for j in range(self.num_classes):
            v = self.volumes[j]
            start, end = self.extent(j)
            space = self.table.district_len(j)
            if space < self.target(v):
                raise AssertionError(f"class {j}: S(j)={space} < floor(V(1+d))={self.target(v)}")
            if v > 0:
                if start > prefix * d2 + tol:
                    raise AssertionError(
                        f"class {j}: start={start} > V(1,j-1)(1+d)^2={prefix * d2:.1f}"
                    )
                if end > (prefix + v) * d2 + tol:
                    raise AssertionError(
                        f"class {j}: end={end} > V(1,j)(1+d)^2={(prefix + v) * d2:.1f}"
                    )
            prefix += v
