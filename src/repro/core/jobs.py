"""Jobs and size-class arithmetic (Section 2).

A job of integral size ``w`` belongs to size class ``j = floor(log_{1+d} w)``,
i.e. class ``j`` holds jobs with ``(1+d)^j <= w < (1+d)^{j+1}``.  The
scheduler keeps jobs of each class together ("approximate sorting"), which
is what caps the sum-of-completion-times ratio at ``1 + O(d)`` (Lemma 4).

Class boundaries are precomputed as a monotone table of powers so every
query resolves by binary search with consistent rounding; ``min_size(j)``
(the paper's ``w-tilde``, used for boundary padding) is the smallest
integer in the class.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Hashable


@dataclass(frozen=True)
class Job:
    """An immutable job: a name and an integral length."""

    name: Hashable
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"job size must be a positive integer, got {self.size}")


@dataclass(slots=True)
class PlacedJob:
    """A job plus its placement in a schedule array.

    ``start`` is the absolute slot at which the job begins; the job
    occupies ``[start, start + size)`` and completes at ``start + size``.
    ``server`` identifies the machine (always 0 on a single server).
    ``name`` and ``size`` copy the job's, so the scheduler's hot loops read
    plain slots; equality and ``repr`` ignore them, as they did the
    properties they replace.
    """

    job: Job
    klass: int
    start: int
    server: int = 0
    name: Hashable = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.name = self.job.name
        self.size = self.job.size

    @property
    def end(self) -> int:
        return self.start + self.size

    @property
    def completion(self) -> int:
        return self.start + self.size


class SizeClasser:
    """Maps job sizes to size classes for a given ``delta``.

    Parameters
    ----------
    delta:
        class width parameter (class ``j`` spans ``[(1+delta)^j,
        (1+delta)^{j+1})``); the paper's ``delta = Theta(epsilon)``.
    max_size:
        the paper's ``Delta``; sizes above it are rejected unless the
        classer is grown (mirrors the k-cursor's dynamic districts).
    """

    def __init__(self, delta: float, max_size: int) -> None:
        if not (0.0 < delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.delta = delta
        self.max_size = max_size
        self._bounds: list[float] = [1.0]
        while self._bounds[-1] <= max_size:
            self._bounds.append(self._bounds[-1] * (1.0 + delta))

    @property
    def num_classes(self) -> int:
        """Number of classes needed for sizes in [1, max_size]."""
        return self.class_of(self.max_size) + 1

    def class_of(self, size: int) -> int:
        """``floor(log_{1+delta} size)`` with consistent rounding."""
        if not (1 <= size <= self.max_size):
            raise ValueError(f"size {size} outside [1, {self.max_size}]")
        return bisect_right(self._bounds, size) - 1

    def min_size(self, j: int) -> int:
        """Smallest integral job size in class ``j`` (the paper's w-tilde)."""
        if j == 0:
            return 1
        if j >= len(self._bounds):
            raise ValueError(f"class {j} out of range")
        lo = self._bounds[j]
        m = int(lo)
        if m < lo:
            m += 1
        # Guard against float drift at the boundary.
        while self.class_of(max(1, m)) < j:
            m += 1
        return max(1, m)

    def max_class_size(self, j: int) -> int:
        """Largest integral job size in class ``j``."""
        hi = self._bounds[j + 1] if j + 1 < len(self._bounds) else self.max_size + 1
        m = min(self.max_size, int(hi))
        while m >= 1 and self.class_of(m) > j:
            m -= 1
        return m

    def grow(self, new_max_size: int) -> None:
        """Extend the class table to cover larger sizes (dynamic Delta)."""
        if new_max_size <= self.max_size:
            return
        self.max_size = new_max_size
        while self._bounds[-1] <= new_max_size:
            self._bounds.append(self._bounds[-1] * (1.0 + self.delta))
