"""repro: Cost-Oblivious Reallocation for Scheduling and Planning (SPAA'15).

Full reproduction of Bender, Farach-Colton, Fekete, Fineman, Gilbert
(SPAA 2015).  Public surface:

* :class:`repro.core.SingleServerScheduler` / :class:`repro.core.ParallelScheduler`
  -- the paper's cost-oblivious reallocating schedulers (Theorems 1 and 9);
* :class:`repro.kcursor.KCursorSparseTable` -- the k-cursor sparse table
  (Theorems 16/18/19);
* :class:`repro.pma.PackedMemoryArray` / :class:`repro.pma.AdaptivePackedMemoryArray`
  -- general sparse-table baselines;
* :mod:`repro.baselines` -- the comparison schedulers;
* :mod:`repro.workloads` / :mod:`repro.analysis` / :mod:`repro.sim`
  -- traces, optima/metrics/fits, and the E1..E12 + A1..A4 experiment
  registry.

See README.md for a tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for claim-vs-measured results.
"""

from typing import TYPE_CHECKING

from repro.core import (
    Job,
    Ledger,
    ParallelScheduler,
    PlacedJob,
    SingleServerScheduler,
    SizeClasser,
    costfn,
)
from repro.kcursor import KCursorSparseTable, Params

if TYPE_CHECKING:
    from repro.pma import AdaptivePackedMemoryArray, PackedMemoryArray

__version__ = "1.0.0"

__all__ = [
    "Job",
    "PlacedJob",
    "SizeClasser",
    "Ledger",
    "SingleServerScheduler",
    "ParallelScheduler",
    "KCursorSparseTable",
    "Params",
    "PackedMemoryArray",
    "AdaptivePackedMemoryArray",
    "costfn",
    "__version__",
]

#: Public names loaded on first use (PEP 562): the packed-memory arrays
#: need numpy, which the service (``repro serve``) never does.
_LAZY = {
    "PackedMemoryArray": "repro.pma",
    "AdaptivePackedMemoryArray": "repro.pma",
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        import importlib

        value = getattr(importlib.import_module(_LAZY[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
