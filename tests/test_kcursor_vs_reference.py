"""Differential testing: virtual table vs the physically-materialized
reference oracle, which was transcribed independently from the paper.

Agreement required after EVERY operation:

* per-district element counts,
* per-district absolute extents (for nonempty districts),
* total span,
* prefix density of the physical array.
"""

import random

import pytest

from repro.kcursor import KCursorSparseTable, Params
from repro.kcursor.reference import ReferenceKCursorTable


def run_differential(k, factor, ops, seed, bias=None):
    params = Params.explicit(k, factor)
    virt = KCursorSparseTable(k, params=params)
    ref = ReferenceKCursorTable(k, params=params)
    rng = random.Random(seed)
    for step in range(ops):
        j = bias(rng) if bias else rng.randrange(k)
        if rng.random() < 0.55 or virt.district_len(j) == 0:
            virt.insert(j)
            ref.insert(j)
        else:
            virt.delete(j)
            ref.delete(j)
        assert virt.total_span == ref.total_span, step
        for d in range(k):
            assert virt.district_len(d) == ref.district_len(d), (step, d)
            if virt.district_len(d):
                assert virt.district_extent(d) == ref.district_extent(d), (step, d)
        # One batched walk, in any order, reads the same extents.
        live = [d for d in range(k) if virt.district_len(d)][::-1]
        assert virt.district_extents(live) == [ref.district_extent(d) for d in live], step
    return virt, ref


def test_balanced_agreement():
    run_differential(4, 2, 800, seed=1)


def test_skewed_agreement():
    run_differential(4, 2, 800, seed=2, bias=lambda rng: 0 if rng.random() < 0.6 else 3)


def test_eight_districts_agreement():
    run_differential(8, 3, 600, seed=3)


def test_lopsided_with_gaps_agreement():
    params = Params.explicit(4, 2)
    virt = KCursorSparseTable(4, params=params)
    ref = ReferenceKCursorTable(4, params=params)
    for _ in range(2500):
        virt.insert(3)
        ref.insert(3)
    rng = random.Random(4)
    for step in range(400):
        if rng.random() < 0.6 or virt.district_len(0) == 0:
            virt.insert(0)
            ref.insert(0)
        else:
            virt.delete(0)
            ref.delete(0)
        assert virt.district_extent(0) == ref.district_extent(0), step
        assert virt.district_extent(3) == ref.district_extent(3), step
    assert virt.counter.gaps_consumed > 0  # the gap path was exercised


def test_reference_density_matches_theorem():
    _, ref = run_differential(4, 2, 600, seed=5)
    bound = ref.params.density_bound
    for x, pos in enumerate(ref.element_positions(), start=1):
        assert pos + 1 <= bound * x + 1e-9


def test_physical_moves_bounded_by_analytic_cost():
    params = Params.explicit(4, 2)
    virt = KCursorSparseTable(4, params=params)
    ref = ReferenceKCursorTable(4, params=params)
    rng = random.Random(6)
    for step in range(500):
        j = rng.randrange(4)
        if rng.random() < 0.6 or virt.district_len(j) == 0:
            virt.insert(j)
            ref.insert(j)
        else:
            virt.delete(j)
            ref.delete(j)
        assert ref.last_op_moves <= virt.last_op.cost + 1, step


def test_reference_rejects_empty_delete():
    ref = ReferenceKCursorTable(2, params=Params.explicit(2, 2))
    with pytest.raises(IndexError):
        ref.delete(0)
