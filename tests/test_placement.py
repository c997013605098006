"""Per-class placement engine (Claim 2): the three cases, padding,
disjointness, and the O(1/delta) disturbance bound."""

import random

import pytest

from repro.core.jobs import Job, PlacedJob
from repro.core.placement import ClassLayout


def make_layout(klass=3, min_size=8, delta=0.5):
    return ClassLayout(klass, min_size, delta)


def test_empty_layout_place_first_job():
    lay = make_layout()
    pj = lay.place(Job("a", 8), (100, 120))
    assert 100 <= pj.start and pj.end <= 120
    assert len(lay) == 1
    assert lay.volume == 8
    lay.check_disjoint((100, 120))


def test_padding_width():
    lay = ClassLayout(3, min_size=8, delta=0.5)
    assert lay.padding == 1  # floor(8 * 0.5 / 4)
    lay2 = ClassLayout(0, min_size=1, delta=0.5)
    assert lay2.padding == 0


def test_case1_small_class_no_padding():
    """V < 2/delta: everything may be rearranged, padding ignored."""
    lay = ClassLayout(0, min_size=1, delta=1.0)
    seg = (0, 10)
    for i in range(3):  # V stays < 2/delta = 2 ... place unit jobs
        lay.place(Job(f"a{i}", 1), seg)
    lay.check_disjoint(seg)


def test_case2_full_compaction_respects_padding():
    lay = ClassLayout(3, min_size=8, delta=0.5)
    seg = (0, 100)
    moved = []
    for i in range(5):
        lay.place(Job(f"a{i}", 10), seg, events=moved)
    lay.check_disjoint(seg)
    # All placements stay clear of the one-slot padding.
    for pj in lay:
        assert pj.start >= 1 and pj.end <= 99


def test_case3_moves_few_jobs():
    """V >> 5w/delta: only O(1/delta) jobs in one subinterval move."""
    delta = 0.5
    lay = ClassLayout(0, min_size=1, delta=delta)
    # Big segment, many unit jobs spread out with slack.
    seg = (0, 3000)
    rng = random.Random(0)
    for i in range(1000):
        lay.place(Job(f"a{i}", 1), seg)
    moved = []
    lay.place(Job("new", 1), seg, events=moved)
    assert len(moved) <= 2 * int(10 / delta) + 2
    lay.check_disjoint(seg)


def test_remove_and_volume():
    lay = make_layout()
    pj = lay.place(Job("a", 9), (0, 50))
    assert lay.volume == 9
    lay.remove(pj)
    assert lay.volume == 0
    assert len(lay) == 0
    with pytest.raises(KeyError):
        lay.remove(pj)


def test_evicted_prefix_and_suffix():
    lay = make_layout(delta=0.5)
    seg = (0, 200)
    jobs = [lay.place(Job(f"a{i}", 10), seg) for i in range(8)]
    lo = min(pj.start for pj in jobs)
    hi = max(pj.end for pj in jobs)
    # Shrink the segment from both sides: edge jobs are evicted.
    evicted = lay.evicted((lo + 15, hi - 15))
    names = {pj.name for pj in evicted}
    assert names  # some jobs fall outside
    for pj in lay:
        if pj.start < lo + 15 or pj.end > hi - 15:
            assert pj.name in names
        else:
            assert pj.name not in names


def test_evicted_none_when_inside():
    lay = make_layout()
    seg = (0, 100)
    lay.place(Job("a", 10), seg)
    assert lay.evicted((0, 100)) == []


def test_occupied_in_and_overlapping():
    lay = make_layout()
    seg = (0, 100)
    a = lay.place(Job("a", 10), seg)
    b = lay.place(Job("b", 10), seg)
    total = lay.occupied_in(0, 100)
    assert total == 20
    span = lay.overlapping(a.start, a.start + 1)
    assert span == [a]


def test_region_too_small_raises():
    lay = ClassLayout(0, min_size=1, delta=1.0)
    lay.place(Job("a", 1), (0, 3))
    with pytest.raises(RuntimeError):
        # Force the internal rearrange into an impossible region.
        lay._rearrange(Job("b", 5), 0, len(lay._jobs), 0, 3, None, 0)


def test_on_move_reports_only_changed():
    lay = ClassLayout(0, min_size=1, delta=1.0)
    seg = (0, 50)
    lay.place(Job("a", 1), seg)
    moved = []
    lay.place(Job("b", 1), seg, events=moved)
    # Compaction keeps 'a' in place (already left-justified): no moves.
    assert moved == []


def test_server_stamped():
    lay = make_layout()
    pj = lay.place(Job("a", 8), (0, 50), server=3)
    assert pj.server == 3


def test_dense_churn_keeps_disjoint():
    rng = random.Random(7)
    delta = 0.5
    lay = ClassLayout(2, min_size=4, delta=delta)
    seg = (10, 800)
    placed = {}
    for step in range(600):
        if rng.random() < 0.6 or not placed:
            if lay.volume + 6 > (seg[1] - seg[0]) / (1 + delta):
                continue  # respect Property-1-style headroom
            name = f"j{step}"
            placed[name] = lay.place(Job(name, rng.randint(4, 6)), seg)
        else:
            name = rng.choice(list(placed))
            lay.remove(placed.pop(name))
        lay.check_disjoint(seg)
