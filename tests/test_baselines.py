"""Baseline schedulers: optimal re-sort, footnote-1 gaps, PMA-backed,
append-only."""

import random

import pytest

from repro.analysis.opt import opt_sum_completion, opt_sum_completion_single
from repro.baselines import (
    AppendOnlyScheduler,
    OptimalRescheduler,
    PMABackedScheduler,
    SimpleGapScheduler,
)
from repro.core.costfn import ConstantCost, LinearCost
from tests.conftest import drive_scheduler


# ---------------------------------------------------------------------------
# OptimalRescheduler


def test_optimal_always_exact():
    s = OptimalRescheduler()
    rng = random.Random(0)
    active = []
    for step in range(300):
        if rng.random() < 0.6 or not active:
            name = f"j{step}"
            s.insert(name, rng.randint(1, 100))
            active.append(name)
        else:
            s.delete(active.pop(rng.randrange(len(active))))
        sizes = [pj.size for pj in s.jobs()]
        assert s.sum_completion_times() == opt_sum_completion_single(sizes)


def test_optimal_multiserver_exact():
    for p in (2, 3):
        s = OptimalRescheduler(p=p)
        rng = random.Random(1)
        for i in range(60):
            s.insert(f"j{i}", rng.randint(1, 50))
        sizes = [pj.size for pj in s.jobs()]
        assert s.sum_completion_times() == opt_sum_completion(sizes, p)


def test_optimal_front_insert_moves_everything():
    s = OptimalRescheduler()
    for i in range(20):
        s.insert(f"j{i}", 100 + i)
    s.insert("tiny", 1)
    # Every pre-existing job shifted by 1 slot.
    assert len(s.ledger.reports[-1].moved) == 20


def test_optimal_duplicate_rejected():
    s = OptimalRescheduler()
    s.insert("a", 5)
    with pytest.raises(KeyError):
        s.insert("a", 5)
    with pytest.raises(KeyError):
        s.delete("b")


# ---------------------------------------------------------------------------
# SimpleGapScheduler (footnote 1)


def test_simple_gap_basic():
    s = SimpleGapScheduler(max_job_size=64)
    s.insert("a", 3)
    s.insert("b", 40)
    s.insert("c", 5)
    s.check_schedule()
    assert len(s) == 3
    s.delete("b")
    assert len(s) == 2


def test_simple_gap_class_grouping_invariant():
    s = SimpleGapScheduler(max_job_size=256)
    drive_scheduler(s, 500, 256, seed=2)
    s.check_schedule()


def test_simple_gap_eviction_cascade():
    s = SimpleGapScheduler(max_job_size=16, initial_gap=False)
    # Pack one job per class adjacently, then force cascades with units.
    for i in (4, 3, 2, 1, 0):
        s.insert(f"seed{i}", 1 << i)
    moved_before = s.ledger.moved_jobs_total()
    for i in range(4):
        s.insert(f"u{i}", 1)
    assert s.ledger.moved_jobs_total() > moved_before
    s.check_schedule()


def test_simple_gap_const_cheaper_than_linear():
    from repro.workloads.adversary import cascade_sawtooth

    trace = cascade_sawtooth(256, 1024)
    s = SimpleGapScheduler(256)
    for r in trace:
        if r.kind == "i":
            s.insert(r.name, r.size)
        else:
            s.delete(r.name)
    ops = len(trace)
    cost_const = s.ledger.reallocation_cost(ConstantCost()) / ops
    cost_linear = s.ledger.reallocation_cost(LinearCost()) / ops
    assert cost_const < 2.0  # footnote: O(1) amortized for f = 1
    assert cost_linear > cost_const


def test_simple_gap_ratio_bounded():
    s = SimpleGapScheduler(max_job_size=128)
    drive_scheduler(s, 600, 128, seed=3)
    sizes = [pj.size for pj in s.jobs()]
    if sizes:
        ratio = s.sum_completion_times() / opt_sum_completion_single(sizes)
        assert ratio <= 6.0  # footnote claims 4x for pure inserts; slack for churn


def test_simple_gap_validation():
    s = SimpleGapScheduler(8)
    with pytest.raises(ValueError):
        s.insert("big", 9)
    s.insert("a", 8)
    with pytest.raises(KeyError):
        s.insert("a", 1)
    with pytest.raises(KeyError):
        s.delete("nope")


# ---------------------------------------------------------------------------
# PMABackedScheduler


def test_pma_backed_torture():
    s = PMABackedScheduler(64, delta=0.5)
    rng = random.Random(4)
    active = []
    for step in range(400):
        if rng.random() < 0.6 or not active:
            name = f"j{step}"
            s.insert(name, rng.randint(1, 64))
            active.append(name)
        else:
            s.delete(active.pop(rng.randrange(len(active))))
        if step % 50 == 0:
            for j, layout in enumerate(s.layouts):
                layout.check_disjoint(s.segments.extent(j))
    assert s.segments.pma.counter.ops > 0


def test_pma_backed_class_order():
    s = PMABackedScheduler(64, delta=0.5)
    drive_scheduler(s, 300, 64, seed=5)
    prev = -1
    for pj in s.jobs():
        assert pj.klass >= prev
        prev = pj.klass


def test_pma_backed_space_lower_bound():
    s = PMABackedScheduler(32, delta=0.5)
    drive_scheduler(s, 200, 32, seed=6)
    s.segments.check_property1()


# ---------------------------------------------------------------------------
# AppendOnlyScheduler


def test_append_only_never_moves():
    s = AppendOnlyScheduler()
    drive_scheduler(s, 300, 64, seed=7)
    assert s.ledger.moved_jobs_total() == 0
    assert s.ledger.reallocation_cost(LinearCost()) == 0.0


def test_append_only_monotone_starts():
    s = AppendOnlyScheduler()
    starts = []
    for i in range(50):
        starts.append(s.insert(f"j{i}", i + 1).start)
    assert starts == sorted(starts)


def test_append_only_ratio_degrades_under_churn():
    s = AppendOnlyScheduler()
    # Insert/delete many large jobs, keep one small job active: holes pile up.
    for i in range(50):
        s.insert(f"big{i}", 100)
    for i in range(50):
        s.delete(f"big{i}")
    s.insert("small", 1)
    opt = 1
    assert s.sum_completion_times() / opt >= 1000
