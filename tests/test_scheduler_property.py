"""Property-based tests for the schedulers: arbitrary valid request
sequences must keep every invariant and guarantee."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.opt import opt_sum_completion, opt_sum_completion_single
from repro.core import ParallelScheduler, SingleServerScheduler

MAX_SIZE = 64


@st.composite
def request_sequences(draw, max_ops=60, max_size=MAX_SIZE):
    """(kind, name_or_index, size) sequences that are always valid."""
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(1, max_size),
                                  st.integers(0, 10_000)), min_size=1, max_size=max_ops))
    return ops


def apply_requests(sched, ops):
    active = []
    serial = 0
    for is_insert, size, pick in ops:
        if is_insert or not active:
            name = f"j{serial}"
            serial += 1
            sched.insert(name, size)
            active.append(name)
        else:
            idx = pick % len(active)
            active[idx], active[-1] = active[-1], active[idx]
            sched.delete(active.pop())
    return active


@settings(max_examples=50, deadline=None)
@given(ops=request_sequences())
def test_single_scheduler_invariants(ops):
    s = SingleServerScheduler(MAX_SIZE, delta=0.5)
    active = apply_requests(s, ops)
    s.check_schedule()
    assert len(s) == len(active)
    for name in active:
        assert name in s
    # Lemma 4 bound.
    sizes = [pj.size for pj in s.jobs()]
    if sizes:
        assert s.sum_completion_times() <= (1 + 17 * 0.5) * opt_sum_completion_single(sizes)


@settings(max_examples=30, deadline=None)
@given(ops=request_sequences(max_ops=40), p=st.integers(1, 4))
def test_parallel_scheduler_invariants(ops, p):
    s = ParallelScheduler(p, MAX_SIZE, delta=0.5)
    active = apply_requests(s, ops)
    s.check_schedule()  # includes Invariant 5
    assert len(s) == len(active)
    sizes = [pj.size for pj in s.jobs()]
    if sizes:
        assert s.sum_completion_times() <= 4 * opt_sum_completion(sizes, p)
    # Migrations happen only on deletes.
    for report in s.ledger.reports:
        if report.kind == "insert":
            assert not report.migrated


@settings(max_examples=30, deadline=None)
@given(ops=request_sequences(max_ops=50))
def test_ledger_consistency(ops):
    s = SingleServerScheduler(MAX_SIZE, delta=0.5)
    apply_requests(s, ops)
    led = s.ledger
    assert led.ops == len(ops)
    assert led.inserts >= led.deletes
    assert sum(led.alloc_hist.values()) == led.inserts
    # Reallocation histogram only contains sizes that were allocated.
    assert set(led.realloc_hist) <= set(led.alloc_hist)


@settings(max_examples=25, deadline=None)
@given(ops=request_sequences(max_ops=40), delta=st.sampled_from([0.1, 0.3, 1.0]))
def test_ratio_bound_across_deltas(ops, delta):
    s = SingleServerScheduler(MAX_SIZE, delta=delta)
    apply_requests(s, ops)
    sizes = [pj.size for pj in s.jobs()]
    if sizes:
        ratio = s.sum_completion_times() / opt_sum_completion_single(sizes)
        assert ratio <= 1 + 17 * delta + 1e-9
