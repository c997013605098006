"""The moved range an extend/shrink reports, and the repair that trusts it.

``KCursorSparseTable.extend``/``shrink`` return the end of the range of
districts whose extent the call may have changed (district ``j`` up to
the last leaf under the parent of the highest chunk rebuilt).  The
scheduler repairs only the classes in that range, plus any class from
``j`` up that a repair left holding a job outside its segment, so the
range must cover every district that actually moved, and the decisions
must equal those of checking every class from ``j`` up.
"""

import math
import random

import pytest

from repro.baselines import PMABackedScheduler
from repro.core import ParallelScheduler, SingleServerScheduler
from repro.core.snapshot import restore_single, snapshot_single
from repro.kcursor import KCursorSparseTable, Params


def _random_ops(table: KCursorSparseTable, rng: random.Random, ops: int,
                grow_to: int = 0) -> tuple[int, int, int]:
    """Random extend/shrink calls, checking every reported range against
    the extents before and after.  Returns how many ranges were just the
    district itself, reached the last district, and how many ops ran."""
    own = last = 0
    for _ in range(ops):
        if grow_to and table.k < grow_to and rng.random() < 0.02:
            before = table.district_extents()
            table.append_district()
            assert table.district_extents()[: len(before)] == before
        j = rng.randrange(table.k)
        have = table.district_len(j)
        m = rng.choice((1, 1, 2, 3, 7, 20, 60))
        before = table.district_extents()
        if have and rng.random() < 0.45:
            end = table.shrink(j, min(m, have))
        else:
            end = table.extend(j, m)
        after = table.district_extents()
        assert j < end <= table.k
        moved = [d for d in range(table.k) if before[d] != after[d]]
        outside = [d for d in moved if not j <= d < end]
        assert not outside, (j, end, outside)
        own += end == j + 1
        last += end == table.k
    return own, last, ops


@pytest.mark.parametrize("k", [3, 8, 16, 27, 32])
@pytest.mark.parametrize("gaps", [True, False])
def test_global_tau_range_covers_every_moved_district(k, gaps):
    table = KCursorSparseTable(k, params=Params.explicit(k, 2), gaps_enabled=gaps)
    own, last, ops = _random_ops(table, random.Random(f"global:{k}:{gaps}"), 1500)
    # The sample reaches both ends of the rule: no rebuild, and the root.
    assert own > 0 and last > 0


@pytest.mark.parametrize("k", [3, 8, 27])
@pytest.mark.parametrize("gaps", [True, False])
def test_local_tau_range_covers_every_moved_district_while_growing(k, gaps):
    table = KCursorSparseTable(k, params=Params.explicit(k, 2), tau_mode="local",
                               gaps_enabled=gaps)
    own, last, ops = _random_ops(table, random.Random(f"local:{k}:{gaps}"), 1500,
                                 grow_to=4 * k)
    assert table.k > k
    assert own > 0 and last > 0


def test_default_params_range_covers_every_moved_district():
    table = KCursorSparseTable(16, delta=0.5)
    own, last, ops = _random_ops(table, random.Random("default"), 2000)
    assert own > 0


def test_zero_batch_moves_nothing():
    table = KCursorSparseTable(4)
    assert table.extend(2, 0) == 2
    assert table.shrink(2, 0) == 2


def _requests(rng: random.Random, ops: int, max_size: int):
    live: list = []
    for serial in range(ops):
        if not live or rng.random() < 0.55:
            live.append((f"j{serial}", rng.randint(1, max_size)))
            yield ("insert",) + live[-1]
        else:
            k = rng.randrange(len(live))
            live[k], live[-1] = live[-1], live[k]
            yield ("delete",) + live.pop()


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("dynamic", [False, True])
def test_schedule_stays_valid_after_every_request(p, dynamic):
    """``check_schedule()`` after every request.  These streams never reach
    the rare repair that leaves a job outside its segment for a while
    (DIFFERENTIAL_STREAMS below do)."""
    start = 2 if dynamic else 256
    if p == 1:
        sched = SingleServerScheduler(start, delta=0.5, dynamic=dynamic)
    else:
        sched = ParallelScheduler(p, start, delta=0.5, dynamic=dynamic)
    for kind, name, size in _requests(random.Random(f"check:{p}:{dynamic}"), 400, 256):
        if kind == "insert":
            sched.insert(name, size)
        else:
            sched.delete(name)
        sched.check_schedule()


def test_pma_scheduler_repairs_every_class():
    """PMA rebalances are not one-directional, so every class with jobs
    is checked on every request, classes left of the request's included."""
    sched = PMABackedScheduler(64, delta=0.5)
    read: list = []
    extent = sched.segments.extent

    def spy(j):
        read.append(j)
        return extent(j)

    sched.segments.extent = spy
    for kind, name, size in _requests(random.Random("pma"), 300, 64):
        read.clear()
        if kind == "insert":
            sched.insert(name, size)
        else:
            sched.delete(name)
        busy = {j for j, layout in enumerate(sched.layouts) if len(layout)}
        assert busy <= set(read)
    sched.check_schedule()


def _log_uniform_requests(rng: random.Random, ops: int, max_size: int, prefill: int = 0):
    """``prefill`` inserts, then half inserts and half deletes of a random
    live job; sizes are log-uniform on [1, max_size]."""
    live: list = []
    for serial in range(ops):
        if not live or serial < prefill or rng.random() < 0.5:
            size = max(1, min(max_size, int(math.exp(rng.uniform(0.0, math.log(max_size + 1))))))
            live.append((f"j{serial}", size))
            yield ("insert",) + live[-1]
        else:
            k = rng.randrange(len(live))
            live[k], live[-1] = live[-1], live[k]
            yield ("delete",) + live.pop()


def _check_every_class_from_j(sched: SingleServerScheduler) -> None:
    """Make the segment manager report every class from ``j`` up: the
    repair rule before the moved range, as a differential reference."""
    segments = sched.segments
    apply = segments.apply_volume_change

    def every_class_from_j(j, dv):
        apply(j, dv)
        return range(j, segments.num_classes)

    segments.apply_volume_change = every_class_from_j


#: (rng label, Delta, delta, prefill, requests).  In the first four a
#: repair leaves a job outside its class's segment; in the last two
#: ignoring that (repairing only the moved range) changes a decision.
DIFFERENTIAL_STREAMS = [
    ("64:1.0:33", 64, 1.0, 0, 1500),
    ("256:1.0:19", 256, 1.0, 0, 1500),
    ("1024:0.5:0", 1024, 0.5, 0, 1500),
    ("4096:0.25:1", 4096, 0.25, 0, 1500),
    ("planner:65536:1.0:24", 65536, 1.0, 300, 1100),
    ("planner:65536:0.5:7", 65536, 0.5, 500, 1600),
]


@pytest.mark.parametrize("label,max_size,delta,prefill,ops", DIFFERENTIAL_STREAMS)
def test_decisions_match_checking_every_class_from_j(label, max_size, delta, prefill, ops):
    fast = SingleServerScheduler(max_size, delta=delta)
    ref = SingleServerScheduler(max_size, delta=delta)
    _check_every_class_from_j(ref)
    rng = random.Random(label)
    left_outside = 0
    for kind, name, size in _log_uniform_requests(rng, ops, max_size, prefill):
        for sched in (fast, ref):
            if kind == "insert":
                sched.insert(name, size)
            else:
                sched.delete(name)
        events = [[(ev.name, ev.kind) for ev in s.ledger.reports[-1].events]
                  for s in (fast, ref)]
        assert events[0] == events[1], (kind, name)
        for ev_name, _ in events[0]:
            if ev_name in fast:
                assert fast.placement(ev_name).start == ref.placement(ev_name).start
        left_outside += bool(fast._outside)
    assert [(pj.name, pj.start) for pj in fast.jobs()] == [(pj.name, pj.start) for pj in ref.jobs()]
    if delta == 1.0 or prefill:
        # The stream reaches the case the outside set exists for.
        assert left_outside > 0


def test_restore_finds_a_class_left_outside_its_segment():
    """A snapshot taken while a repair has left a job outside its class's
    segment restores to a scheduler that repairs that class when the
    original does."""
    label, max_size, delta, prefill, ops = DIFFERENTIAL_STREAMS[4]
    reqs = list(_log_uniform_requests(random.Random(label), ops, max_size, prefill))
    orig = SingleServerScheduler(max_size, delta=delta)
    for i, (kind, name, size) in enumerate(reqs):
        if kind == "insert":
            orig.insert(name, size)
        else:
            orig.delete(name)
        if orig._outside:
            break
    else:
        pytest.fail("the stream never leaves a job outside its segment")
    back = restore_single(snapshot_single(orig))
    assert back._outside == orig._outside
    for kind, name, size in reqs[i + 1:]:
        for sched in (orig, back):
            if kind == "insert":
                sched.insert(name, size)
            else:
                sched.delete(name)
        assert ([(ev.name, ev.kind) for ev in back.ledger.reports[-1].events]
                == [(ev.name, ev.kind) for ev in orig.ledger.reports[-1].events])
    assert [(pj.name, pj.start) for pj in back.jobs()] == [(pj.name, pj.start) for pj in orig.jobs()]
