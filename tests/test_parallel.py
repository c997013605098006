"""p-server scheduler (Theorem 9, Invariant 5, Corollary 8)."""

import random

import pytest

from repro.analysis.opt import opt_sum_completion
from repro.core import ParallelScheduler
from repro.core.events import ReallocKind


def drive(s, ops, max_size, seed=0):
    rng = random.Random(seed)
    active = []
    for step in range(ops):
        if rng.random() < 0.6 or not active:
            name = f"j{step}"
            s.insert(name, rng.randint(1, max_size))
            active.append(name)
        else:
            s.delete(active.pop(rng.randrange(len(active))))
    return active


def test_round_robin_insertion():
    s = ParallelScheduler(4, 16, delta=1.0)
    for i in range(8):
        s.insert(f"a{i}", 5)  # same class
    counts = s.class_counts(s.classer.class_of(5))
    assert counts == [2, 2, 2, 2]
    s.check_invariant5()


def test_invariant5_under_churn():
    s = ParallelScheduler(3, 64, delta=0.5)
    rng = random.Random(1)
    active = []
    for step in range(600):
        if rng.random() < 0.6 or not active:
            name = f"j{step}"
            s.insert(name, rng.randint(1, 64))
            active.append(name)
        else:
            s.delete(active.pop(rng.randrange(len(active))))
        if step % 25 == 0:
            s.check_invariant5()
    s.check_schedule()


def test_inserts_never_migrate():
    s = ParallelScheduler(4, 32, delta=0.5)
    rng = random.Random(2)
    for i in range(200):
        s.insert(f"a{i}", rng.randint(1, 32))
        # No MIGRATE events may appear on a pure-insert history.
    assert s.ledger.total_migrations == 0


def test_deletes_at_most_one_migration():
    s = ParallelScheduler(4, 32, delta=0.5)
    drive(s, 800, 32, seed=3)
    for report in s.ledger.reports:
        migs = len(report.migrated)
        if report.kind == "insert":
            assert migs == 0
        else:
            assert migs <= 1
    assert s.ledger.total_migrations <= s.ledger.deletes


def test_migrated_job_stays_registered():
    s = ParallelScheduler(2, 8, delta=1.0)
    # Build imbalance: 3 same-class jobs -> counts (2, 1); delete from the
    # 1-count server twice to force a migration.
    s.insert("a", 5)  # server 0
    s.insert("b", 5)  # server 1
    s.insert("c", 5)  # server 0
    s.delete("b")  # counts (2, 0): migration restores (1, 1)
    assert s.ledger.total_migrations == 1
    s.check_invariant5()
    # All active jobs remain addressable.
    for pj in s.jobs():
        assert s.placement(pj.name).name == pj.name


def test_objective_constant_factor_of_opt():
    for p in (1, 2, 4, 8):
        s = ParallelScheduler(p, 128, delta=0.5)
        drive(s, 500, 128, seed=4)
        sizes = [pj.size for pj in s.jobs()]
        if not sizes:
            continue
        opt = opt_sum_completion(sizes, p)
        ratio = s.sum_completion_times() / opt
        assert ratio <= 4.0, (p, ratio)  # Theorem 9: O(1); generous constant


def test_duplicate_and_missing_names():
    s = ParallelScheduler(2, 8)
    s.insert("a", 3)
    with pytest.raises(KeyError):
        s.insert("a", 3)
    with pytest.raises(KeyError):
        s.delete("zzz")


def test_p_validation():
    with pytest.raises(ValueError):
        ParallelScheduler(0, 8)


def test_single_server_degenerates_to_sequential():
    s = ParallelScheduler(1, 64, delta=0.5)
    drive(s, 300, 64, seed=5)
    assert s.ledger.total_migrations == 0
    s.check_schedule()


def test_ledger_alloc_counts_only_new_jobs():
    """Migrations must not inflate the allocation histogram."""
    s = ParallelScheduler(2, 8, delta=1.0)
    s.insert("a", 5)
    s.insert("b", 5)
    s.insert("c", 5)
    s.delete("b")  # triggers migration of a same-class job
    assert sum(s.ledger.alloc_hist.values()) == 3  # a, b, c only
    assert s.ledger.total_migrations == 1


def test_migration_recorded_as_migrate_kind():
    s = ParallelScheduler(2, 8, delta=1.0)
    s.insert("a", 5)
    s.insert("b", 5)
    s.insert("c", 5)
    s.delete("b")
    last = s.ledger.reports[-1]
    kinds = {ev.kind for ev in last.events}
    assert ReallocKind.MIGRATE in kinds


def test_dynamic_parallel():
    s = ParallelScheduler(2, 4, delta=0.5, dynamic=True)
    s.insert("small", 2)
    s.insert("huge", 300)
    s.check_schedule()
    assert s.classer.max_size >= 300
