"""Makespan extension: balance invariant, ratio, migration discipline."""

import random

import pytest

from repro.core.costfn import ConstantCost, LinearCost
from repro.extensions import MakespanReallocator


def drive(m, ops, max_size, seed=0):
    rng = random.Random(seed)
    active = []
    for step in range(ops):
        if rng.random() < 0.6 or not active:
            name = f"j{step}"
            m.insert(name, rng.randint(1, max_size))
            active.append(name)
        else:
            i = rng.randrange(len(active))
            active[i], active[-1] = active[-1], active[i]
            m.delete(active.pop())
    return active


def test_basic():
    m = MakespanReallocator(2, 16)
    m.insert("a", 10)
    m.insert("b", 10)
    assert sorted(m.loads()) == [10, 10]
    assert m.makespan() == 10
    m.delete("a")
    assert m.makespan() == 10
    m.check_invariants()


def test_ratio_near_one_on_mixed_load():
    for p in (2, 4, 8):
        m = MakespanReallocator(p, 256, delta=0.5)
        drive(m, 1200, 256, seed=1)
        m.check_invariants()
        if len(m):
            assert m.ratio() <= 2.0, (p, m.ratio())


def test_inserts_never_migrate():
    m = MakespanReallocator(4, 64)
    rng = random.Random(2)
    for i in range(200):
        m.insert(f"a{i}", rng.randint(1, 64))
    assert m.ledger.total_migrations == 0


def test_at_most_one_migration_per_delete():
    m = MakespanReallocator(4, 64)
    drive(m, 800, 64, seed=3)
    assert m.ledger.total_migrations <= m.ledger.deletes
    for report in m.ledger.reports:
        assert len(report.migrated) <= (1 if report.kind == "delete" else 0)


def test_invariant5_throughout():
    m = MakespanReallocator(3, 128)
    rng = random.Random(4)
    active = []
    for step in range(600):
        if rng.random() < 0.55 or not active:
            name = f"j{step}"
            m.insert(name, rng.randint(1, 128))
            active.append(name)
        else:
            m.delete(active.pop(rng.randrange(len(active))))
        if step % 30 == 0:
            m.check_invariants()


def test_cost_oblivious_pricing():
    m = MakespanReallocator(4, 64)
    drive(m, 600, 64, seed=5)
    assert m.ledger.competitiveness(ConstantCost()) <= 1.0  # <=1 migration/op
    assert m.ledger.competitiveness(LinearCost()) >= 0.0


def test_duplicate_and_missing():
    m = MakespanReallocator(2, 8)
    m.insert("a", 3)
    with pytest.raises(KeyError):
        m.insert("a", 3)
    with pytest.raises(KeyError):
        m.delete("b")


def test_p_validation():
    with pytest.raises(ValueError):
        MakespanReallocator(0, 8)


def test_stack_compaction_on_delete():
    m = MakespanReallocator(1, 16)
    m.insert("a", 5)
    m.insert("b", 5)
    m.insert("c", 5)
    m.delete("b")
    placements = {pj.name: pj.start for pj in m.jobs()}
    assert placements == {"a": 0, "c": 5}
    assert m.makespan() == 10
