"""bulk_load: efficient initial construction."""

import random

from repro.core import SingleServerScheduler
from repro.core.costfn import ConstantCost


def test_bulk_load_equivalent_state():
    rng = random.Random(31)
    jobs = [(f"j{i}", rng.randint(1, 128)) for i in range(200)]
    a = SingleServerScheduler(128, delta=0.5)
    a.bulk_load(jobs)
    a.check_schedule()
    assert len(a) == 200
    assert a.total_volume() == sum(w for _, w in jobs)


def test_bulk_load_cheaper_than_random_order():
    rng = random.Random(32)
    jobs = [(f"j{i}", rng.randint(1, 256)) for i in range(300)]
    sorted_build = SingleServerScheduler(256, delta=0.5)
    sorted_build.bulk_load(jobs)
    shuffled = SingleServerScheduler(256, delta=0.5)
    order = list(jobs)
    rng.shuffle(order)
    for name, size in order:
        shuffled.insert(name, size)
    cheap = sorted_build.ledger.reallocation_cost(ConstantCost())
    costly = shuffled.ledger.reallocation_cost(ConstantCost())
    assert cheap < costly


def test_bulk_load_never_moves_smaller_classes():
    """Ascending inserts may shuffle jobs within the class being filled,
    but never any job of a smaller class (one-directionality)."""
    s = SingleServerScheduler(1 << 10, delta=0.5)
    s.bulk_load((f"j{i}", 1 << (i // 10)) for i in range(100))
    for op in s.ledger.reports:
        inserted_class = s.classer.class_of(op.size)
        for w in op.moved.values():
            assert s.classer.class_of(w) >= inserted_class
    s.check_schedule()
