"""Ledger semantics: cost-oblivious reallocation accounting."""

from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.costfn import ConstantCost, LinearCost
from repro.core.events import Ledger, ReallocKind


def test_basic_insert_accounting():
    led = Ledger()
    led.begin("insert", "a", 10)
    led.record("a", 10, ReallocKind.PLACE)
    led.commit()
    assert led.inserts == 1
    assert led.allocation_cost(LinearCost()) == 10.0
    assert led.reallocation_cost(LinearCost()) == 0.0
    assert led.competitiveness(LinearCost()) == 0.0


def test_moves_priced_as_reallocation():
    led = Ledger()
    led.begin("insert", "a", 4)
    led.record("a", 4, ReallocKind.PLACE)
    led.record("b", 8, ReallocKind.MOVE)
    led.commit()
    assert led.reallocation_cost(LinearCost()) == 8.0
    assert led.competitiveness(LinearCost()) == 2.0


def test_per_op_move_deduplication():
    """The paper counts each job whose schedule changed once per request."""
    led = Ledger()
    led.begin("insert", "a", 1)
    led.record("a", 1, ReallocKind.PLACE)
    led.record("b", 5, ReallocKind.MOVE)
    led.record("b", 5, ReallocKind.MOVE)
    led.record("b", 5, ReallocKind.MOVE)
    led.commit()
    assert led.moved_jobs_total() == 1
    assert led.reallocation_cost(ConstantCost()) == 1.0


def test_migration_counting():
    led = Ledger()
    led.begin("delete", "a", 2)
    led.record("a", 2, ReallocKind.REMOVE)
    led.record("c", 7, ReallocKind.MIGRATE)
    led.commit()
    assert led.total_migrations == 1
    assert led.moved_jobs_total() == 1  # a migration is also a move


def test_nested_begin_rejected():
    led = Ledger()
    led.begin("insert", "a", 1)
    with pytest.raises(RuntimeError):
        led.begin("insert", "b", 1)
    led.abort()
    led.begin("insert", "b", 1)
    led.commit()


def test_record_without_begin_rejected():
    led = Ledger()
    with pytest.raises(RuntimeError):
        led.record("x", 1, ReallocKind.MOVE)
    with pytest.raises(RuntimeError):
        led.commit()


def test_abort_discards():
    led = Ledger()
    led.begin("insert", "a", 3)
    led.record("a", 3, ReallocKind.PLACE)
    led.abort()
    assert led.ops == 0
    assert led.allocation_cost(LinearCost()) == 0.0


def test_reallocation_series():
    led = Ledger()
    for i, moved in enumerate([0, 2, 1]):
        led.begin("insert", f"a{i}", 1)
        led.record(f"a{i}", 1, ReallocKind.PLACE)
        for m in range(moved):
            led.record(f"m{i}-{m}", 3, ReallocKind.MOVE)
        led.commit()
    series = led.reallocation_series(LinearCost())
    assert series == [0.0, 6.0, 3.0]


def test_series_requires_reports():
    led = Ledger(keep_reports=False)
    led.begin("insert", "a", 1)
    led.commit()
    with pytest.raises(RuntimeError):
        led.reallocation_series(LinearCost())


def test_summary_counts():
    led = Ledger()
    led.begin("insert", "a", 2)
    led.record("a", 2, ReallocKind.PLACE)
    led.commit()
    led.begin("delete", "a", 2)
    led.record("a", 2, ReallocKind.REMOVE)
    led.commit()
    s = led.summary()
    assert s["ops"] == 2 and s["inserts"] == 1 and s["deletes"] == 1


def test_allocation_includes_deleted_jobs():
    """Competitiveness denominator counts every job ever inserted."""
    led = Ledger()
    led.begin("insert", "a", 10)
    led.record("a", 10, ReallocKind.PLACE)
    led.commit()
    led.begin("delete", "a", 10)
    led.record("a", 10, ReallocKind.REMOVE)
    led.commit()
    assert led.allocation_cost(LinearCost()) == 10.0


# ---------------------------------------------------------------------------
# Ledger.commit's one-pass fold against the counting rule written out plainly

_K = ReallocKind
_EVENT = st.tuples(st.sampled_from("abcd"), st.integers(1, 6), st.sampled_from(list(_K)))
_REQUEST = st.tuples(st.sampled_from(["insert", "delete"]), st.integers(1, 6),
                     st.lists(_EVENT, max_size=8))


def _reference(requests):
    """Per request: each job with a MOVE or MIGRATE event counts once, with
    the size of its last such event, in the order of its first; a job with
    a MIGRATE event migrated.  Every MIGRATE event counts in the migrate
    histogram."""
    realloc, migrate, migrations, per_op = Counter(), Counter(), 0, []
    for _, _, events in requests:
        sizes, order, migrated = {}, [], set()
        for name, size, kind in events:
            if kind in (_K.MOVE, _K.MIGRATE):
                if name not in sizes:
                    order.append(name)
                sizes[name] = size
            if kind is _K.MIGRATE:
                migrated.add(name)
                migrate[size] += 1
        realloc.update(sizes[n] for n in order)
        migrations += len(migrated)
        per_op.append(([(n, sizes[n]) for n in order], migrated))
    return realloc, migrate, migrations, per_op


@settings(max_examples=300, deadline=None)
@given(st.lists(_REQUEST, max_size=12))
@example([("delete", 3, [("a", 3, _K.MOVE), ("b", 2, _K.MOVE), ("a", 3, _K.MIGRATE),
                         ("a", 3, _K.MIGRATE), ("c", 1, _K.REMOVE)])])
def test_commit_matches_the_counting_rule(requests):
    led = Ledger()
    for kind, size, events in requests:
        led.begin(kind, "op", size)
        for name, w, k in events:
            led.record(name, w, k)
        led.commit()
    realloc, migrate, migrations, per_op = _reference(requests)
    assert led.realloc_hist == dict(realloc)
    assert led.migrate_hist == dict(migrate)
    assert led.total_migrations == migrations
    assert led.moved_jobs_total() == sum(realloc.values())
    assert led.alloc_hist == dict(Counter(w for k, w, _ in requests if k == "insert"))
    for op, (moved, migrated) in zip(led.reports, per_op):
        assert list(op.moved.items()) == moved
        assert set(op.migrated) == migrated

