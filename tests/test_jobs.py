"""Jobs and size-class arithmetic (Section 2 preliminaries)."""

import math
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.jobs import Job, PlacedJob, SizeClasser


def test_job_validation():
    Job("a", 1)
    with pytest.raises(ValueError):
        Job("a", 0)
    with pytest.raises(ValueError):
        Job("a", -5)


def test_placed_job_accessors():
    pj = PlacedJob(job=Job("x", 10), klass=3, start=7, server=2)
    assert pj.name == "x"
    assert pj.size == 10
    assert pj.end == 17
    assert pj.completion == 17
    assert pj.server == 2


def test_placed_job_equality_repr_and_pickling():
    """``name``/``size`` are slots copied from the job; equality, ``repr``
    and pickles see only the four constructor fields, as before."""
    pj = PlacedJob(job=Job("x", 10), klass=3, start=7, server=2)
    assert repr(pj) == "PlacedJob(job=Job(name='x', size=10), klass=3, start=7, server=2)"
    assert pj == PlacedJob(job=Job("x", 10), klass=3, start=7, server=2)
    assert pj != PlacedJob(job=Job("x", 10), klass=3, start=8, server=2)
    assert pj != PlacedJob(job=Job("y", 10), klass=3, start=7, server=2)
    pj.start = 9  # placements move in place
    assert pj.end == 19 and pj.completion == 19
    for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(pj, proto))
        assert back == pj and repr(back) == repr(pj)
        assert (back.name, back.size, back.end) == ("x", 10, 19)
    with pytest.raises(AttributeError):
        pj.note = "slots allow no ad-hoc attributes"


def test_class_of_boundaries():
    c = SizeClasser(1.0, 1024)  # classes are powers of two
    assert c.class_of(1) == 0
    assert c.class_of(2) == 1
    assert c.class_of(3) == 1
    assert c.class_of(4) == 2
    assert c.class_of(1024) == 10


def test_class_of_matches_log_formula():
    c = SizeClasser(0.5, 10_000)
    for w in list(range(1, 200)) + [999, 5000, 10_000]:
        expect = math.floor(math.log(w, 1.5) + 1e-12)
        assert c.class_of(w) == expect, w


def test_class_width_at_most_one_plus_delta():
    c = SizeClasser(0.25, 4096)
    for j in range(c.num_classes):
        lo = c.min_size(j)
        hi = c.max_class_size(j)
        if hi >= lo:
            assert hi < lo * (1 + 0.25) * (1 + 0.25)  # loose sanity


def test_min_size_is_in_class():
    c = SizeClasser(0.5, 4096)
    for j in range(c.num_classes):
        m = c.min_size(j)
        assert c.class_of(m) == j
        if m > 1:
            assert c.class_of(m - 1) == j - 1


def test_num_classes_counts_delta():
    c = SizeClasser(1.0, 1 << 12)
    assert c.num_classes == 13  # classes 0..12 for sizes up to 4096


def test_out_of_range_rejected():
    c = SizeClasser(0.5, 100)
    with pytest.raises(ValueError):
        c.class_of(0)
    with pytest.raises(ValueError):
        c.class_of(101)


def test_grow_extends_classes():
    c = SizeClasser(0.5, 10)
    k0 = c.num_classes
    c.grow(1000)
    assert c.max_size == 1000
    assert c.num_classes > k0
    assert c.class_of(1000) == c.num_classes - 1


def test_grow_is_monotone_noop_for_smaller():
    c = SizeClasser(0.5, 100)
    k0 = c.num_classes
    c.grow(50)
    assert c.num_classes == k0


def test_delta_validation():
    with pytest.raises(ValueError):
        SizeClasser(0.0, 10)
    with pytest.raises(ValueError):
        SizeClasser(1.5, 10)
    with pytest.raises(ValueError):
        SizeClasser(0.5, 0)


@settings(max_examples=100, deadline=None)
@given(
    w=st.integers(1, 1 << 20),
    delta=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
)
def test_class_of_consistent_with_bounds(w, delta):
    c = SizeClasser(delta, 1 << 20)
    j = c.class_of(w)
    assert c.min_size(j) <= w
    if j + 1 < c.num_classes:
        assert w < c.min_size(j + 1)


@settings(max_examples=60, deadline=None)
@given(delta=st.sampled_from([0.1, 0.3, 0.5, 1.0]), max_size=st.integers(1, 1 << 16))
def test_classes_partition_range(delta, max_size):
    """class_of is monotone in size (classes with no integer members may be
    skipped when delta is small)."""
    c = SizeClasser(delta, max_size)
    prev = 0
    for w in range(1, min(max_size, 300) + 1):
        j = c.class_of(w)
        assert j >= prev
        prev = j
