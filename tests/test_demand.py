"""Tests for the demand-bound machinery vs brute force."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drt.demand import dbf_curve, dbf_value
from repro.drt.model import DRTTask
from repro.drt.paths import enumerate_paths
from repro.drt.request import rbf_value
from repro.drt.validate import is_constrained_deadline
from repro.errors import ModelError

from .conftest import oracle_settings, rational_drt_tasks, small_drt_tasks


def brute_dbf(task: DRTTask, delta) -> F:
    """True demand in a window of length *delta*: per enumerated path,
    the work of the jobs whose release plus deadline falls within it."""
    best = F(0)
    for p in enumerate_paths(task, delta):
        best = max(best, sum(
            (task.wcet(v) for v, t in zip(p.vertices, p.releases)
             if t + task.deadline(v) <= delta),
            F(0),
        ))
    return best


@pytest.fixture
def constrained_task() -> DRTTask:
    return DRTTask.build(
        "ct",
        jobs={"a": (1, 5), "b": (3, 8), "c": (2, 10)},
        edges=[("a", "b", 10), ("b", "c", 8), ("c", "a", 12), ("a", "a", 5)],
    )


@pytest.fixture
def hidden_task() -> DRTTask:
    """A long-deadline job between two short-deadline ones: the window
    due by ``7/2`` holds ``a`` and ``c`` but not ``b``."""
    return DRTTask.build(
        "hidden",
        jobs={"a": (1, 2), "b": (1, 100), "c": (1, 2)},
        edges=[("a", "b", 1), ("b", "c", F(1, 2)), ("c", "a", 200)],
    )


class TestDbfValue:
    @pytest.mark.parametrize("delta", [0, 1, 5, 8, 13, 20, 26, 31, 40])
    def test_matches_brute_force(self, constrained_task, delta):
        assert dbf_value(constrained_task, delta) == brute_dbf(
            constrained_task, delta
        )

    def test_zero_when_nothing_fits(self, constrained_task):
        assert dbf_value(constrained_task, 2) == 0

    def test_never_exceeds_rbf(self, constrained_task):
        for d in [0, 5, 10, 20, 30]:
            assert dbf_value(constrained_task, d) <= rbf_value(
                constrained_task, d
            )

    def test_negative_window_rejected(self, constrained_task):
        with pytest.raises(ModelError):
            dbf_value(constrained_task, -2)

    def test_counts_job_after_a_long_deadline(self, hidden_task):
        assert brute_dbf(hidden_task, F(7, 2)) == 2
        assert dbf_value(hidden_task, F(7, 2)) >= 2


class TestDbfCurve:
    def test_exact_region(self, constrained_task):
        c = dbf_curve(constrained_task, 30)
        for d in [0, 2, 5, 8, 13, 20, F(51, 2), 29]:
            assert c.at(d) == brute_dbf(constrained_task, d), d

    def test_tail_sound(self, constrained_task):
        c = dbf_curve(constrained_task, 30)
        for d in [30, 33, 45, 60]:
            assert c.at(d) >= brute_dbf(constrained_task, d)

    def test_nondecreasing(self, constrained_task):
        assert dbf_curve(constrained_task, 30).is_nondecreasing()

    def test_starts_at_zero(self, constrained_task):
        assert dbf_curve(constrained_task, 30).at(0) == 0

    def test_negative_horizon_rejected(self, constrained_task):
        with pytest.raises(ModelError):
            dbf_curve(constrained_task, -2)


@oracle_settings(60)
@given(task=st.one_of(small_drt_tasks(), rational_drt_tasks()))
def test_dbf_sound_random(task):
    """Property: dbf_value upper-bounds the true demand for any
    deadlines, and equals it when deadlines are constrained."""
    for delta in [0, 6, 13, 21]:
        v = dbf_value(task, delta)
        b = brute_dbf(task, delta)
        assert v >= b
        if is_constrained_deadline(task):
            assert v == b


@oracle_settings()
@given(
    task=rational_drt_tasks(),
    horizon=st.fractions(min_value=0, max_value=30, max_denominator=6),
)
def test_curve_agrees_with_value(task, horizon):
    """Below its horizon the curve reads dbf_value; at and beyond it, at
    least dbf_value."""
    c = dbf_curve(task, horizon)
    for d in sorted({F(0), horizon / 3, horizon / 2, horizon, horizon + 5}):
        if d < horizon:
            assert c.at(d) == dbf_value(task, d), d
        else:
            assert c.at(d) >= dbf_value(task, d), d


@settings(max_examples=30, deadline=None)
@given(task=small_drt_tasks())
def test_dbf_below_rbf_random(task):
    for delta in [0, 6, 13, 21]:
        assert dbf_value(task, delta) <= rbf_value(task, delta)
