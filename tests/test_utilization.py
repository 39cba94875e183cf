"""Tests for maximum cycle ratio and the linear request bound."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from repro.drt.model import DRTTask
from repro.drt.utilization import (
    critical_cycle,
    linear_request_bound,
    max_cycle_ratio,
    utilization,
)

from .conftest import rational_drt_tasks, small_drt_tasks


class TestMaxCycleRatio:
    def test_self_loop(self, loop_task):
        assert max_cycle_ratio(loop_task) == F(1, 5)

    def test_acyclic_zero(self, chain_task):
        assert max_cycle_ratio(chain_task) == 0

    def test_demo(self, demo_task):
        # cycles: a->a (1/5); a->b->c->a (6/30) -> both 1/5
        assert max_cycle_ratio(demo_task) == F(1, 5)

    def test_picks_heavier_cycle(self):
        t = DRTTask.build(
            "two",
            jobs={"a": (1, 10), "b": (4, 10)},
            edges=[("a", "a", 10), ("a", "b", 10), ("b", "a", 10)],
        )
        # a-loop: 1/10; a-b cycle: 5/20 = 1/4
        assert max_cycle_ratio(t) == F(1, 4)

    def test_utilization_alias(self, demo_task):
        assert utilization(demo_task) == max_cycle_ratio(demo_task)

    def test_critical_cycle_ratio(self):
        t = DRTTask.build(
            "two",
            jobs={"a": (1, 10), "b": (4, 10)},
            edges=[("a", "a", 10), ("a", "b", 10), ("b", "a", 10)],
        )
        cyc = critical_cycle(t)
        assert cyc is not None
        assert set(cyc) == {"a", "b"}

    def test_critical_cycle_acyclic_none(self, chain_task):
        assert critical_cycle(chain_task) is None

    def test_critical_cycle_beside_a_near_tie(self):
        """A second cycle whose ratio lies within 1e-9 below rho must not
        hide the critical one (it used to make this return None)."""
        near = 1 - F(2, 10**12)
        t = DRTTask.build(
            "near-tie",
            jobs={"a": (1, 9), "b": (1, 9), "c": (1, 9), "d": (near, 9)},
            edges=[
                ("a", "b", 2), ("b", "a", 2), ("c", "d", 2), ("d", "c", 2),
            ],
        )
        assert max_cycle_ratio(t) == F(1, 2)
        cyc = critical_cycle(t)
        assert cyc is not None
        assert set(cyc) == {"a", "b"}

    @settings(max_examples=40, deadline=None)
    @given(task=rational_drt_tasks())
    def test_critical_cycle_realises_rho_rational(self, task):
        from repro.drt.request import int_task
        from repro.drt.utilization import _cycle_ratio

        cyc = critical_cycle(task)
        assert cyc is not None
        assert _cycle_ratio(int_task(task), cyc) == max_cycle_ratio(task)


class TestLinearRequestBound:
    def test_loop(self, loop_task):
        burst, rho = linear_request_bound(loop_task)
        assert rho == F(1, 5)
        assert burst == 2  # single job, reduced weights never improve

    def test_acyclic_burst_is_heaviest_path(self, chain_task):
        burst, rho = linear_request_bound(chain_task)
        assert rho == 0
        assert burst == 4  # p+q+r

    def test_demo(self, demo_task):
        burst, rho = linear_request_bound(demo_task)
        assert rho == F(1, 5)
        # heaviest reduced walk: b(3) + c(2) - 8/5 ... = 17/5 (validated
        # against brute force in the property test below)
        assert burst == F(17, 5)

    def test_bound_touches_somewhere(self, demo_task):
        """The bound is tight: some walk realises the burst."""
        from repro.drt.paths import enumerate_paths

        burst, rho = linear_request_bound(demo_task)
        best = max(
            p.total_work - rho * p.span for p in enumerate_paths(demo_task, 60)
        )
        assert best == burst


@settings(max_examples=40, deadline=None)
@given(task=small_drt_tasks())
def test_linear_bound_dominates_walks_random(task):
    """Property: every walk satisfies work - rho*span <= burst."""
    from repro.drt.paths import enumerate_paths

    burst, rho = linear_request_bound(task)
    for p in enumerate_paths(task, 40):
        assert p.total_work - rho * p.span <= burst


@settings(max_examples=40, deadline=None)
@given(task=small_drt_tasks())
def test_max_cycle_ratio_vs_cycles_random(task):
    """Property: mcr dominates the ratio of every short closed walk."""
    from repro.drt.paths import enumerate_paths

    rho = max_cycle_ratio(task)
    for p in enumerate_paths(task, 50):
        if p.length >= 2 and p.vertices[0] == p.vertices[-1]:
            # closed walk: work excludes the repeated end vertex
            work = p.total_work - task.wcet(p.vertices[-1])
            assert work / p.span <= rho
