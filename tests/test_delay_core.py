"""Tests for the structural delay analysis and its baselines.

The two key theorems are asserted on random instances:

* *exactness*: the frontier analysis equals brute-force path enumeration;
* *abstraction ordering*: structural == hdev(exact rbf) <= concave hull
  <= token bucket, and sporadic dominates (or is unbounded).
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from repro.core.baselines import (
    concave_hull,
    concave_hull_delay,
    rtc_backlog,
    rtc_delay,
    sporadic_delay,
    token_bucket_delay,
)
from repro.core.delay import (
    critical_path_of,
    exhaustive_delay,
    structural_delay,
    structural_delays_per_job,
)
from repro.core.frontier import dominates, pareto_front
from repro.curves.service import tdma_service
from repro.drt.model import DRTTask
from repro.errors import UnboundedBusyWindowError
from repro.minplus.builders import rate_latency

from .conftest import rational_drt_tasks, service_curves, small_drt_tasks


class TestFrontierUtils:
    def test_dominates(self):
        assert dominates((F(1), F(5)), (F(2), F(3)))
        assert not dominates((F(2), F(3)), (F(1), F(5)))
        assert dominates((F(1), F(5)), (F(1), F(5)))

    def test_pareto_front(self):
        pts = [(F(0), F(2)), (F(1), F(2)), (F(1), F(4)), (F(3), F(3))]
        assert pareto_front(pts) == [(F(0), F(2)), (F(1), F(4))]

    def test_pareto_front_empty(self):
        assert pareto_front([]) == []


class TestStructuralDelay:
    def test_demo_exact(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        res = structural_delay(demo_task, beta)
        assert res.delay == 10
        assert res.busy_window == 14
        assert res.critical_tuple is not None
        assert res.tuple_count > 0

    def test_equals_exhaustive(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        assert structural_delay(demo_task, beta).delay == exhaustive_delay(
            demo_task, beta
        )

    def test_no_prune_same_result(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        a = structural_delay(demo_task, beta, prune=True)
        b = structural_delay(demo_task, beta, prune=False)
        assert a.delay == b.delay
        assert a.stats.kept <= b.stats.kept

    def test_overload_raises(self, demo_task):
        with pytest.raises(UnboundedBusyWindowError):
            structural_delay(demo_task, rate_latency(F(1, 10), 0))

    def test_delay_monotone_in_latency(self, demo_task):
        d1 = structural_delay(demo_task, rate_latency(F(1, 2), 2)).delay
        d2 = structural_delay(demo_task, rate_latency(F(1, 2), 6)).delay
        assert d1 < d2

    def test_delay_monotone_in_rate(self, demo_task):
        d1 = structural_delay(demo_task, rate_latency(F(1, 2), 4)).delay
        d2 = structural_delay(demo_task, rate_latency(1, 4)).delay
        assert d2 < d1

    def test_acyclic_task(self, chain_task):
        res = structural_delay(chain_task, rate_latency(F(1, 4), 2))
        assert res.delay == exhaustive_delay(chain_task, rate_latency(F(1, 4), 2))


class TestPerJobDelays:
    def test_max_equals_overall(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        per = structural_delays_per_job(demo_task, beta)
        assert max(per.values()) == structural_delay(demo_task, beta).delay

    def test_every_job_present(self, demo_task):
        per = structural_delays_per_job(demo_task, rate_latency(1, 1))
        assert set(per) == set(demo_task.job_names)

    def test_per_job_below_overall(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        overall = structural_delay(demo_task, beta).delay
        for d in structural_delays_per_job(demo_task, beta).values():
            assert d <= overall


class TestCriticalPath:
    def test_witness_matches_tuple(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        res = structural_delay(demo_task, beta)
        path = critical_path_of(demo_task, res)
        assert path is not None
        assert path.span == res.critical_tuple.time
        assert path.total_work == res.critical_tuple.work
        assert path.vertices[-1] == res.critical_tuple.vertex

    def test_no_tuple_gives_none(self, loop_task):
        res = structural_delay(loop_task, rate_latency(1000, 0))
        if res.critical_tuple is None:
            assert critical_path_of(loop_task, res) is None

    def test_diamond_graph_stays_polynomial(self):
        """Regression: the witness DFS used to revisit exponentially many
        ``(vertex, span, work)`` states on diamond chains — 2^n distinct
        paths all share the same state sequence.  With state memoization
        the search is linear in the number of states."""
        import time as _time

        from repro.core.delay import DelayResult
        from repro.drt.request import FrontierStats, RequestTuple

        n = 20  # 2^20 concrete paths without memoization
        jobs = {}
        edges = []
        for i in range(n):
            jobs[f"v{i}"] = (1, 1000)
            jobs[f"a{i}"] = (1, 1000)
            jobs[f"b{i}"] = (1, 1000)
            edges += [
                (f"v{i}", f"a{i}", 1),
                (f"v{i}", f"b{i}", 1),
                (f"a{i}", f"v{i + 1}", 1),
                (f"b{i}", f"v{i + 1}", 1),
            ]
        jobs[f"v{n}"] = (1, 1000)
        task = DRTTask.build("diamond", jobs=jobs, edges=edges)
        # The deepest tuple: v0 -> {a|b}0 -> v1 -> ... -> vn.
        target = RequestTuple(F(2 * n), F(2 * n + 1), f"v{n}")
        res = DelayResult(
            delay=F(1),
            busy_window=F(2 * n),
            horizon=F(2 * n),
            critical_tuple=target,
            tuple_count=1,
            stats=FrontierStats(),
        )
        t0 = _time.perf_counter()
        path = critical_path_of(task, res)
        elapsed = _time.perf_counter() - t0
        assert path is not None
        assert path.span == target.time
        assert path.total_work == target.work
        assert path.vertices[-1] == target.vertex
        # Memoized search touches ~3n states; the unmemoized DFS would
        # walk ~2^n paths and time out by orders of magnitude.
        assert elapsed < 5.0


class TestBaselineOrdering:
    def test_rtc_equals_structural(self, demo_task):
        """hdev over the exact rbf maximises the same functional over the
        same Pareto frontier: the two independent code paths must agree."""
        for beta in [rate_latency(F(1, 2), 4), rate_latency(1, 0), tdma_service(1, 2, 5, 40)]:
            assert rtc_delay(demo_task, beta) == structural_delay(demo_task, beta).delay

    def test_hull_and_token_bucket_dominate(self, demo_task):
        beta = tdma_service(1, 2, 5, 60)
        s = structural_delay(demo_task, beta).delay
        h = concave_hull_delay(demo_task, beta)
        t = token_bucket_delay(demo_task, beta)
        assert s <= h <= t

    def test_sporadic_dominates_or_unbounded(self, demo_task):
        beta = rate_latency(2, 4)
        assert sporadic_delay(demo_task, beta) >= structural_delay(
            demo_task, beta
        ).delay

    def test_sporadic_unbounded_case(self, demo_task):
        with pytest.raises(UnboundedBusyWindowError):
            sporadic_delay(demo_task, rate_latency(F(1, 2), 4))

    def test_token_bucket_overload(self, demo_task):
        with pytest.raises(UnboundedBusyWindowError):
            token_bucket_delay(demo_task, rate_latency(F(1, 5), 0))

    def test_backlog_bound(self, demo_task):
        b = rtc_backlog(demo_task, rate_latency(F(1, 2), 4))
        assert b >= 3  # at least the initial burst before any service


class TestConcaveHull:
    def test_dominates_curve(self, demo_task):
        from repro.core.busy_window import busy_window_bound

        bw = busy_window_bound(demo_task, rate_latency(F(1, 2), 4))
        hull = concave_hull(bw.rbf, bw.rbf.tail_rate)
        for k in range(0, 120):
            t = F(k, 2)
            assert hull.at(t) >= bw.rbf.at(t), t

    def test_hull_is_concave(self, demo_task):
        from repro.core.busy_window import busy_window_bound

        bw = busy_window_bound(demo_task, rate_latency(F(1, 2), 4))
        hull = concave_hull(bw.rbf, bw.rbf.tail_rate)
        slopes = [s.slope for s in hull.segments]
        assert slopes == sorted(slopes, reverse=True)


def _assert_structural_equals_exhaustive(task, beta):
    from repro.drt.utilization import utilization

    if utilization(task) >= beta.tail_rate:
        return
    try:
        res = structural_delay(task, beta)
    except UnboundedBusyWindowError:
        return
    if res.busy_window > 60:
        return  # keep brute force tractable
    assert res.delay == exhaustive_delay(task, beta)


@settings(max_examples=25, deadline=None)
@given(task=small_drt_tasks(), beta=service_curves())
def test_structural_equals_exhaustive_random(task, beta):
    """Property: abstraction loses nothing vs brute-force enumeration."""
    _assert_structural_equals_exhaustive(task, beta)


@settings(max_examples=25, deadline=None)
@given(task=rational_drt_tasks(), beta=service_curves())
def test_structural_equals_exhaustive_rational(task, beta):
    """Property: the same with rational parameters (scales above 1)."""
    _assert_structural_equals_exhaustive(task, beta)


@settings(max_examples=25, deadline=None)
@given(task=small_drt_tasks(), beta=service_curves())
def test_abstraction_ordering_random(task, beta):
    """Property: structural == rtc <= hull <= token bucket."""
    from repro.drt.utilization import utilization

    if utilization(task) >= beta.tail_rate:
        return
    try:
        s = structural_delay(task, beta).delay
    except UnboundedBusyWindowError:
        return
    assert s == rtc_delay(task, beta)
    assert s <= concave_hull_delay(task, beta)
    assert concave_hull_delay(task, beta) <= token_bucket_delay(task, beta)
