"""Tests for the request-bound machinery (frontier, rbf) vs brute force."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drt.model import DRTTask
from repro.drt.paths import enumerate_paths
from repro.drt.request import (
    FrontierExplorer,
    FrontierStats,
    RequestTuple,
    rbf_curve,
    rbf_value,
    request_frontier,
)
from repro.errors import BudgetExhaustedError, ModelError
from repro.resilience.budget import Budget, budget_scope

from .conftest import rational_drt_tasks, small_drt_tasks


def brute_rbf(task: DRTTask, delta) -> F:
    return max(
        (p.total_work for p in enumerate_paths(task, delta) if p.span <= delta),
        default=F(0),
    )


class TestRequestFrontier:
    def test_contains_initial_tuples(self, demo_task):
        tuples = request_frontier(demo_task, 0)
        times = {(t.vertex, t.time) for t in tuples}
        # At horizon 0, the heaviest job dominates per vertex.
        assert all(t.time == 0 for t in tuples)

    def test_pareto_invariant_per_vertex(self, demo_task):
        tuples = request_frontier(demo_task, 40)
        by_vertex = {}
        for t in tuples:
            by_vertex.setdefault(t.vertex, []).append(t)
        for vertex, ts in by_vertex.items():
            ts.sort(key=lambda r: r.time)
            for a, b in zip(ts, ts[1:]):
                assert a.time < b.time and a.work < b.work, vertex

    def test_negative_horizon_rejected(self, demo_task):
        with pytest.raises(ModelError):
            request_frontier(demo_task, -1)

    def test_prune_false_superset(self, demo_task):
        pruned = request_frontier(demo_task, 25)
        unpruned = request_frontier(demo_task, 25, prune=False)
        pruned_set = {(t.time, t.work, t.vertex) for t in pruned}
        unpruned_set = {(t.time, t.work, t.vertex) for t in unpruned}
        assert pruned_set <= unpruned_set
        # max work agree
        assert max(t.work for t in pruned) == max(t.work for t in unpruned)

    def test_stats_collected(self, demo_task):
        stats = FrontierStats()
        request_frontier(demo_task, 40, stats=stats)
        assert stats.expanded > 0
        assert stats.kept > 0
        assert stats.expanded >= stats.kept

    def test_pruning_reduces_kept(self, demo_task):
        s1, s2 = FrontierStats(), FrontierStats()
        request_frontier(demo_task, 40, prune=True, stats=s1)
        request_frontier(demo_task, 40, prune=False, stats=s2)
        assert s1.kept <= s2.kept


class TestFrontierStatsAccounting:
    """Regression: tuples evicted by a later insert must move from *kept*
    to *pruned*, keeping ``expanded == kept + pruned`` exact."""

    @pytest.fixture
    def eviction_task(self) -> DRTTask:
        # Two paths reach "c" simultaneously with different work: the
        # lighter tuple is kept first, then evicted by the heavier one.
        return DRTTask.build(
            "evict",
            jobs={"a": (1, 100), "b": (3, 100), "c": (1, 100)},
            edges=[("a", "c", 5), ("b", "c", 5)],
        )

    def test_eviction_counts_as_pruned(self, eviction_task):
        stats = FrontierStats()
        tuples = request_frontier(eviction_task, 5, stats=stats)
        # 3 initial pops + both successors of "c"; the lighter (5, 2, c)
        # is evicted by (5, 4, c).
        assert stats.expanded == 5
        assert stats.pruned == 1
        assert stats.kept == len(tuples) == 4
        assert stats.expanded == stats.kept + stats.pruned

    def test_invariant_demo(self, demo_task):
        stats = FrontierStats()
        tuples = request_frontier(demo_task, 60, stats=stats)
        assert stats.expanded == stats.kept + stats.pruned
        assert stats.kept == len(tuples)

    def test_invariant_unpruned(self, demo_task):
        stats = FrontierStats()
        tuples = request_frontier(demo_task, 40, prune=False, stats=stats)
        assert stats.pruned == 0
        assert stats.expanded == stats.kept == len(tuples)

    def test_truncated_stats_match_fresh_run(self, eviction_task):
        # Exploring far and asking for a smaller horizon must report the
        # same statistics as a fresh exploration of that horizon.
        ex = FrontierExplorer(eviction_task)
        ex.extend_to(50)
        for hz in (0, 3, 5, 20, 50):
            fresh = FrontierExplorer(eviction_task)
            fresh.extend_to(hz)
            assert ex.stats_at(hz) == fresh.stats_at(hz), hz

    @settings(max_examples=40, deadline=None)
    @given(task=small_drt_tasks())
    def test_invariant_random(self, task):
        for prune in (True, False):
            stats = FrontierStats()
            tuples = request_frontier(task, 30, prune=prune, stats=stats)
            assert stats.expanded == stats.kept + stats.pruned
            assert stats.kept == len(tuples)


class TestRbfValue:
    @pytest.mark.parametrize("delta", [0, 1, 5, 8, 10, 15, 20, 25, 30])
    def test_matches_brute_force_demo(self, demo_task, delta):
        assert rbf_value(demo_task, delta) == brute_rbf(demo_task, delta)

    def test_acyclic(self, chain_task):
        assert rbf_value(chain_task, 0) == 2
        assert rbf_value(chain_task, 4) == 3
        assert rbf_value(chain_task, 10) == 4

    def test_loop(self, loop_task):
        for k in range(5):
            assert rbf_value(loop_task, 10 * k) == 2 * (k + 1)


class TestRbfCurve:
    def test_exact_region(self, demo_task):
        c = rbf_curve(demo_task, 30)
        for d in [0, F(1, 2), 3, 5, 8, 10, 17, 25, F(59, 2)]:
            assert c.at(d) == brute_rbf(demo_task, d), d

    def test_tail_sound(self, demo_task):
        c = rbf_curve(demo_task, 30)
        for d in [30, 35, 40, 55, 70]:
            assert c.at(d) >= brute_rbf(demo_task, d), d

    def test_tail_rate_is_utilization(self, demo_task):
        from repro.drt.utilization import utilization

        c = rbf_curve(demo_task, 30)
        assert c.tail_rate == utilization(demo_task)

    def test_nondecreasing(self, demo_task):
        assert rbf_curve(demo_task, 30).is_nondecreasing()

    def test_zero_horizon(self, demo_task):
        c = rbf_curve(demo_task, 0)
        assert c.at(0) >= 3  # at least the heaviest job
        assert c.is_nondecreasing()

    def test_acyclic_curve_flattens(self, chain_task):
        c = rbf_curve(chain_task, 20)
        assert c.tail_rate == 0
        assert c.at(100) == 4


@settings(max_examples=40, deadline=None)
@given(task=small_drt_tasks())
def test_rbf_matches_brute_force_random(task):
    """Property: frontier rbf equals exhaustive enumeration."""
    for delta in [0, 5, 11, F(33, 2), 24]:
        assert rbf_value(task, delta) == brute_rbf(task, delta)


@settings(max_examples=40, deadline=None)
@given(task=rational_drt_tasks())
def test_rbf_matches_brute_force_rational(task):
    """Property: with rational parameters (time and work scales above 1)
    the frontier rbf equals exhaustive enumeration, at fractional
    horizons too, and the staircase is exact below its horizon."""
    for delta in [0, F(5, 2), F(11, 3), F(33, 4), F(97, 7), 17]:
        assert rbf_value(task, delta) == brute_rbf(task, delta)
    curve = FrontierExplorer(task).rbf_curve(F(43, 3))
    for delta in [0, F(1, 7), F(7, 2), F(29, 6), F(10), F(85, 6)]:
        assert curve.at(delta) == brute_rbf(task, delta), delta


@settings(max_examples=30, deadline=None)
@given(task=small_drt_tasks())
def test_rbf_subadditive_random(task):
    """Property: rbf(a + b) <= rbf(a) + rbf(b)."""
    pts = [F(3), F(7), F(12)]
    for a in pts:
        for b in pts:
            assert rbf_value(task, a + b) <= rbf_value(task, a) + rbf_value(
                task, b
            )


class TestIntServiceMemo:
    """``FrontierExplorer.lowered`` shares one ``IntService`` per
    ``(beta, S, W)`` through the ``drt.int_service`` process memo."""

    @staticmethod
    def _counter(name: str) -> int:
        from repro import perf

        return perf.counters().get(name, 0)

    def test_fresh_tasks_with_equal_scales_share_one_lowering(self, demo_task):
        from repro.minplus.builders import rate_latency

        twin = DRTTask(demo_task.name, demo_task.jobs.values(), demo_task.edges)
        low = FrontierExplorer(demo_task).lowered(rate_latency(F(1, 2), 4))
        # A curve decoded afresh is an equal key.
        assert FrontierExplorer(twin).lowered(rate_latency(F(1, 2), 4)) is low
        assert FrontierExplorer(twin).lowered(rate_latency(F(1, 2), 5)) is not low
        # Other units are another key: a WCET of 1/2 doubles W, so
        # work 1 is k = 2 there.
        halved = DRTTask.build(
            "demo",
            jobs={"a": (F(1, 2), 5), "b": (3, 8), "c": (2, 10)},
            edges=[("a", "b", 10), ("b", "c", 8), ("c", "a", 12), ("a", "a", 5)],
        )
        other = FrontierExplorer(halved).lowered(rate_latency(F(1, 2), 4))
        assert (other.D, other.inverse(2)) == (low.D, low.inverse(1))

    def test_counters_count_hits_and_misses(self, demo_task):
        from repro.minplus.builders import rate_latency
        from repro.parallel import reset_process_caches

        reset_process_caches()
        beta = rate_latency(F(1, 3), 2)
        hits = self._counter("drt.int_service_hits")
        misses = self._counter("drt.int_service_misses")
        ex = FrontierExplorer(demo_task)
        ex.lowered(beta)
        ex.lowered(beta)
        FrontierExplorer(demo_task).lowered(beta)
        assert self._counter("drt.int_service_misses") == misses + 1
        assert self._counter("drt.int_service_hits") == hits + 2

    def test_reset_process_caches_clears_the_memo(self, demo_task):
        from repro.drt import request
        from repro.minplus.builders import rate_latency
        from repro.parallel import reset_process_caches

        beta = rate_latency(F(1, 2), 4)
        low = FrontierExplorer(demo_task).lowered(beta)
        assert len(request._INT_SERVICES) > 0
        reset_process_caches()
        assert len(request._INT_SERVICES) == 0
        assert FrontierExplorer(demo_task).lowered(beta) is not low


@settings(max_examples=30, deadline=None)
@given(task=small_drt_tasks())
def test_linear_bound_dominates_rbf_random(task):
    """Property: rbf(t) <= B + rho*t for the exact linear bound."""
    from repro.drt.utilization import linear_request_bound

    burst, rho = linear_request_bound(task)
    for d in [0, 4, 9, 15, 22, 30]:
        assert brute_rbf(task, d) <= burst + rho * d


#: Expansion allowances that cut an ``extend_to`` short.
RESUME_ALLOWANCES = (0, 1, 2, 5, 17)


@settings(max_examples=40, deadline=None)
@given(task=st.one_of(small_drt_tasks(), rational_drt_tasks()))
def test_extend_resumes_after_budget_exhaustion(task):
    """Property: an ``extend_to`` cut short by an expansion budget and
    then resumed with none leaves the explorer exactly as a fresh one,
    for integer and rational tasks alike."""
    hz = F(40)
    fresh = FrontierExplorer(task)
    expected = (fresh.tuples(hz), fresh.stats_at(hz), fresh.rbf_curve(hz))
    grows = expected[0] != fresh.tuples(hz / 3)
    for k in RESUME_ALLOWANCES:
        ex = FrontierExplorer(task)
        # A sorted prefix exists while the extension is in flight.
        ex.tuples(hz / 3)
        stopped = False
        with budget_scope(Budget(max_expansions=k)):
            try:
                ex.extend_to(hz)
            except BudgetExhaustedError:
                stopped = True
        if k == 0 and grows:
            # A tuple past hz / 3 is kept only by an expansion, which a
            # zero allowance refuses.
            assert stopped
        ex.extend_to(hz)
        assert (ex.tuples(hz), ex.stats_at(hz), ex.rbf_curve(hz)) == expected
