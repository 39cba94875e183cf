"""Tests for the shared analysis context and perf instrumentation.

The incremental engine's contract: every analysis served from the
per-``(task, beta)`` :class:`~repro.core.context.AnalysisContext` is
bit-identical to its from-scratch counterpart, and expensive artefacts
(busy window, frontier, pseudo-inverses) are computed exactly once.
"""

from fractions import Fraction as F

import pytest

from repro import perf
from repro.core.backlog import structural_backlog
from repro.core.busy_window import busy_window_bound
from repro.core.context import AnalysisContext
from repro.core.delay import structural_delay, structural_delays_per_job
from repro.core.facade import StructuralAnalysis
from repro.drt.model import DRTTask
from repro.drt.request import frontier_explorer
from repro.minplus.builders import rate_latency
from repro.parallel import reset_process_caches


@pytest.fixture
def beta():
    return rate_latency(F(1, 2), 4)


class TestAnalysisContext:
    def test_of_memoizes_per_task_and_beta(self, demo_task, beta):
        assert AnalysisContext.of(demo_task, beta) is AnalysisContext.of(
            demo_task, beta
        )
        other = rate_latency(F(1, 2), 5)
        assert AnalysisContext.of(demo_task, beta) is not AnalysisContext.of(
            demo_task, other
        )

    def test_entry_points_share_one_context(self, demo_task, beta):
        ctx = AnalysisContext.of(demo_task, beta)
        assert structural_delay(demo_task, beta) is ctx.delay_result()
        assert (
            structural_backlog(demo_task, beta) is ctx.backlog_result()
        )
        assert structural_delays_per_job(demo_task, beta) == ctx.per_job()

    def test_matches_scratch_bit_exact(self, demo_task, beta):
        """A task whose shared explorer was extended past ``L`` by an
        earlier analysis answers exactly like a fresh copy analysed in
        a process with every memo cleared."""
        warm = structural_delay(demo_task, beta.hshift(10))
        cached = structural_delay(demo_task, beta)
        assert warm.busy_window > cached.busy_window
        reset_process_caches()
        fresh = DRTTask(
            demo_task.name, list(demo_task.jobs.values()), list(demo_task.edges)
        )
        scratch = structural_delay(fresh, beta)
        assert cached.delay == scratch.delay
        assert cached.busy_window == scratch.busy_window
        assert cached.horizon == scratch.horizon
        assert cached.critical_tuple == scratch.critical_tuple
        assert cached.tuple_count == scratch.tuple_count
        assert cached.stats == scratch.stats
        assert structural_delays_per_job(
            demo_task, beta
        ) == structural_delays_per_job(fresh, beta)
        assert structural_backlog(demo_task, beta) == structural_backlog(
            fresh, beta
        )

    def test_per_job_returns_fresh_dict(self, demo_task, beta):
        ctx = AnalysisContext.of(demo_task, beta)
        first = ctx.per_job()
        first["a"] = F(-1)
        assert ctx.per_job()["a"] != F(-1)

    def test_busy_window_memoized(self, demo_task, beta):
        perf.reset()
        busy_window_bound(demo_task, beta)
        busy_window_bound(demo_task, beta)
        counters = perf.counters()
        assert counters.get("busy_window.cache_hits", 0) >= 1
        assert counters["busy_window.cache_misses"] == 1

    def test_shared_explorer_is_reused(self, demo_task, beta):
        ex = frontier_explorer(demo_task)
        structural_delay(demo_task, beta)
        assert frontier_explorer(demo_task) is ex
        assert ex.explored_horizon is not None

    def test_facade_serves_from_context(self, demo_task, beta):
        analysis = StructuralAnalysis(demo_task, beta)
        ctx = AnalysisContext.of(demo_task, beta)
        assert analysis.delay_result() is ctx.delay_result()
        assert analysis.delay() == ctx.delay_result().delay
        assert analysis.backlog() == ctx.backlog_result().backlog


class TestPerfRegistry:
    def test_counters_and_reset(self):
        reg = perf.PerfRegistry()
        reg.record("x")
        reg.record("x", 2)
        assert reg.counters() == {"x": 3}
        reg.reset()
        assert reg.counters() == {}

    def test_timers_accumulate(self):
        reg = perf.PerfRegistry()
        with reg.timed("phase"):
            pass
        with reg.timed("phase"):
            pass
        assert reg.timers()["phase"] >= 0.0
        snap = reg.snapshot()
        assert set(snap) == {"counters", "timers"}

    def test_report_mentions_counters(self):
        reg = perf.PerfRegistry()
        reg.record("frontier.tuples_expanded", 7)
        with reg.timed("busy_window"):
            pass
        text = reg.report()
        assert "frontier.tuples_expanded: 7" in text
        assert "busy_window" in text

    def test_engine_reports_into_registry(self, demo_task, beta):
        perf.reset()
        structural_delay(demo_task, beta)
        counters = perf.counters()
        assert counters.get("pinv.evaluations", 0) > 0
        # A fresh task explores at least once.
        assert counters.get("frontier.extend_calls", 0) > 0
