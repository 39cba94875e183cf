"""Pickle round trips: curves, tasks, results — worker-transport safety."""

from __future__ import annotations

import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from repro._numeric import INF
from repro.core.backlog import structural_backlog
from repro.core.context import AnalysisContext
from repro.core.delay import structural_delay
from repro.drt.model import DRTTask
from repro.minplus import kernels
from repro.minplus.backend import _force
from repro.minplus.builders import rate_latency, token_bucket
from repro.minplus.curve import Curve
from repro.parallel import parallel_map

from tests.conftest import monotone_curves, small_drt_tasks


def _rt(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class TestCurvePickle:
    @settings(max_examples=25, deadline=None)
    @given(c=monotone_curves())
    def test_round_trip_equality(self, c):
        assert _rt(c) == c

    def test_lowered_arrays_shared_after_round_trip(self):
        if not kernels.AVAILABLE:
            pytest.skip("no NumPy: nothing is lowered")
        c = rate_latency(F(2, 3), 4)
        lw = kernels.lowered(c)
        copy = _rt(c)
        assert copy is not c
        assert kernels.lowered(copy) is lw

    def test_pickle_carries_no_derived_state(self):
        c = token_bucket(3, F(1, 2))
        c.digest()
        assert c.__reduce__() == (Curve, (c.segments,))
        assert _rt(c)._digest is None

    def test_digest_survives_round_trip(self):
        c = token_bucket(3, F(1, 2))
        assert _rt(c).digest() == c.digest()

    def test_inf_singleton_identity(self):
        # Sentinel comparisons all over the analyses use `is`/is_inf, so
        # a worker-to-parent trip must preserve the singleton.
        assert _rt(INF) is INF
        assert _rt((INF, F(1, 3)))[0] is INF


class TestTaskPickle:
    @settings(max_examples=25, deadline=None)
    @given(t=small_drt_tasks())
    def test_definition_preserved(self, t):
        t2 = _rt(t)
        assert t2.name == t.name
        assert t2.job_names == t.job_names  # insertion order intact
        assert t2.jobs == t.jobs
        assert t2.edges == t.edges

    def test_analysis_cache_not_shipped(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        AnalysisContext.of(demo_task, beta).delay_result()
        assert demo_task._analysis_cache  # populated by the analysis
        t2 = _rt(demo_task)
        assert t2._analysis_cache == {}

    def test_round_trip_analyses_bit_identical(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        original = structural_delay(demo_task, beta)
        copied = structural_delay(_rt(demo_task), beta)
        assert copied == original  # including the critical tuple


class TestResultPickle:
    def test_delay_result_round_trip(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        res = structural_delay(demo_task, beta)
        assert _rt(res) == res

    def test_backlog_result_round_trip(self, demo_task):
        beta = rate_latency(F(1, 2), 4)
        res = structural_backlog(demo_task, beta)
        assert _rt(res) == res


# ---------------------------------------------------------------------------
# Kernel-tier parity inside worker processes
# ---------------------------------------------------------------------------


def _worker_delay(item):
    task, beta = item
    return structural_delay(task, beta).delay


def test_hybrid_worker_matches_exact_parent(demo_task):
    """A worker on its own size dispatch matches an exact-pinned parent
    (the pin is a test seam and never ships to workers)."""
    beta = rate_latency(F(1, 2), 4)
    with _force("exact"):
        exact = structural_delay(_rt(demo_task), beta).delay
    (dispatched,) = parallel_map(
        _worker_delay, [(demo_task, beta)], jobs=2, fresh_caches=True
    )
    assert dispatched == exact
