"""Fused op pipelines: bit-identity to unfused exact.

``fused_deconv_hdev`` / ``fused_conv_hdev`` may only change *how* the
GPC and pay-bursts-only-once bounds are computed, never their values:
every test drives the fused hybrid path and the unfused pure-exact path
over random and adversarial (one-ulp tie) curves and asserts full
equality.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro._numeric import Q, is_inf
from repro.minplus import kernels
from repro.minplus.backend import _force
from repro.minplus.convolution import min_plus_conv, min_plus_deconv
from repro.minplus.curve import Curve
from repro.minplus.deviation import horizontal_deviation, vertical_deviation
from repro.minplus.segment import Segment

from .conftest import monotone_curves, service_curves
from .test_kernels import _service, _stair, _tier

pytestmark = pytest.mark.skipif(
    not kernels.AVAILABLE, reason="fused pipelines need numpy"
)


def _capture(fn):
    """Result or exception, for comparing the two paths' full behaviour."""
    try:
        return ("ok", fn())
    except Exception as exc:
        return ("err", type(exc), str(exc))


def _gpc_triple_exact(f, g):
    with _force("exact"):
        return (
            horizontal_deviation(f, g),
            vertical_deviation(f, g),
            min_plus_deconv(f, g, on_dip="fill"),
        )


def _fused_vs_exact(f, g):
    """Both paths' (outcome, value); fused must not decline (monotone)."""
    want = _capture(lambda: _gpc_triple_exact(f, g))
    kernels.op_cache_clear()
    with _force("hybrid"):
        got = _capture(lambda: kernels.fused_deconv_hdev(f, g))
    kernels.op_cache_clear()
    if got[0] == "ok":
        assert got[1] is not None
    return got, want


class TestFusedDeconvHdev:
    @settings(max_examples=60, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves())
    def test_matches_unfused_exact(self, f, g):
        got, want = _fused_vs_exact(f, g)
        assert got == want

    @settings(max_examples=40, deadline=None)
    @given(f=monotone_curves(), g=service_curves())
    def test_matches_on_service_curves(self, f, g):
        got, want = _fused_vs_exact(f, g)
        assert got == want

    def test_one_ulp_ties(self):
        # Values whose float64 images collide: the certified intervals
        # overlap everywhere, forcing every screen to the exact path —
        # the fused chain must still produce the exact triple.
        big = F(10**17)
        f = Curve(
            [
                Segment(F(0), big, F(0)),
                Segment(F(3), big + 1, F(1, 3)),
            ]
        )
        g = Curve(
            [
                Segment(F(0), F(0), F(0)),
                Segment(F(1), big - 1, F(1, 3)),
            ]
        )
        want = _gpc_triple_exact(f, g)
        kernels.op_cache_clear()
        with _force("hybrid"):
            fused = kernels.fused_deconv_hdev(f, g)
        kernels.op_cache_clear()
        assert fused == want

    def test_overloaded_component_raises_like_unfused(self):
        from repro.errors import CurveError

        f = Curve([Segment(F(0), F(1), F(2))])  # rate 2 arrival
        g = Curve([Segment(F(0), F(0), F(1))])  # rate 1 service
        # The deconv stage diverges; fused and unfused agree on the error
        # (the vertical deviation alone would be INF, which the fused
        # chain never reaches because the output stage raises first).
        got, want = _fused_vs_exact(f, g)
        assert got == want
        assert got[0] == "err" and got[1] is CurveError
        assert is_inf(vertical_deviation(f, g))

    def test_exact_dispatch_declines(self):
        f, g = _stair(5, 1), _service(5, 2)
        with _force("exact"):
            assert kernels.fused_deconv_hdev(f, g) is None
        # Small curves under size dispatch hit the exact regime.
        assert kernels.fused_deconv_hdev(f, g) is None

    def test_memoized_per_chain(self):
        f, g = _stair(40, 1), _service(40, 2)
        kernels.op_cache_clear()
        with _force("hybrid"):
            first = kernels.fused_deconv_hdev(f, g)
            before = perf.snapshot()["counters"].get("kernel.fused_chains", 0)
            again = kernels.fused_deconv_hdev(f, g)
            after = perf.snapshot()["counters"].get("kernel.fused_chains", 0)
        kernels.op_cache_clear()
        assert again == first
        assert after == before  # second call served from the chain memo


class TestFusedConvHdev:
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=monotone_curves(),
        betas=st.lists(service_curves(), min_size=1, max_size=3),
    )
    def test_matches_unfused_exact(self, alpha, betas):
        with _force("exact"):
            acc = betas[0]
            for b in betas[1:]:
                acc = min_plus_conv(acc, b, on_dip="raise")
            want = (horizontal_deviation(alpha, acc), acc)
        kernels.op_cache_clear()
        with _force("hybrid"):
            fused = kernels.fused_conv_hdev(alpha, betas)
        kernels.op_cache_clear()
        assert fused == want

    def test_memo_replays_whole_pipeline(self):
        alpha = _stair(60, 1)
        betas = [_service(60, 3), _service(50, 4)]
        kernels.op_cache_clear()
        with _force("hybrid"):
            first = kernels.fused_conv_hdev(alpha, betas)
            before = perf.snapshot()["counters"].get("kernel.fused_chains", 0)
            again = kernels.fused_conv_hdev(alpha, betas)
            after = perf.snapshot()["counters"].get("kernel.fused_chains", 0)
        kernels.op_cache_clear()
        assert again == first
        assert after == before

    def test_empty_chain_declines(self):
        with _force("hybrid"):
            assert kernels.fused_conv_hdev(_stair(30, 1), []) is None


class TestGpcAndChainWiring:
    """The RTC layers produce identical results with fusion on and off."""

    def test_gpc_identical_across_backends(self):
        """Across the pinned tiers and the unpinned size dispatch."""
        from repro.rtc.gpc import gpc

        alpha, beta = _stair(50, 1), _service(60, 3)
        with _force("exact"):
            want = gpc(alpha, beta)
        kernels.op_cache_clear()
        for tier in ("hybrid", "auto"):
            with _tier(tier):
                got = gpc(alpha, beta)
            kernels.op_cache_clear()
            assert (got.delay, got.backlog) == (want.delay, want.backlog)
            assert got.output_arrival == want.output_arrival
            assert got.remaining_service == want.remaining_service

    def test_chain_analysis_identical_across_backends(self):
        from repro.rtc.network import chain_analysis

        alpha = _stair(40, 1)
        betas = [_service(50, 3), _service(45, 4)]
        with _force("exact"):
            want = chain_analysis(alpha, betas)
        kernels.op_cache_clear()
        for tier in ("hybrid", "auto"):
            with _tier(tier):
                got = chain_analysis(alpha, betas)
            kernels.op_cache_clear()
            assert got.sum_of_delays == want.sum_of_delays
            assert got.end_to_end_delay == want.end_to_end_delay


class TestCounters:
    def test_intern_and_memo_counters_flow(self):
        import repro.minplus.curve as curve_mod

        curve_mod.clear_intern_table()
        kernels.op_cache_clear()
        f, g = _stair(30, 11), _service(30, 12)
        with _force("hybrid"):
            min_plus_deconv(f, g, on_dip="fill")
        c = perf.snapshot()["counters"]
        for key in ("curve.intern_misses", "kernel.memo_misses"):
            assert c.get(key, 0) > 0, key
        kernels.op_cache_clear()

    def test_intern_eviction_counter(self):
        import repro.minplus.curve as curve_mod

        curve_mod.clear_intern_table()
        before = perf.snapshot()["counters"].get("curve.intern_evictions", 0)
        for i in range(curve_mod._INTERN_CAP + 5):
            Curve([Segment(F(0), F(i), F(1))]).interned()
        after = perf.snapshot()["counters"].get("curve.intern_evictions", 0)
        assert after >= before + 5
        curve_mod.clear_intern_table()
