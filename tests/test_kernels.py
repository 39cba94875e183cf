"""Property tests for the vectorized kernel backend (hybrid == exact).

The ``hybrid`` backend may only *screen*: every final artefact — curves,
bounds, tie-breaking, raised exceptions — must be bit-identical to the
pure-``Fraction`` ``exact`` backend.  These tests drive both backends
over random curves/tasks and assert full equality, plus directed cases
for one-ulp ties (which the exact DRT paths must settle and the operator
screens must leave to the exact tier) and the nested-phase accounting of
``repro.perf``.
"""

import copy
import os
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli, perf
from repro._numeric import Q
from repro.core.facade import StructuralAnalysis
from repro.drt.model import DRTTask
from repro.errors import SerializationError
from repro.io.json_io import task_to_dict
from repro.minplus import (
    BACKENDS,
    get_backend,
    horizontal_deviation,
    min_plus_conv,
    min_plus_deconv,
    use_backend,
)
from repro.minplus import kernels
from repro.minplus.backend import op_backend
from repro.minplus.curve import Curve
from repro.minplus.segment import Segment
from repro.service.protocol import decode_request

from .conftest import monotone_curves, service_curves, small_drt_tasks

pytestmark = pytest.mark.skipif(
    not kernels.AVAILABLE, reason="hybrid backend needs numpy"
)


def _stair(n: int, seed: int, scale: int = 1) -> Curve:
    """Synthetic staircase arrival curve (the RTC request-bound shape)."""
    rng = random.Random(seed)
    segs = []
    t, v = Q(0), Q(0)
    for i in range(max(n - 1, 1)):
        segs.append(Segment(t, v, Q(0)))
        t += Q(rng.randint(1, 3))
        v += Q(max(1, 2 * (n - i) // max(n, 1) * scale + rng.randint(0, 1)), 2)
    segs.append(Segment(t, v, Q(1, 2)))
    return Curve(segs)


def _service(n: int, seed: int) -> Curve:
    """Synthetic convex ramp-up service curve (rate-2 tail)."""
    rng = random.Random(seed)
    segs = [Segment(Q(0), Q(0), Q(0))]
    t, v = Q(2), Q(0)
    for i in range(1, max(n - 1, 2)):
        slope = Q(i, n)
        segs.append(Segment(t, v, slope))
        dt = Q(rng.randint(1, 2))
        v += slope * dt
        t += dt
    segs.append(Segment(t, v, Q(2)))
    return Curve(segs)


def _both(fn):
    """Run ``fn`` under both backends; capture result or exception."""
    try:
        with use_backend("exact"):
            exact = ("ok", fn())
    except Exception as exc:
        exact = ("err", type(exc), str(exc))
    kernels.op_cache_clear()
    try:
        with use_backend("hybrid"):
            hybrid = ("ok", fn())
    except Exception as exc:
        hybrid = ("err", type(exc), str(exc))
    return exact, hybrid


class TestHybridEqualsExact:
    @settings(max_examples=60, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves(),
           on_dip=st.sampled_from(["fill", "raise"]))
    def test_conv(self, f, g, on_dip):
        exact, hybrid = _both(lambda: min_plus_conv(f, g, on_dip=on_dip))
        assert exact == hybrid

    @settings(max_examples=60, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves(),
           on_dip=st.sampled_from(["fill", "raise"]))
    def test_deconv(self, f, g, on_dip):
        if f.tail_rate > g.tail_rate:
            f, g = g, f
        exact, hybrid = _both(
            lambda: min_plus_deconv(f, g, on_dip=on_dip)
        )
        assert exact == hybrid

    @settings(max_examples=60, deadline=None)
    @given(f=monotone_curves(), g=service_curves())
    def test_horizontal_deviation(self, f, g):
        exact, hybrid = _both(lambda: horizontal_deviation(f, g))
        assert exact == hybrid

    @settings(max_examples=25, deadline=None)
    @given(task=small_drt_tasks(), beta=service_curves())
    def test_delay_bound_facade(self, task, beta):
        """End-to-end: delay/per-job/backlog identical across backends."""
        def run(t, backend):
            a = StructuralAnalysis(t, beta, backend=backend)
            return (a.delay(), a.per_job(), a.backlog())

        # Deep copies so the per-task analysis caches cannot leak
        # results from one backend's run into the other's.
        exact, hybrid = _both(
            lambda: run(copy.deepcopy(task), None)
        )
        with use_backend("exact"):
            try:
                want = ("ok", run(copy.deepcopy(task), "exact"))
            except Exception as exc:
                want = ("err", type(exc), str(exc))
        assert exact == want
        assert hybrid == exact


#: Two rationals 2**-60 apart: distinct, but with one float64 image.
_W = F(1, 3)
_TIE = _W + F(1, 2**60)


class TestUlpTieFallback:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_ulp_tie_frontier_domination(self, backend):
        """Domination decides one-ulp ties in either coordinate exactly."""
        from repro.drt.request import _VertexFrontier

        assert float(_W) == float(_TIE)
        with use_backend(backend):
            f = _VertexFrontier()
            f.insert(Q(0), _W)
            f.insert(_TIE, Q(5))
            assert f.dominated(Q(0), _W)
            assert not f.dominated(Q(0), _TIE)
            assert f.dominated(_TIE, Q(5))
            assert not f.dominated(_W, Q(5))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_ulp_tie_per_job(self, backend):
        """Per-job delays one ulp apart stay apart, and the strictly
        larger one is the critical tuple."""
        from repro.core.context import AnalysisContext
        from repro.curves.service import rate_latency_service

        assert float(_W) == float(_TIE)
        task = DRTTask.build(
            "ulp-tie",
            jobs={"a": (_W, 10), "b": (_TIE, 10)},
            edges=[("a", "b", 10), ("b", "a", 10)],
        )
        # beta^-1 is the identity, so each job's delay is its own WCET.
        beta = rate_latency_service(F(1), F(0))
        with use_backend(backend):
            ctx = AnalysisContext(task, beta, persist=False)
            assert ctx.per_job() == {"a": _W, "b": _TIE}
            res = ctx.delay_result()
        assert res.delay == _TIE
        assert res.critical_tuple.vertex == "b"

    def test_conv_with_ulp_close_values_stays_exact(self):
        eps = F(1, 2**58)
        f = Curve([Segment(F(0), F(0), F(1)), Segment(F(2), F(2) + eps, F(0))])
        g = Curve([Segment(F(0), F(0), F(1)), Segment(F(2), F(2), F(0))])
        exact, hybrid = _both(lambda: min_plus_conv(f, g, on_dip="fill"))
        assert exact[0] == "ok"
        assert exact == hybrid


class TestTimedNestedPhases:
    def test_child_time_attributed_to_innermost(self):
        reg = perf.PerfRegistry()
        with reg.timed("outer"):
            time.sleep(0.02)
            with reg.timed("inner"):
                time.sleep(0.06)
            time.sleep(0.01)
        timers = reg.timers()
        assert timers["inner"] >= 0.06
        # The outer phase books only its own ~0.03s, not the child's.
        assert 0.03 <= timers["outer"] < 0.06

    def test_reentrant_same_phase_counts_once(self):
        reg = perf.PerfRegistry()
        with reg.timed("phase"):
            with reg.timed("phase"):
                time.sleep(0.04)
        assert 0.04 <= reg.timers()["phase"] < 0.08

    def test_sequential_phases_unchanged(self):
        reg = perf.PerfRegistry()
        with reg.timed("a"):
            time.sleep(0.01)
        with reg.timed("a"):
            time.sleep(0.01)
        assert reg.timers()["a"] >= 0.02


# ----------------------------------------------------------------------
# ``auto`` dispatch: fixed size threshold between exact and hybrid
# ----------------------------------------------------------------------

OPS = ("conv", "deconv", "hdev")


class TestPrior:
    def test_small_deconv_hdev_route_exact_cold(self):
        for n in (5, 10):
            assert op_backend("deconv", n, "auto") == "exact"
            assert op_backend("hdev", n, "auto") == "exact"

    def test_conv_pinv_route_hybrid_at_any_size(self):
        for n in (1, 5, 10, 1000):
            assert op_backend("conv", n, "auto") == "hybrid"
            assert op_backend("pinv", n, "auto") == "hybrid"

    def test_all_ops_route_hybrid_large(self):
        for op in OPS:
            assert op_backend(op, 500, "auto") == "hybrid"

    def test_unknown_op_defaults_hybrid(self):
        assert op_backend("frobnicate", 3, "auto") == "hybrid"

    def test_op_backend_counts_dispatch_under_auto(self):
        before = perf.snapshot()["counters"]
        with use_backend("auto"):
            assert op_backend("deconv", 1) == "exact"
            assert op_backend("deconv", 300) == "hybrid"
        after = perf.snapshot()["counters"]
        for key in ("dispatch.deconv.exact", "dispatch.deconv.hybrid"):
            assert after.get(key, 0) == before.get(key, 0) + 1

    def test_op_backend_passes_concrete_backends_through(self):
        with use_backend("exact"):
            assert op_backend("conv", 1000) == "exact"
        with use_backend("hybrid"):
            assert op_backend("hdev", 1) == "hybrid"


class TestAutoBitIdentity:
    def test_auto_equals_exact_on_kernel_ops(self):
        f, g = _stair(20, 7), _service(20, 9)
        with use_backend("exact"):
            want = (
                min_plus_conv(f, f, on_dip="fill"),
                min_plus_deconv(f, g, on_dip="fill"),
                horizontal_deviation(f, g),
            )
        kernels.op_cache_clear()
        with use_backend("auto"):
            got = (
                min_plus_conv(f, f, on_dip="fill"),
                min_plus_deconv(f, g, on_dip="fill"),
                horizontal_deviation(f, g),
            )
        kernels.op_cache_clear()
        assert got == want


class TestSmallNFloor:
    """The n=10 regression the threshold exists to prevent: tiny
    deconv/hdev must not pay the screen overhead under ``auto``."""

    def _medians(self, fn, backends, reps=15):
        """Per-backend medians over interleaved samples on one CPU, so
        machine drift and per-CPU speed hit every backend equally
        instead of biasing whichever was timed last."""
        samples = {be: [] for be in backends}
        pin = hasattr(os, "sched_setaffinity")
        if pin:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(allowed)})
        try:
            for _ in range(reps):
                for be in backends:
                    with use_backend(be):
                        kernels.op_cache_clear()
                        t0 = time.perf_counter()
                        fn()
                        samples[be].append(time.perf_counter() - t0)
        finally:
            if pin:
                os.sched_setaffinity(0, allowed)
        return [sorted(s)[len(s) // 2] for s in samples.values()]

    @pytest.mark.parametrize("n", [5, 10])
    def test_auto_within_095x_of_exact(self, n):
        f, g = _stair(n, 3), _service(n, 5)

        def run():
            min_plus_deconv(f, g, on_dip="fill")
            horizontal_deviation(f, g)

        with use_backend("auto"):
            # Both ops route to exact, so the only admissible overhead
            # is the dispatch lookup itself.
            assert op_backend("deconv", n) == "exact"
            assert op_backend("hdev", n) == "exact"
        t_exact, t_auto = self._medians(run, ("exact", "auto"))
        # >= 0.95x of exact throughput, with headroom for timer noise.
        assert t_auto <= t_exact / 0.95 + 5e-4, (t_exact, t_auto)


def _reject_use_backend(monkeypatch):
    with use_backend("native"):
        pass  # pragma: no cover - the context must not be entered


def _reject_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "native")
    get_backend()


def _reject_cli(*argv):
    return lambda monkeypatch: cli.main([*argv, "--backend", "native"])


def _reject_params(monkeypatch):
    task = DRTTask.build("t", jobs={"x": (1, 5)}, edges=[("x", "x", 10)])
    decode_request(
        {
            "kind": "delay",
            "task": task_to_dict(task),
            "beta": {"rate": "1/2"},
            "params": {"backend": "native"},
        }
    )


@pytest.mark.parametrize(
    "attempt",
    [
        _reject_use_backend,
        _reject_env,
        _reject_cli("task.json"),
        _reject_cli("serve"),
        _reject_cli("cluster"),
        _reject_params,
    ],
    ids=["use_backend", "REPRO_BACKEND", "analyze", "serve", "cluster",
         "params"],
)
def test_removed_backend_name_fails_loudly(attempt, monkeypatch, capsys):
    """``native`` is gone: every entry point names the live backends."""
    assert BACKENDS == ("exact", "hybrid", "auto")
    with pytest.raises(
        (ValueError, SerializationError, SystemExit)
    ) as info:
        attempt(monkeypatch)
    if info.type is SystemExit:
        assert info.value.code == 2
        message = capsys.readouterr().err
    else:
        message = str(info.value)
    assert "'native'" in message
    for name in BACKENDS:
        assert name in message
