"""Property tests for the vectorized kernel tier (hybrid == exact).

The ``hybrid`` tier may only *screen*: every final artefact — curves,
bounds, tie-breaking, raised exceptions — must be bit-identical to the
pure-``Fraction`` ``exact`` tier.  These tests pin each tier through the
private ``backend._force`` seam over random curves/tasks and assert full
equality, plus directed cases for one-ulp ties (which the exact DRT
paths must settle and the operator screens must leave to the exact
tier) and the nested-phase accounting of ``repro.perf``.
"""

import copy
import gc
import os
import random
import time
from contextlib import nullcontext
from statistics import median
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli, perf
from repro._numeric import Q
from repro.core.facade import StructuralAnalysis
from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.minplus import horizontal_deviation, min_plus_conv, min_plus_deconv
from repro.minplus import kernels
from repro.minplus.backend import _force, op_backend
from repro.minplus.curve import Curve
from repro.minplus.segment import Segment
from repro.resilience import chaos
from repro.service import ServerHandle, ServiceClient, ServiceConfig
from repro.service.client import ServiceError

from .conftest import monotone_curves, service_curves, small_drt_tasks

pytestmark = pytest.mark.skipif(
    not kernels.AVAILABLE, reason="hybrid tier needs numpy"
)

#: ``"auto"`` is the unpinned size dispatch.
TIERS = ("exact", "hybrid", "auto")


def _tier(name):
    return nullcontext() if name == "auto" else _force(name)


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
    """Run ``fn`` under both tiers; capture result or exception."""
    try:
        with _force("exact"):
            exact = ("ok", fn())
    except Exception as exc:
        exact = ("err", type(exc), str(exc))
    kernels.OP_MEMO.clear()
    try:
        with _force("hybrid"):
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
        """End-to-end: delay/per-job/backlog identical across tiers."""
        def run(t):
            a = StructuralAnalysis(t, beta)
            return (a.delay(), a.per_job(), a.backlog())

        # Deep copies so the per-task analysis caches cannot leak
        # results from one tier's run into the other's.
        exact, hybrid = _both(lambda: run(copy.deepcopy(task)))
        try:
            dispatched = ("ok", run(copy.deepcopy(task)))
        except Exception as exc:
            dispatched = ("err", type(exc), str(exc))
        assert dispatched == exact
        assert hybrid == exact


#: Two rationals 2**-60 apart: distinct, but with one float64 image.
_W = F(1, 3)
_TIE = _W + F(1, 2**60)


class TestUlpTieFallback:
    @pytest.mark.parametrize("tier", TIERS)
    def test_one_ulp_tie_frontier_domination(self, tier):
        """Domination decides one-ulp ties in either coordinate exactly."""
        from repro.drt.request import _VertexFrontier

        assert float(_W) == float(_TIE)
        with _tier(tier):
            f = _VertexFrontier()
            f.insert(Q(0), _W)
            f.insert(_TIE, Q(5))
            assert f.dominated(Q(0), _W)
            assert not f.dominated(Q(0), _TIE)
            assert f.dominated(_TIE, Q(5))
            assert not f.dominated(_W, Q(5))

    @pytest.mark.parametrize("tier", TIERS)
    def test_one_ulp_tie_per_job(self, tier):
        """Per-job delays one ulp apart stay apart, and the strictly
        larger one is the critical tuple."""
        from repro.core.context import AnalysisContext

        assert float(_W) == float(_TIE)
        task = DRTTask.build(
            "ulp-tie",
            jobs={"a": (_W, 10), "b": (_TIE, 10)},
            edges=[("a", "b", 10), ("b", "a", 10)],
        )
        # beta^-1 is the identity, so each job's delay is its own WCET.
        beta = rate_latency_service(F(1), F(0))
        with _tier(tier):
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
# Size dispatch: fixed threshold between exact and hybrid
# ----------------------------------------------------------------------

OPS = ("conv", "deconv", "hdev")


class TestPrior:
    def test_small_deconv_hdev_route_exact_cold(self):
        for n in (5, 10):
            assert op_backend("deconv", n) == "exact"
            assert op_backend("hdev", n) == "exact"

    def test_conv_pinv_route_hybrid_at_any_size(self):
        for n in (1, 5, 10, 1000):
            assert op_backend("conv", n) == "hybrid"
            assert op_backend("pinv", n) == "hybrid"

    def test_all_ops_route_hybrid_large(self):
        for op in OPS:
            assert op_backend(op, 500) == "hybrid"

    def test_unknown_op_defaults_hybrid(self):
        assert op_backend("frobnicate", 3) == "hybrid"

    def test_op_backend_counts_dispatch_under_auto(self):
        before = perf.snapshot()["counters"]
        assert op_backend("deconv", 1) == "exact"
        assert op_backend("deconv", 300) == "hybrid"
        after = perf.snapshot()["counters"]
        for key in ("dispatch.deconv.exact", "dispatch.deconv.hybrid"):
            assert after.get(key, 0) == before.get(key, 0) + 1

    def test_op_backend_passes_concrete_backends_through(self):
        """The test seam pins a tier regardless of size, and only the
        two real tiers exist."""
        with _force("exact"):
            assert op_backend("conv", 1000) == "exact"
        with _force("hybrid"):
            assert op_backend("hdev", 1) == "hybrid"
        with pytest.raises(ValueError):
            with _force("auto"):
                pass  # pragma: no cover - the context must not be entered


class TestAutoBitIdentity:
    def test_auto_equals_exact_on_kernel_ops(self):
        f, g = _stair(20, 7), _service(20, 9)
        with _force("exact"):
            want = (
                min_plus_conv(f, f, on_dip="fill"),
                min_plus_deconv(f, g, on_dip="fill"),
                horizontal_deviation(f, g),
            )
        kernels.OP_MEMO.clear()
        got = (
            min_plus_conv(f, f, on_dip="fill"),
            min_plus_deconv(f, g, on_dip="fill"),
            horizontal_deviation(f, g),
        )
        kernels.OP_MEMO.clear()
        assert got == want


class TestSmallNFloor:
    """The n=10 regression the threshold exists to prevent: tiny
    deconv/hdev must not pay the screen overhead under size dispatch."""

    def _medians(self, fn, tiers, reps=15, inner=3):
        """Per-tier per-call times on one CPU: the first tier's median,
        times the median per-sample ratio of each tier to the first
        (1 for the first itself).  A sample is *inner* rounds that each call
        every tier once, the tier called first rotating from round to
        round.  The tiers of one sample run back to back at one vCPU
        speed, so the ratio cancels this host's speed drift, which can
        jump ~2x mid-test and then move one tier's median but not the
        other's.  The garbage collector is off while timing (it runs
        between samples), so a collection cannot land on one tier."""
        samples = {tier: [] for tier in tiers}
        pin = hasattr(os, "sched_setaffinity")
        if pin:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(allowed)})
        gc.disable()
        try:
            for rep in range(reps):
                spent = dict.fromkeys(tiers, 0.0)
                for i in range(inner):
                    start = (rep * inner + i) % len(tiers)
                    for tier in tiers[start:] + tiers[:start]:
                        with _tier(tier):
                            kernels.OP_MEMO.clear()
                            t0 = time.perf_counter()
                            fn()
                            spent[tier] += time.perf_counter() - t0
                for tier in tiers:
                    samples[tier].append(spent[tier] / inner)
                gc.collect()
        finally:
            gc.enable()
            if pin:
                os.sched_setaffinity(0, allowed)
        base = samples[tiers[0]]
        return [
            median(base) * median([t / b for t, b in zip(samples[tier], base)])
            for tier in tiers
        ]

    @pytest.mark.parametrize("n", [5, 10])
    def test_auto_within_095x_of_exact(self, n):
        f, g = _stair(n, 3), _service(n, 5)

        def run():
            min_plus_deconv(f, g, on_dip="fill")
            horizontal_deviation(f, g)

        # Both ops route to exact, so the only admissible overhead is
        # the dispatch lookup itself.
        assert op_backend("deconv", n) == "exact"
        assert op_backend("hdev", n) == "exact"
        t_exact, t_auto = self._medians(run, ("exact", "auto"))
        # >= 0.95x of exact throughput, with headroom for timer noise.
        assert t_auto <= t_exact / 0.95 + 5e-4, (t_exact, t_auto)




# ----------------------------------------------------------------------
# The kernel tier is not an option any more
# ----------------------------------------------------------------------


def _reject_cli(*argv):
    """A ``--backend`` flag is an argparse usage error (exit 2)."""

    def attempt(capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--backend", "exact"])
        assert info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    return attempt


def _reject_params(capsys):
    """``params.backend`` through ``repro serve`` and ``repro cluster``."""
    from repro.cluster import ClusterHandle

    task = DRTTask.build("t", jobs={"x": (1, 5)}, edges=[("x", "x", 10)])
    spec = ServiceClient.build_request(
        "delay",
        task,
        rate_latency_service(F(1, 2), F(0)),
        params={"backend": "exact"},
    )
    config = ServiceConfig(port=0, batch_window_ms=1.0)
    saved = chaos.current_config()
    chaos.apply_config(None)  # exact status codes are the assertion
    handles = []
    try:
        handles.append(ServerHandle.start(config))
        handles.append(
            ClusterHandle.start(
                n_workers=2, worker_mode="thread", worker_config=config
            )
        )
        for handle in handles:
            client = ServiceClient(port=handle.port, timeout=60)
            with pytest.raises(ServiceError) as info:
                client.analyze_raw(spec)
            assert info.value.status == 400
            assert info.value.code == "bad_request"
            assert "unknown params ['backend']" in str(info.value)
    finally:
        for handle in handles:
            handle.shutdown(timeout=30)
        chaos.apply_config(saved)


@pytest.mark.parametrize(
    "attempt",
    [
        _reject_cli("task.json", "--rate", "1/2"),
        _reject_cli("serve"),
        _reject_cli("cluster"),
        _reject_params,
    ],
    ids=["analyze", "serve", "cluster", "params"],
)
def test_removed_backend_name_fails_loudly(attempt, capsys):
    """No entry point takes a kernel backend any more: each rejects one
    as a usage error (exit 2 / HTTP 400), never a crash."""
    attempt(capsys)
