"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random
import signal
from fractions import Fraction as F

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.drt.model import DRTTask, Edge, Job
from repro.minplus.builders import from_points, rate_latency, staircase
from repro.minplus.curve import Curve
from repro.minplus.segment import Segment

# ---------------------------------------------------------------------------
# Hang protection
# ---------------------------------------------------------------------------
#
# CI runs the suite under pytest-timeout; environments without the plugin
# (the local toolchain) get a SIGALRM-based per-test fallback so a hung
# test — the exact failure mode the resilience layer guards against —
# fails loudly instead of wedging the whole run.

_FALLBACK_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if (
        item.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
        or _FALLBACK_TIMEOUT <= 0
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {_FALLBACK_TIMEOUT}s fallback timeout "
            "(set REPRO_TEST_TIMEOUT to adjust)"
        )

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(_FALLBACK_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

# ---------------------------------------------------------------------------
# Example tasks
# ---------------------------------------------------------------------------


@pytest.fixture
def demo_task() -> DRTTask:
    """The running example: a branch between a light loop and a heavy path."""
    return DRTTask.build(
        "demo",
        jobs={"a": (1, 5), "b": (3, 8), "c": (2, 10)},
        edges=[("a", "b", 10), ("b", "c", 8), ("c", "a", 12), ("a", "a", 5)],
    )


@pytest.fixture
def loop_task() -> DRTTask:
    """Single-vertex self loop (equivalent to a sporadic task)."""
    return DRTTask.build("loop", jobs={"x": (2, 10)}, edges=[("x", "x", 10)])


@pytest.fixture
def chain_task() -> DRTTask:
    """Acyclic three-job chain (finite workload)."""
    return DRTTask.build(
        "chain",
        jobs={"p": (1, 4), "q": (2, 6), "r": (1, 8)},
        edges=[("p", "q", 4), ("q", "r", 6)],
    )


# ---------------------------------------------------------------------------
# Hypothesis profiles
# ---------------------------------------------------------------------------
#
# ``--hypothesis-profile=ci`` (a CI step of its own) runs the properties
# that check the integer reductions against their ``Fraction`` oracles
# with many more examples.  Those properties take their example count
# from :func:`oracle_settings`; every other property pins its own.

settings.register_profile("ci", max_examples=500)

#: Examples of an oracle property in the tier-1 suite.
ORACLE_EXAMPLES = 30


def oracle_settings() -> settings:
    """Settings of the int-vs-``Fraction`` oracle properties: a few
    examples in tier-1, the active profile's count when it asks for more
    than Hypothesis' default (the ``ci`` profile)."""
    profile = settings.default.max_examples
    return settings(
        deadline=None,
        max_examples=profile if profile > 100 else ORACLE_EXAMPLES,
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

small_q = st.fractions(
    min_value=F(0), max_value=F(50), max_denominator=8
)
positive_q = st.fractions(
    min_value=F(1, 8), max_value=F(50), max_denominator=8
)


@st.composite
def monotone_curves(draw) -> Curve:
    """Nondecreasing PWL curves with a few segments (staircase + slopes)."""
    n = draw(st.integers(min_value=1, max_value=5))
    t = F(0)
    v = draw(small_q)
    segs = [Segment(t, v, draw(small_q))]
    for _ in range(n - 1):
        t += draw(positive_q)
        jump = draw(small_q)
        v = max(v, segs[-1].value_at(t)) + jump
        segs.append(Segment(t, v, draw(small_q)))
    return Curve(segs)


@st.composite
def service_curves(draw) -> Curve:
    """Rate-latency service curves with small rational parameters."""
    rate = draw(st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4))
    latency = draw(st.fractions(min_value=F(0), max_value=F(10), max_denominator=4))
    return rate_latency(rate, latency)


@st.composite
def oracle_services(draw) -> Curve:
    """Service curves for the int-vs-``Fraction`` oracles: rate-latency
    with rational parameters, bursty curves (a jump at the latency, then
    a rate; at latency 0 the curve starts above 0), and TDMA-like
    staircases (a jump of one slot's work per cycle, lower affine tail)."""

    def q(lo, hi, den):
        return draw(st.fractions(min_value=lo, max_value=hi, max_denominator=den))

    kind = draw(st.sampled_from(("rate-latency", "bursty", "tdma")))
    if kind == "rate-latency":
        return draw(service_curves())
    if kind == "bursty":
        latency, burst = q(0, 10, 4), q(F(1, 3), 12, 6)
        segs = [Segment(F(0), F(0), F(0))] if latency > 0 else []
        return Curve(segs + [Segment(latency, burst, q(F(1, 4), 4, 4))])
    period = q(F(1, 2), 12, 4)
    return staircase(
        q(F(1, 3), 10, 6) * period / 4, period, q(0, 40, 2),
        offset=q(0, 8, 3), side="lower",
    )


def _drt_task(draw, number) -> DRTTask:
    """A small strongly-connected DRT task; ``number(lo, hi)`` draws
    each WCET, deadline and separation."""
    n = draw(st.integers(min_value=1, max_value=4))
    names = [f"v{i}" for i in range(n)]
    jobs = [Job(name, number(1, 4), number(2, 20)) for name in names]
    # Backbone cycle guarantees recurrence.
    edges = {}
    for a, b in zip(names, names[1:] + names[:1]):
        edges[(a, b)] = number(4, 20)
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        a = draw(st.sampled_from(names))
        b = draw(st.sampled_from(names))
        if (a, b) not in edges and (n > 1 or a == b):
            edges[(a, b)] = number(4, 20)
    return DRTTask(
        "h", jobs, [Edge(a, b, sep) for (a, b), sep in edges.items()]
    )


@st.composite
def small_drt_tasks(draw) -> DRTTask:
    """Small strongly-connected DRT tasks with integer parameters.

    Kept tiny so brute-force path enumeration stays tractable in
    reference comparisons.
    """
    return _drt_task(
        draw, lambda lo, hi: F(draw(st.integers(min_value=lo, max_value=hi)))
    )


#: Denominators of :func:`rational_drt_tasks` parameters.
SMALL_DENOMINATORS = (1, 2, 3, 4, 6, 7)


@st.composite
def rational_drt_tasks(draw) -> DRTTask:
    """Like :func:`small_drt_tasks`, with rational parameters of small
    denominators, so the frontier's time and work scales exceed 1."""

    def number(lo, hi):
        d = draw(st.sampled_from(SMALL_DENOMINATORS))
        return F(draw(st.integers(min_value=lo * d, max_value=hi * d)), d)

    return _drt_task(draw, number)


# Rational sample grids used to compare curves pointwise.
def sample_grid(limit: F = F(40), step: F = F(1, 2)):
    """Deterministic rational sample points in [0, limit]."""
    pts = []
    t = F(0)
    while t <= limit:
        pts.append(t)
        t += step
    return pts
