"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random
import signal
import time
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
# No orphaned servers
# ---------------------------------------------------------------------------
#
# The cluster and service modules start ``repro serve`` processes (fleet
# workers, a single node, and the plane pool workers each one forks).
# ``no_orphaned_servers`` fails a test when one of them outlives it.  It
# reads ``/proc`` only for this process's own descendants: the
# ``children`` lists of their threads, and each one's ``stat`` and
# ``cmdline``.  A server orphaned while the test body still runs (its
# parent killed) is re-parented away before teardown and escapes the
# check; the descendants are listed once more when teardown starts, so
# one orphaned while the test's own fixtures tear down is caught.

#: Seconds a server may take to exit after its test: a drain, plus a
#: pool worker's two polls of its parent pid (``plane.PARENT_POLL_S``).
ORPHAN_GRACE_S = 5.0


def proc_stat(pid: int):
    """``(state, ppid, starttime)`` from ``/proc/<pid>/stat``, or None
    once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), fields[19]


def alive(pid: int, starttime: str) -> bool:
    """True while *pid* is still the process started at *starttime*
    and has not exited (a zombie waiting to be reaped has)."""
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z" and stat[2] == starttime


def _serve_processes() -> "dict[int, str]":
    """``{pid: starttime}`` of this process's ``repro serve`` descendants."""
    found: "dict[int, str]" = {}
    stack = [os.getpid()]
    while stack:
        pid = stack.pop()
        try:
            threads = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in threads:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    kids = [int(kid) for kid in fh.read().split()]
            except OSError:
                continue
            for kid in kids:
                stack.append(kid)
                try:
                    with open(f"/proc/{kid}/cmdline", "rb") as fh:
                        argv = fh.read().decode(errors="replace").split("\0")
                except OSError:
                    continue
                stat = proc_stat(kid)
                if stat and "serve" in argv and any("repro" in a for a in argv):
                    found[kid] = stat[2]
    return found


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    if "no_orphaned_servers" in getattr(item, "fixturenames", ()):
        item._serve_at_teardown = _serve_processes()
    yield


@pytest.fixture
def no_orphaned_servers(request):
    """Fail the test if a ``repro serve`` process it started is still
    running :data:`ORPHAN_GRACE_S` after it; such a process is killed.
    Servers that were running before the test (a wider-scoped fixture's)
    are not its own."""
    if not os.path.exists(f"/proc/{os.getpid()}/task"):
        yield
        return
    before = _serve_processes()
    yield
    seen = dict(getattr(request.node, "_serve_at_teardown", {}))
    seen.update(_serve_processes())
    own = {pid: start for pid, start in seen.items() if before.get(pid) != start}
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while time.monotonic() < deadline and any(
        alive(pid, start) for pid, start in own.items()
    ):
        time.sleep(0.05)
    left = sorted(pid for pid, start in own.items() if alive(pid, start))
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert not left, f"repro serve processes outlived the test: {left}"


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
# that check the integer reductions against their ``Fraction`` oracles,
# and the incremental frontier against scratch runs, with many more
# examples.  Those properties take their example count from
# :func:`oracle_settings`; every other property pins its own.

settings.register_profile("ci", max_examples=500)

#: Examples of an oracle property in the tier-1 suite.
ORACLE_EXAMPLES = 30


def oracle_settings(examples: int = ORACLE_EXAMPLES) -> settings:
    """Settings of the oracle properties: *examples* in tier-1, the
    active profile's count when it asks for more than Hypothesis'
    default (the ``ci`` profile)."""
    profile = settings.default.max_examples
    return settings(
        deadline=None,
        max_examples=profile if profile > 100 else examples,
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


@st.composite
def acyclic_drt_tasks(draw) -> DRTTask:
    """Small acyclic DRT tasks (finite workload, ``rho = 0``) with
    rational parameters: every edge runs from a lower to a higher
    vertex index."""

    def number(lo, hi):
        d = draw(st.sampled_from(SMALL_DENOMINATORS))
        return F(draw(st.integers(min_value=lo * d, max_value=hi * d)), d)

    n = draw(st.integers(min_value=1, max_value=5))
    names = [f"v{i}" for i in range(n)]
    jobs = [Job(name, number(1, 4), number(2, 20)) for name in names]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [Edge(a, b, number(1, 20)) for a, b in chosen]
    return DRTTask("a", jobs, edges)


@st.composite
def structural_services(draw) -> Curve:
    """The library's resource-model service curves with rational
    parameters: rate-latency, TDMA and periodic resource (the last two
    have plateaus, exact up to a drawn horizon, then an affine tail)."""
    from repro.curves.service import (
        periodic_resource_service,
        rate_latency_service,
        tdma_service,
    )

    def q(lo, hi, den):
        return draw(st.fractions(min_value=lo, max_value=hi, max_denominator=den))

    kind = draw(st.sampled_from(("rate-latency", "tdma", "periodic")))
    if kind == "rate-latency":
        return rate_latency_service(q(F(1, 4), 4, 4), q(0, 20, 3))
    horizon = q(0, 120, 2)
    if kind == "tdma":
        frame = q(1, 30, 3)
        return tdma_service(q(F(1, 2), 4, 4), frame * q(F(1, 4), 1, 8), frame, horizon)
    period = q(1, 30, 3)
    return periodic_resource_service(period * q(F(1, 4), 1, 8), period, horizon)


# Rational sample grids used to compare curves pointwise.
def sample_grid(limit: F = F(40), step: F = F(1, 2)):
    """Deterministic rational sample points in [0, limit]."""
    pts = []
    t = F(0)
    while t <= limit:
        pts.append(t)
        t += step
    return pts
