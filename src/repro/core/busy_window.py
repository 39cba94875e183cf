"""Busy-window bounds: the finitary horizon of every delay analysis.

The *busy window bound* of workload with request bound ``rbf`` on service
``beta`` is ``L = sup { t : rbf(t) > beta(t) }``: beyond ``L`` accumulated
service has permanently caught up with the worst-case accumulated
requests, so no busy period is longer than ``L`` and no job released more
than ``L`` after its busy-window start can exist.  Every exploration in
this library is truncated at ``L`` — the fixpoint search that dominates
analysis cost at high utilization.

The request bound function of a structural task is only known exactly up
to a chosen horizon (its tail is a sound but loose affine bound, see
:func:`repro.drt.request.rbf_curve`), so the bound is computed by
*horizon iteration*: start from an estimate, and double the horizon until
the busy window closes strictly inside the exactly-known region.

Each round sweeps the int staircase of the task's shared
:class:`~repro.drt.request.FrontierExplorer` (which only explores what
the new horizon adds) against ``beta`` lowered to the same units, and
the closed fixpoint is memoized per ``(task, beta, initial_horizon,
max_iterations)`` for every later analysis.  The fixpoint does not depend
on how much was explored before: the explorer's truncated view at a
horizon equals a from-scratch exploration to that horizon.

Past every horizon the request curve continues with the line ``B +
rho*t`` (:func:`~repro.drt.utilization.linear_request_bound`).  Its
last positive time against ``beta`` is solved once per fixpoint on
``beta``'s segments (:func:`_tail_last_positive`); a round whose
horizon it exceeds is decided by it.

A round need not explore to its horizon ``H``.  The request bound is
subadditive, ``rbf(a + b) <= rbf(a) + rbf(b)`` (split a path at its
first release past ``a``), so the exact staircase on ``[0, X]`` bounds
every later value: ``rbf(t) <= q*rbf(X) + rbf(t - q*X)``.  A round
explores to ``X = H/16``, doubling ``X`` until that bound keeps ``rbf``
under ``beta`` from ``X`` to ``H`` (or to the request line's last
positive time, past which the line already does).  The last positive
step before ``X`` is then the one a sweep to ``H`` finds.  ``H``, the
round count and every result are those of a sweep to ``H``; only the
explored horizon is lower, and :attr:`BusyWindow.rbf` explores to ``H``
when it is first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple

from repro import perf
from repro._numeric import Q, NumLike, as_q
from repro.drt.model import DRTTask
from repro.drt.request import FrontierExplorer, frontier_explorer, int_task, rbf_curve
from repro.drt.utilization import linear_request_bound, utilization
from repro.errors import (
    CurveError, HorizonExceededError, UnboundedBusyWindowError,
)
from repro.minplus.curve import Curve
from repro.minplus.lowering import IntService
from repro.resilience.budget import checkpoint

__all__ = ["BusyWindow", "busy_window_bound", "last_positive_time"]

#: The first probe of :func:`_last_positive` as a share of the horizon.
#: On the ``analyze-cold`` pool the horizon is about 9x the busy window
#: at the median and 14x at p90; 143 of its 148 windows close at the
#: second or third probe (``H/8`` or ``H/4``).
_FIRST_PROBE = Fraction(1, 16)


@dataclass(frozen=True)
class BusyWindow:
    """Result of a busy-window computation.

    Attributes:
        length: The busy window bound ``L``.
        horizon: The exactness horizon at which the fixpoint closed.
        iterations: Number of horizon-doubling rounds used.
        task: The workload the window belongs to.
    """

    length: Fraction
    horizon: Fraction
    iterations: int
    task: DRTTask = field(repr=False, compare=False)

    @cached_property
    def rbf(self) -> Curve:
        """The request bound curve at the final horizon (built on read)."""
        return rbf_curve(self.task, self.horizon)


def last_positive_time(diff: Curve) -> Optional[Q]:
    """``sup { t : diff(t) > 0 }`` for a curve with eventually negative
    tail; None if the curve is never positive.

    Raises:
        UnboundedBusyWindowError: if the tail keeps the curve positive
            forever (tail rate > 0, or rate 0 with positive tail values).
    """
    tail = diff.tail
    if tail.slope > 0 or (tail.slope == 0 and tail.value > 0):
        raise UnboundedBusyWindowError(
            "workload never lets the service catch up (positive tail)"
        )
    best: Optional[Q] = None
    starts = diff.breakpoints()
    for i, seg in enumerate(diff.segments):
        end = starts[i + 1] if i + 1 < len(starts) else None
        if end is None:
            # Tail: slope <= 0; positive until it crosses zero.
            if seg.value > 0:
                if seg.slope == 0:  # pragma: no cover - guarded above
                    raise UnboundedBusyWindowError("constant positive tail")
                best = seg.start + seg.value / (-seg.slope)
            continue
        v_end = seg.value_at(end)
        if seg.value > 0 or v_end > 0:
            if v_end > 0:
                candidate = end  # positive up to the segment end (limit)
            else:
                # Crosses zero inside the segment.
                candidate = seg.start + seg.value / (-seg.slope)
            if best is None or candidate > best:
                best = candidate
    return best


def busy_window_bound(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
    max_iterations: int = 40,
) -> BusyWindow:
    """Busy window bound of structural workload *task* on service *beta*.

    Args:
        task: The structural workload.
        beta: Lower service curve (nondecreasing, ``beta.tail_rate > 0``
            unless the workload is finite).
        initial_horizon: Starting exactness horizon; default is an affine
            estimate from the workload burst and the rate gap.
        max_iterations: Safety cap on horizon doublings.

    Raises:
        UnboundedBusyWindowError: if long-run utilization reaches the
            service rate (``utilization(task) >= beta.tail_rate``) so no
            finite busy window exists in general.
        HorizonExceededError: if the fixpoint did not close within
            ``max_iterations`` doublings (pathological parameters).
    """
    rho = utilization(task)
    if rho >= beta.tail_rate and task.has_cycle():
        raise UnboundedBusyWindowError(
            f"utilization {rho} >= long-run service rate {beta.tail_rate}"
        )
    from repro.drt.digest import guard_cache

    cache = guard_cache(task)
    key = (
        "busy_window",
        beta,
        None if initial_horizon is None else as_q(initial_horizon),
        max_iterations,
    )
    cached = cache.get(key)
    if cached is not None:
        perf.record("busy_window.cache_hits")
        return cached
    with perf.timed("busy_window"):
        result = _iterate(task, beta, rho, initial_horizon, max_iterations)
    cache[key] = result
    perf.record("busy_window.cache_misses")
    return result


def _iterate(
    task: DRTTask,
    beta: Curve,
    rho: Q,
    initial_horizon: Optional[NumLike],
    max_iterations: int,
) -> BusyWindow:
    """The horizon-doubling fixpoint iteration."""
    if initial_horizon is not None:
        horizon = as_q(initial_horizon)
    else:
        horizon = _initial_estimate(task, beta, rho)
    ex = frontier_explorer(task)
    low = ex.lowered(beta)
    if not low.nondecreasing:
        raise CurveError("busy window requires a nondecreasing service curve")
    tail = _tail_last_positive(task, beta, rho)
    for iteration in range(1, max_iterations + 1):
        last = _last_positive(ex, low, tail, horizon)
        if last is None:
            # Service dominates from the start; the only busy "window" is
            # the instantaneous burst at 0.
            return BusyWindow(Q(0), horizon, iteration, task)
        if last < horizon:
            return BusyWindow(last, horizon, iteration, task)
        horizon *= 2
    raise HorizonExceededError(
        f"busy window did not close within {max_iterations} horizon "
        f"doublings (final horizon {horizon})"
    )


def _tail_last_positive(task: DRTTask, beta: Curve, rho: Q) -> Optional[Q]:
    """``last_positive_time(line - beta)`` for the line ``B + rho*t`` that
    continues the request curve beyond every horizon.

    Solved on ``beta``'s segments without building the difference
    curve: on a segment from ``s`` the gap is ``d + m*(t - s)`` with
    ``d = B + rho*s - beta(s)`` and ``m = rho - slope``.  A segment's
    positive part ends at its end or at its zero crossing, so the last
    segment, from the tail backwards, with a positive part decides.
    """
    burst, _ = linear_request_bound(task)
    segs = beta.segments
    ends = beta.breakpoints()[1:] + [None]
    for seg, end in zip(reversed(segs), reversed(ends)):
        d = burst + rho * seg.start - seg.value
        m = rho - seg.slope
        if end is None:
            if m > 0 or (m == 0 and d > 0):
                # The tail carries the exact long-run rate, so a positive
                # tail is no artefact of a short horizon: the service
                # never catches up.
                raise UnboundedBusyWindowError(
                    f"service (rate {beta.tail_rate}) never catches up "
                    f"with workload of {task.name!r} (rate {rho}, positive burst)"
                )
            if d > 0:
                return seg.start + d / -m
            continue
        d_end = d + m * (end - seg.start)
        if d_end > 0:
            return end
        if d > 0:
            return seg.start + d / -m
    return None


def _last_positive(
    ex: FrontierExplorer, low: IntService, tail: Optional[Q], horizon: Q
) -> Optional[Q]:
    """``last_positive_time(ex.rbf_curve(horizon) - beta)`` on ints.

    A *tail* (:func:`_tail_last_positive`) past *horizon* decides.  Else
    the last step ``(t_i, w_i)`` with ``beta^{-1}(w_i) > t_i`` does: it
    stays positive up to ``min(t_{i+1}, beta^{-1}(w_i))``, at or below
    any later step's time.

    That step is found without exploring to *horizon*.  A probe ``X``
    starts at ``horizon / 16`` and doubles.  The staircase strictly
    before ``X`` gives the candidate (:func:`_candidate`).  It is the
    whole sweep's answer when it does not stay positive through ``X``
    (the next step, at or past ``X``, then cannot cut it short) and
    :func:`_tail_clear` certifies that no step from ``X`` up to
    *horizon* is positive.  At ``X = horizon`` the round is the whole
    sweep.  Every round so returns what the whole sweep returns, which
    is why the fixpoint closes at the same horizon in the same round.
    """
    if tail is not None and tail > horizon:
        checkpoint()
        return tail
    S = low.D // low.time_unit
    # Steps past the tail's last positive time, or at or past the
    # horizon, cannot be positive or are not read.
    last = -1 if tail is None else min(
        _below(horizon, S), tail.numerator * S // tail.denominator
    )
    probe = horizon * _FIRST_PROBE
    while probe < horizon:
        steps = ex.staircase(probe)
        found = _candidate(steps, low, probe)
        if found != probe and _tail_clear(steps, low, _below(probe, S), last):
            return found
        probe *= 2
    return _candidate(ex.staircase(horizon), low, horizon)


def _below(x: Q, S: int) -> int:
    """The largest scaled time ``t`` with ``t / S < x``."""
    return -(-x.numerator * S // x.denominator) - 1


def _candidate(
    steps: List[Tuple[int, int]], low: IntService, probe: Q
) -> Optional[Q]:
    """The last positive time of the staircase *steps* (strictly before
    *probe*) against ``beta``; *probe* itself when the last step stays
    positive through it.  The sweep runs backwards to the last positive
    step, charging one budget unit per step visited."""
    inv, f = low.inverse, low.time_unit
    end = None  # the next step's time over D; None: the probe
    for visited, (t, w) in enumerate(reversed(steps), 1):
        x = inv(w)
        if x is None or x > t * f:
            break
        end = t * f
    else:
        checkpoint(len(steps))
        return None
    checkpoint(visited)
    if end is None:  # the last step before the probe
        if x is None or x * probe.denominator >= probe.numerator * low.D:
            return probe
        return Fraction(x, low.D)
    return Fraction(end if x is None or x > end else x, low.D)


def _tail_clear(
    steps: List[Tuple[int, int]], low: IntService, a: int, last: int
) -> bool:
    """True when no step of ``rbf`` at a scaled time in ``(a, last]`` is
    positive against ``beta``.

    *steps* is the exact staircase on ``[0, a]``.  The request bound is
    subadditive, ``rbf(s + r) <= rbf(s) + rbf(r)`` (split a path at its
    first release past ``s``), so on the block ``(q*a, (q+1)*a]`` it
    stays under ``U(q*a + r) = q*rbf(a) + rbf(r)``, a staircase with one
    step per step of *steps*.  A step ``(t, w)`` of ``rbf`` under a step
    ``(s, u)`` of ``U`` with ``s <= t`` has ``beta^{-1}(w) <=
    beta^{-1}(u)``, so ``beta^{-1}(u) <= s`` for every step of ``U``
    clears it.  One budget unit per step of ``U`` tested.
    """
    if a >= last:
        return True
    if a < 1:
        return False
    inv, f = low.inverse, low.time_unit
    burst = steps[-1][1]  # rbf(a)
    tested = 0
    base, add = a, burst
    while base < last:
        for t, w in steps:
            # rbf(r) for r in (0, a]; the step at 0 starts at r = 1.
            start = base + max(t, 1)
            if start > last:
                break
            x = inv(add + w)
            tested += 1
            if x is None or x > start * f:
                checkpoint(tested)
                return False
        base += a
        add += burst
    checkpoint(tested)
    return True


def _initial_estimate(task: DRTTask, beta: Curve, rho: Q) -> Q:
    """Affine estimate of the busy window: solve burst + rho*t = beta-line.

    Uses the tail line of *beta* (rate ``R`` from offset ``(t0, v0)``) and
    a crude burst bound (max WCET times vertex count, covering any acyclic
    prefix): ``t = (burst + R*t0 - v0) / (R - rho)``.  The burst comes
    from the task's int WCETs (:func:`~repro.drt.request.int_task`,
    built once per task) and ``v0`` is the tail segment's start value.
    """
    rate = beta.tail_rate
    if rate <= rho:
        # Acyclic workload (rho == 0 == rate impossible here since the
        # unbounded check passed); fall back to a span-based horizon.
        total_sep = sum((e.separation for e in task.edges), Q(0))
        return max(Q(1), total_sep)
    graph = int_task(task)
    burst = Fraction(max(graph.wcet.values()) * len(graph.wcet), graph.W)
    tail = beta.tail
    est = (burst + rate * tail.start - tail.value) / (rate - rho)
    return max(est, Q(1))
