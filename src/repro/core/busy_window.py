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

The iteration draws its request curves from the task's shared
:class:`~repro.drt.request.FrontierExplorer`, so each doubling round only
pays for the exploration the new horizon adds, and the closed fixpoint is
memoized per ``(task, beta, initial_horizon, max_iterations)`` so every
later analysis (delay, backlog, per-job, the baselines) reuses it for
free.  The fixpoint of a given horizon sequence does not depend on how
much of the frontier was explored before: the explorer's truncated view
at a horizon equals a from-scratch exploration to that horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from repro import perf
from repro._memo import process_memo
from repro._numeric import Q, NumLike, as_q
from repro.drt.model import DRTTask
from repro.drt.request import rbf_curve
from repro.drt.utilization import utilization
from repro.errors import HorizonExceededError, UnboundedBusyWindowError
from repro.minplus.curve import Curve
from repro.resilience.budget import checkpoint

__all__ = ["BusyWindow", "busy_window_bound", "last_positive_time"]

#: Memo of the fixpoint step ``last_positive_time(rbf - beta)`` keyed by
#: the curve pair itself.  The step is a pure function of the two curves
#: (both immutable with cached structural hashes), so distinct tasks that
#: produce the *same* request staircase — e.g. a what-if sweep retiming
#: an edge whose work never sets the running maximum — share one curve
#: subtraction instead of repeating it per variant.  The stored budget
#: charge is replayed on hits so resilience accounting is identical
#: either way.  The cap must hold a whole cyclic pool of requests: an
#: LRU smaller than the cycle it serves never hits.
_FIXPOINT_MEMO = process_memo("busy_window.fixpoint_memo", 512)


@dataclass(frozen=True)
class BusyWindow:
    """Result of a busy-window computation.

    Attributes:
        length: The busy window bound ``L``.
        horizon: The exactness horizon at which the fixpoint closed.
        iterations: Number of horizon-doubling rounds used.
        rbf: The request bound curve at the final horizon (reusable by
            the delay analyses, which need tuples up to ``L <= horizon``).
    """

    length: Fraction
    horizon: Fraction
    iterations: int
    rbf: Curve


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
    for iteration in range(1, max_iterations + 1):
        rbf = rbf_curve(task, horizon)
        memo_key = (rbf, beta)
        hit = _FIXPOINT_MEMO.get(memo_key)
        if hit is not None:
            last, charge = hit
            checkpoint(charge)
        else:
            diff = rbf - beta
            # One budget unit per doubling round plus an amortised charge
            # for the curve arithmetic (the exploration inside rbf_curve
            # already checkpoints per expanded tuple).
            charge = 1 + len(diff.segments) // 64
            checkpoint(charge)
            try:
                last = last_positive_time(diff)
            except UnboundedBusyWindowError:
                # The request curve's tail carries the exact long-run
                # rate, so a positive tail cannot be an artefact of a
                # short horizon: the service genuinely never catches up.
                raise UnboundedBusyWindowError(
                    f"service (rate {beta.tail_rate}) never catches up "
                    f"with workload of {task.name!r} (rate {rho}, "
                    "positive burst)"
                ) from None
            _FIXPOINT_MEMO.put(memo_key, (last, charge))
        if last is None:
            # Service dominates from the start; the only busy "window" is
            # the instantaneous burst at 0.
            return BusyWindow(Q(0), horizon, iteration, rbf)
        if last < horizon:
            return BusyWindow(last, horizon, iteration, rbf)
        horizon *= 2
    raise HorizonExceededError(
        f"busy window did not close within {max_iterations} horizon "
        f"doublings (final horizon {horizon})"
    )


def _initial_estimate(task: DRTTask, beta: Curve, rho: Q) -> Q:
    """Affine estimate of the busy window: solve burst + rho*t = beta-line.

    Uses the tail line of *beta* (rate ``R`` from offset ``(t0, v0)``) and
    a crude burst bound (max WCET times vertex count, covering any acyclic
    prefix): ``t = (burst + R*t0 - v0) / (R - rho)``.
    """
    burst = task.max_wcet * len(task.job_names)
    t0 = beta.last_breakpoint
    v0 = beta.at(t0)
    rate = beta.tail_rate
    if rate <= rho:
        # Acyclic workload (rho == 0 == rate impossible here since the
        # unbounded check passed); fall back to a span-based horizon.
        total_sep = sum((e.separation for e in task.edges), Q(0))
        return max(Q(1), total_sep)
    est = (burst + rate * t0 - v0) / (rate - rho)
    return max(est, Q(1))
