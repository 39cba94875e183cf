"""Baseline delay analyses the structural analysis is compared against.

* :func:`rtc_delay` — the real-time-calculus bound: abstract the task into
  its request bound function (an arrival curve) and take the horizontal
  deviation from the service curve.  Sound, and exact *for the curve* —
  all pessimism comes from the abstraction mixing incompatible paths.
* :func:`sporadic_delay` — the coarsest standard baseline: abstract the
  task into a sporadic task (max WCET, min separation) first.

Both bounds dominate the structural bound from above; the evaluation
measures by how much.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro._numeric import Q, NumLike, is_inf
from repro.core.busy_window import busy_window_bound
from repro.drt.model import DRTTask, SporadicTask
from repro.drt.request import frontier_explorer
from repro.drt.transform import sporadic_abstraction
from repro.errors import UnboundedBusyWindowError
from repro.minplus.builders import staircase
from repro.minplus.curve import Curve
from repro.minplus.deviation import horizontal_deviation, vertical_deviation
from repro.resilience.budget import checkpoint

__all__ = [
    "rtc_delay",
    "sporadic_delay",
    "rtc_backlog",
    "token_bucket_delay",
    "concave_hull_delay",
    "concave_hull",
]


def rtc_delay(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
) -> Fraction:
    """The arrival-curve (RTC) delay bound: ``hdev(rbf, beta)``.

    Past the busy window bound ``L`` the request curve lies below *beta*,
    so every step and the tail there deviate by at most 0, and on a
    staircase the deviation peaks at a step's start: the bound is the
    largest ``beta^{-1}(w) - t`` over the steps up to ``L`` (at least 0),
    the delay sweep of :mod:`repro.core.delay` run on the steps.
    """
    _, low, steps = _steps_to_busy_window(task, beta, initial_horizon)
    best = 0
    for t, w in steps:
        x = low.inverse(w)
        if x is None:  # pragma: no cover - excluded by the busy window
            raise UnboundedBusyWindowError("horizontal deviation is infinite")
        best = max(best, x - t * low.time_unit)
    return Fraction(best, low.D)


def rtc_backlog(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
) -> Fraction:
    """The RTC backlog bound: ``vdev(rbf, beta)``, the largest ``w -
    beta(t)`` over the steps up to ``L``.  When no step exceeds *beta*
    (``L == 0``; a service burst at 0 can make the deviation negative)
    it is taken on the curves."""
    bw, low, steps = _steps_to_busy_window(task, beta, initial_horizon)
    best = max(w * low.work_unit - low.value(t) for t, w in steps)
    if best > 0:
        return Fraction(best, low.E)
    return vertical_deviation(bw.rbf, beta)


def _steps_to_busy_window(task, beta, initial_horizon):
    """The busy window, *beta* lowered to the explorer's units and the
    request staircase's steps up to ``L``; one budget unit per step."""
    bw = busy_window_bound(task, beta, initial_horizon=initial_horizon)
    ex = frontier_explorer(task)
    low, (num, den) = ex.lowered(beta), bw.length.as_integer_ratio()
    steps = [  # t/S <= L, cross-multiplied over D
        (t, w) for t, w in ex.staircase(bw.horizon)
        if t * low.time_unit * den <= num * low.D
    ]
    checkpoint(len(steps))
    return bw, low, steps


def token_bucket_delay(task: DRTTask, beta: Curve) -> Fraction:
    """Delay bound from the linear (token-bucket) abstraction.

    Abstracts the task into the tight affine arrival curve
    ``B + rho * Delta`` (:func:`repro.drt.utilization.linear_request_bound`)
    — the one-segment concave approximation every fast curve tool can
    afford — and takes the horizontal deviation.
    """
    from repro.drt.utilization import linear_request_bound
    from repro.minplus.builders import affine

    burst, rho = linear_request_bound(task)
    if rho >= beta.tail_rate:
        raise UnboundedBusyWindowError(
            f"token-bucket rate {rho} >= service rate {beta.tail_rate}"
        )
    d = horizontal_deviation(affine(burst, rho), beta)
    if is_inf(d):  # pragma: no cover - rate checked above
        raise UnboundedBusyWindowError("token-bucket deviation infinite")
    return d


def concave_hull(curve: Curve, tail_rate: Fraction) -> Curve:
    """The least concave majorant of a staircase/PWL curve.

    Takes the upper convex hull (in the concave sense) of the curve's
    corner points together with the affine tail direction *tail_rate*:
    the k-segment concave arrival approximation classical RTC tools
    operate on.  The result dominates the input pointwise.
    """
    # Collect candidate points: post-jump values at breakpoints plus the
    # tail anchor.
    pts = []
    for t in curve.breakpoints():
        pts.append((t, curve.at(t)))
    # Upper hull with decreasing slopes (Andrew's monotone chain, upper).
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    # Enforce the tail: final slope must be >= tail_rate; pop hull points
    # that would make the last segment flatter than the tail.
    while len(hull) >= 2:
        (t0, v0), (t1, v1) = hull[-2], hull[-1]
        if (v1 - v0) / (t1 - t0) < tail_rate:
            hull.pop()
        else:
            break
    from repro.minplus.segment import Segment

    segs = []
    for (t0, v0), (t1, v1) in zip(hull, hull[1:]):
        segs.append(Segment(t0, v0, (v1 - v0) / (t1 - t0)))
    t_last, v_last = hull[-1]
    if t_last == 0:
        segs = [Segment(Q(0), v_last, tail_rate)]
    else:
        segs.append(Segment(t_last, v_last, tail_rate))
    return Curve(segs)


def _cross(o, a, b) -> Fraction:
    """z-component of (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def concave_hull_delay(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
) -> Fraction:
    """Delay bound from the concave-hull abstraction of the request bound.

    The piecewise-linear concave majorant of the exact staircase — the
    multi-segment approximation RTC toolboxes use — sits between the
    token-bucket and the exact curve in precision.
    """
    bw = busy_window_bound(task, beta, initial_horizon=initial_horizon)
    hull = concave_hull(bw.rbf, bw.rbf.tail_rate)
    d = horizontal_deviation(hull, beta)
    if is_inf(d):
        raise UnboundedBusyWindowError("concave-hull deviation infinite")
    return d


def sporadic_delay(task: DRTTask, beta: Curve) -> Fraction:
    """Delay bound after sporadic abstraction (max WCET, min separation).

    Raises:
        UnboundedBusyWindowError: when the abstraction saturates the
            service even though the structural task may not (this is the
            point of the precision comparison: the coarse model often
            *cannot be analysed at all*).
    """
    sp = sporadic_abstraction(task)
    return sporadic_task_delay(sp, beta)


def sporadic_task_delay(sp: SporadicTask, beta: Curve) -> Fraction:
    """Delay bound of a classical sporadic task on service *beta*."""
    rate = sp.wcet / sp.period
    if rate >= beta.tail_rate:
        raise UnboundedBusyWindowError(
            f"sporadic abstraction utilization {rate} >= service rate "
            f"{beta.tail_rate}"
        )
    # Iterate the staircase horizon until the deviation is attained
    # strictly inside the exact region (tail slope of the staircase is the
    # exact long-run rate, so a couple of doublings always suffice).
    horizon = max(sp.period * 4, beta.last_breakpoint * 2, Q(1))
    for _ in range(64):
        alpha = staircase(sp.wcet, sp.period, horizon)
        d = horizontal_deviation(alpha, beta)
        alpha_next = staircase(sp.wcet, sp.period, horizon * 2)
        d_next = horizontal_deviation(alpha_next, beta)
        if not is_inf(d) and d == d_next:
            return d
        horizon *= 2
    raise UnboundedBusyWindowError(
        "sporadic delay bound did not stabilise"
    )  # pragma: no cover
