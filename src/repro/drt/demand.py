"""Demand-bound machinery for DRT tasks.

The *demand bound function* ``dbf(Delta)`` is the maximum total WCET of
jobs that a behaviour can both release and have due inside a window of
length ``Delta``.  It is the basis of EDF schedulability on uniprocessors:
a task set is EDF-schedulable on a unit-speed processor iff
``sum_i dbf_i(Delta) <= Delta`` for every window ``Delta``.

It is read off the request tuples of the task's shared
:class:`~repro.drt.request.FrontierExplorer`, each moved to the deadline
of its last job:

    dbf(Delta) = max { w : request tuple (t, w, v) with t + d(v) <= Delta }

* *Exact for constrained deadlines* (``d(v) <= p(v, u)`` on every edge):
  deadlines then grow along a path, so every job of a path prefix is due
  by its last job's deadline, and moving each vertex's tuples by the same
  ``d(v)`` leaves the per-vertex Pareto pruning unchanged.
* *Sound for arbitrary deadlines*: cut any set of jobs due in
  ``[0, Delta]`` at its first and last counted jobs.  The result is a
  path whose request tuple at the last job ``v`` has ``t + d(v) <= Delta``
  and at least the counted work.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Tuple

from repro._numeric import Q, NumLike, as_q, scaled_int
from repro.drt.model import DRTTask
from repro.drt.request import frontier_explorer
from repro.drt.utilization import linear_request_bound
from repro.errors import ModelError
from repro.minplus.curve import Curve
from repro.minplus.segment import Segment

__all__ = ["dbf_curve", "dbf_value"]


def _demand_steps(task: DRTTask, hz: Fraction) -> Tuple[List[Tuple[int, int]], int, int]:
    """``(steps, D, W)``: the steps ``(window, work)`` of ``dbf`` on
    ``[0, hz]``, works in units ``1/W`` and windows in units ``1/D``, the
    lcm of the explorer's time unit and the deadline denominators."""
    if hz < 0:
        raise ModelError("horizon must be non-negative")
    ex = frontier_explorer(task)
    S, W = ex.units
    D = lcm(S, *(job.deadline.denominator for job in task.jobs.values()))
    f = D // S
    dl = {v: scaled_int(job.deadline, D) for v, job in task.jobs.items()}
    limit = hz.numerator * D // hz.denominator
    # Releases after hz - min deadline are due after hz.
    reach = limit - min(dl.values())
    keys = ex.keys(Fraction(reach, D)) if reach >= 0 else []
    windows = sorted(
        (t * f + dl[v], nw) for t, nw, _, v in keys if t * f + dl[v] <= limit
    )
    steps: List[Tuple[int, int]] = []
    for window, nw in windows:
        if not steps or -nw > steps[-1][1]:
            steps.append((window, -nw))
    return steps, D, W


def dbf_value(task: DRTTask, delta: NumLike) -> Fraction:
    """``dbf(delta)``: maximum demand in a window of length *delta*
    (0 when no job fits its deadline inside the window)."""
    steps, _, W = _demand_steps(task, as_q(delta))
    return Fraction(steps[-1][1], W) if steps else Q(0)


def dbf_curve(task: DRTTask, horizon: NumLike) -> Curve:
    """The demand bound function as a finitary staircase curve.

    On ``[0, horizon)`` the steps follow the module's formula: exact for
    constrained deadlines, a sound upper bound otherwise.  Beyond the
    horizon the curve continues with the exact linear request bound of
    :func:`repro.drt.utilization.linear_request_bound`: demand never
    exceeds requests, so it is sound there and exact in rate.
    """
    hz = as_q(horizon)
    steps, D, W = _demand_steps(task, hz)
    burst, rho = linear_request_bound(task)
    segs = [Segment(Q(0), Q(0), Q(0))] if hz > 0 else []
    segs += [
        Segment(Fraction(t, D), Fraction(w, W), Q(0))
        for t, w in steps
        if t * hz.denominator < hz.numerator * D
    ]
    segs.append(Segment(hz, burst + rho * hz, rho))
    return Curve(segs)
