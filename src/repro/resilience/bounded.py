"""Anytime-sound bounded analysis: the degradation ladder.

:func:`bounded_delay` is the budgeted counterpart of
:func:`repro.core.delay.structural_delay`.  Given a
:class:`~repro.resilience.budget.Budget` it walks a ladder of analyses,
each cheaper and no less pessimistic than the one above, and returns the
bound of the highest rung the budget allowed to finish:

1. **exact frontier** — the full structural analysis, metered by
   cooperative checkpoints;
2. **k-segment curve approximation** — the request-bound staircase
   explored so far (the shared frontier explorer keeps it across the
   unwind), continued by its sound affine tail and compressed to
   the budget's ``max_segments`` with
   :func:`repro.minplus.approximation.upper_approximation`; the bound is
   the horizontal deviation against the service curve.  Pointwise the
   compressed curve dominates the exact request bound, so the bound
   dominates the exact delay;
3. **utilization/rate bound** — the exact linear request bound
   ``B + rho * t`` of :func:`repro.drt.utilization.linear_request_bound`
   against the service curve: closed-form, always bounded effort.

Rungs 2 and 3 run *outside* the budget: their cost is bounded by
construction (a handful of segments), so they terminate even when the
budget is fully spent — the analysis always returns in bounded time with
a sound bound or a typed error.  Soundness of the ladder
(``bound >= exact delay``) is property-tested on random DRT sets in
``tests/test_budget.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from repro._numeric import Q, is_inf
from repro.errors import BudgetExhaustedError, UnboundedBusyWindowError
from repro.resilience.budget import Budget, BudgetMeter, budget_scope

__all__ = ["BoundedDelayResult", "bounded_delay", "bounded_delay_many"]

#: Ladder rung names, highest fidelity first.
LEVELS = ("exact", "k-segment", "rate")


@dataclass(frozen=True)
class BoundedDelayResult:
    """Outcome of a budgeted structural delay analysis.

    Attributes:
        delay: The delay bound.  Exact when ``degraded`` is False, a
            sound over-approximation (``>=`` the exact bound) otherwise.
        degraded: True iff the budget forced an approximate rung.
        level: The ladder rung that produced the bound (``"exact"``,
            ``"k-segment"`` or ``"rate"``).
        reason: Why the exact rung did not finish (None when it did) —
            e.g. ``"exact: deadline"``.
        busy_window: Busy-window bound (exact rung only).
        critical_tuple: Witness request tuple (exact rung only).
        tuple_count: Frontier tuples examined (exact rung only).
        explored_horizon: Horizon up to which the request bound was
            exactly explored when a degraded rung answered (None for
            the exact rung and the pure rate bound).
    """

    delay: Fraction
    degraded: bool
    level: str
    reason: Optional[str]
    busy_window: Optional[Fraction] = None
    critical_tuple: Optional[object] = None
    tuple_count: Optional[int] = None
    explored_horizon: Optional[Fraction] = None


def _exact_result(res) -> BoundedDelayResult:
    return BoundedDelayResult(
        delay=res.delay,
        degraded=False,
        level="exact",
        reason=None,
        busy_window=res.busy_window,
        critical_tuple=res.critical_tuple,
        tuple_count=res.tuple_count,
    )


def _hdev_bound(curve, beta) -> Fraction:
    """Horizontal deviation as a delay bound, typed error if unbounded."""
    from repro.minplus.deviation import horizontal_deviation

    bound = horizontal_deviation(curve, beta)
    if is_inf(bound):
        raise UnboundedBusyWindowError(
            f"degraded request bound (rate {curve.tail_rate}) saturates "
            f"the service rate {beta.tail_rate}"
        )
    return max(bound, Q(0))


def bounded_delay(
    task,
    beta,
    budget: Optional[Budget] = None,
    backend: Optional[str] = None,
) -> BoundedDelayResult:
    """Worst-case delay of *task* on *beta* within a cooperative budget.

    Args:
        task: The structural workload.
        beta: Lower service curve of the resource.
        budget: Effort specification; ``None`` runs the plain exact
            analysis (zero additional cost beyond disabled checkpoints).
        backend: Kernel backend override (see
            :mod:`repro.minplus.backend`).

    Returns:
        A :class:`BoundedDelayResult`; ``degraded=True`` results carry a
        bound provably at or above the exact one.

    Raises:
        UnboundedBusyWindowError: when even the degraded request bound
            saturates the service (a model property, not a budget one).
        BudgetExhaustedError: never — exhaustion degrades instead.
    """
    from repro.core.delay import structural_delay
    from repro.minplus import backend as backend_mod

    scope = (
        backend_mod.use_backend(backend)
        if backend
        else _null_context()
    )
    with scope:
        if budget is None:
            return _exact_result(structural_delay(task, beta))
        meter = budget.start()
        try:
            with budget_scope(meter):
                res = structural_delay(task, beta)
            return _exact_result(res)
        except BudgetExhaustedError as exc:
            reason = f"exact: {exc.reason}"
        return _degraded_bound(task, beta, meter, reason)


def _degraded_bound(
    task, beta, meter: BudgetMeter, reason: str
) -> BoundedDelayResult:
    """Rungs 2 and 3: bounded-by-construction, run outside the budget."""
    from repro.drt.request import frontier_explorer
    from repro.drt.utilization import linear_request_bound
    from repro.minplus.approximation import upper_approximation
    from repro.minplus.curve import Curve
    from repro.minplus.segment import Segment

    ex = frontier_explorer(task)
    hz = ex.explored_horizon
    if hz is not None and hz > 0:
        # Exact staircase on [0, hz) + sound affine tail beyond: a
        # pointwise upper bound on the true request bound everywhere.
        rbf = ex.rbf_curve(hz)
        k = meter.max_segments()
        if len(rbf.segments) > k:
            rbf = upper_approximation(rbf, k)
        return BoundedDelayResult(
            delay=_hdev_bound(rbf, beta),
            degraded=True,
            level="k-segment",
            reason=reason,
            explored_horizon=hz,
        )
    burst, rho = linear_request_bound(task)
    affine = Curve([Segment(Q(0), burst, rho)])
    return BoundedDelayResult(
        delay=_hdev_bound(affine, beta),
        degraded=True,
        level="rate",
        reason=reason,
    )


def _null_context():
    from contextlib import nullcontext

    return nullcontext()


def _bounded_case(item) -> BoundedDelayResult:
    """One task's bounded analysis (module-level: ships to workers)."""
    task, beta, budget, backend = item
    return bounded_delay(task, beta, budget=budget, backend=backend)


def bounded_delay_many(
    tasks: Sequence,
    beta,
    budget: Optional[Budget] = None,
    backend: Optional[str] = None,
    jobs=None,
    timeout: Optional[float] = None,
) -> List[BoundedDelayResult]:
    """:func:`bounded_delay` for many tasks, with watchdog fan-out.

    Each worker meters its own copy of *budget* (budgets are per-item
    specifications).  Combined with ``timeout=``, this is the plane's
    fully-armoured path: hung or crashed workers are retried and finally
    re-executed serially under the item budget's degraded mode — see
    :func:`repro.parallel.plane.parallel_map`.
    """
    from repro.parallel.plane import parallel_map

    items = [(task, beta, budget, backend) for task in tasks]
    return parallel_map(
        _bounded_case, items, jobs=jobs, timeout=timeout, budget=budget
    )
