"""EDF schedulability of structural task sets via demand bound functions.

A set of structural tasks is EDF-schedulable on a resource with lower
service curve ``beta`` if the total demand never exceeds the guaranteed
service: ``sum_i dbf_i(Delta) <= beta(Delta)`` for every window
``Delta >= 0``.  The check is finitary: beyond the busy-window-style
bound where the affine demand tails drop below the service, the
inequality holds permanently.

Demand curves are read off each task's shared request explorer
(:func:`repro.drt.demand.dbf_curve`), so the test is exact for
constrained deadlines and sufficient otherwise, and a horizon doubling
extends the explorers instead of exploring again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from repro._numeric import Q, NumLike, as_q
from repro.core.busy_window import last_positive_time
from repro.drt.demand import dbf_curve
from repro.drt.model import DRTTask
from repro.errors import UnboundedBusyWindowError
from repro.minplus.curve import Curve

__all__ = ["EdfResult", "edf_schedulable"]


@dataclass(frozen=True)
class EdfResult:
    """Outcome of the EDF demand test.

    Attributes:
        schedulable: Verdict.
        violation_window: A window length where demand exceeds service
            (None when schedulable).
        horizon: Exactness horizon at which the test closed.
    """

    schedulable: bool
    violation_window: Optional[Fraction]
    horizon: Fraction


def edf_schedulable(
    tasks: Sequence[DRTTask],
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
    max_iterations: int = 40,
) -> EdfResult:
    """EDF demand-bound test for structural tasks on service *beta*.

    The demand curves are exact up to the iterated horizon; their affine
    tails carry the exact long-run rates, so the test closes whenever the
    total utilization is below the service rate.

    Args:
        tasks: The structural workloads (constrained deadlines give the
            exact test; otherwise it is sufficient, not necessary).  An
            empty set is schedulable.
        beta: Lower service curve.
        initial_horizon: Optional starting horizon.
        max_iterations: Cap on horizon doublings.

    Raises:
        UnboundedBusyWindowError: if the demand tails never drop below
            the service (long-run overload: trivially unschedulable
            workloads report this instead of a violation window).
    """
    horizon = as_q(initial_horizon) if initial_horizon is not None else Q(64)
    if not tasks:
        return EdfResult(True, None, horizon)
    for _ in range(max_iterations):
        total = dbf_curve(tasks[0], horizon)
        for task in tasks[1:]:
            total = total + dbf_curve(task, horizon)
        diff = total - beta
        try:
            last = last_positive_time(diff)
        except UnboundedBusyWindowError:
            # Demand tails carry the exact long-run rates; a positive tail
            # is genuine long-run overload, not a short horizon.
            raise UnboundedBusyWindowError(
                f"total demand rate {total.tail_rate} saturates the service "
                f"rate {beta.tail_rate}"
            ) from None
        if last is None:
            return EdfResult(True, None, horizon)
        if last < horizon:
            # A genuine violation exists iff the difference is positive
            # somewhere in the exact region; find a witness window.
            witness = _violation_witness(diff, last)
            if witness is None:
                return EdfResult(True, None, horizon)
            return EdfResult(False, witness, horizon)
        horizon *= 2
    raise UnboundedBusyWindowError(
        f"EDF test did not close within {max_iterations} horizon doublings"
    )


def _violation_witness(diff: Curve, last: Q) -> Optional[Q]:
    """A point in ``[0, last]`` where *diff* is strictly positive.

    Scans each affine piece: positivity inside a piece implies positivity
    at its start, or after an interior zero crossing with positive slope
    (then the midpoint of the positive part is a witness).
    """
    starts = diff.breakpoints()
    for i, seg in enumerate(diff.segments):
        if seg.start > last:
            break
        end = starts[i + 1] if i + 1 < len(starts) else last
        end = min(end, last)
        if seg.value > 0:
            return seg.start
        if seg.slope > 0 and end > seg.start and seg.value_at(end) > 0:
            crossing = seg.start + (0 - seg.value) / seg.slope
            return (crossing + end) / 2
    if diff.at(last) > 0:
        return last
    return None
