"""Structure-aware worst-case backlog analysis.

The backlog at any instant inside a busy window equals released work
minus provided service.  With request tuples ``(t, w)`` — work *w*
released by a single path by offset *t* — the exact bound is

    B* = max over tuples (t, w) of  [ w - beta(t) ]^+

because backlog peaks immediately after a release (it only drains in
between), and the busy-window bound truncates the exploration exactly as
for delays.  The arrival-curve counterpart is the vertical deviation
``vdev(rbf, beta)`` which — unlike the delay case — coincides with the
structural bound for a single task (sup over the staircase's jump points
is the same maximisation); the coarser abstractions (hull, bucket,
sporadic) remain strictly pessimistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from repro._numeric import NumLike
from repro.core.busy_window import BusyWindow, busy_window_bound
from repro.drt.model import DRTTask
from repro.drt.request import (
    FrontierExplorer, Key, RequestTuple, frontier_explorer,
)
from repro.minplus.curve import Curve
from repro.resilience.budget import checkpoint

__all__ = ["BacklogResult", "structural_backlog"]


@dataclass(frozen=True)
class BacklogResult:
    """Result of a structural backlog analysis.

    Attributes:
        backlog: Worst-case buffered work.
        busy_window: Busy window bound used to truncate exploration.
        critical_tuple: The request tuple realising the bound (None when
            the service absorbs every release instantly).
    """

    backlog: Fraction
    busy_window: Fraction
    critical_tuple: Optional[RequestTuple]


def critical_backlog(
    ex: FrontierExplorer, bw: BusyWindow, keys: List[Key], beta: Curve
) -> BacklogResult:
    """The backlog bound over the frontier *keys* of *ex* up to the busy
    window: the first key (in key order) with the strictly largest
    ``w - beta(t)`` is the critical one.  Swept on ints over ``E`` (the
    lowering's denominator), one budget unit per key."""
    low = ex.lowered(beta)
    value, g = low.value, low.work_unit
    best, critical = 0, None
    for key in keys:
        b = -key[1] * g - value(key[0])
        if b > best:
            best, critical = b, key
    checkpoint(len(keys))
    return BacklogResult(
        backlog=Fraction(best, low.E),
        busy_window=bw.length,
        critical_tuple=None if critical is None else ex.request_tuple(critical),
    )


def structural_backlog(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
) -> BacklogResult:
    """Worst-case backlog of structural workload *task* on service *beta*.

    Without an *initial_horizon* the result is served from the shared
    per-``(task, beta)`` :class:`~repro.core.context.AnalysisContext`.

    Args:
        task: The structural workload.
        beta: Lower service curve of the resource.
        initial_horizon: Optional starting horizon for the busy-window
            fixpoint.

    Raises:
        UnboundedBusyWindowError: if the workload saturates the service.
    """
    if initial_horizon is None:
        from repro.core.context import AnalysisContext

        return AnalysisContext.of(task, beta).backlog_result()
    bw = busy_window_bound(task, beta, initial_horizon=initial_horizon)
    ex = frontier_explorer(task)
    return critical_backlog(ex, bw, ex.keys(bw.length), beta)
