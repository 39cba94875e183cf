"""Structure-aware worst-case delay analysis (the paper's contribution).

Setting: a structural task (DRT graph) releases jobs that are served in
release order by a resource guaranteeing a lower service curve ``beta``
(e.g. full speed minus interference).  The worst-case delay of a job is
bounded by examining its *busy window*: the job released at offset ``t``
after the busy-window start, with cumulative path work ``w`` (its own WCET
included), finishes no later than ``beta^{-1}(w)`` after the window start,
hence its delay is at most ``beta^{-1}(w) - t``.

The analysis therefore maximises ``beta^{-1}(w) - t`` over all *request
tuples* ``(t, w)`` reachable in the task graph within the busy window
bound ``L``.  Crucially, ``t`` and ``w`` always come from the same path:
the arrival-curve baseline (:func:`repro.core.baselines.rtc_delay`)
maximises the same expression over the *closure* ``{(t, rbf(t))}`` which
mixes the fastest time of one path with the heaviest work of another, and
is therefore never smaller and often much larger.

``structural_delay`` is exact for this semantics —
:func:`exhaustive_delay` (brute-force path enumeration) returns the same
value, and the discrete-event simulator realises it with the witness path
under an adversarial service process.

Without an ``initial_horizon`` the analysis runs on the incremental
engine: the busy window and the frontier (from the task's shared
:class:`~repro.drt.request.FrontierExplorer`) are memoized per
``(task, beta)`` in :class:`~repro.core.context.AnalysisContext`.  With
one (or with ``prune=False``) the same reductions —
:func:`critical_delay` and :func:`per_job_delays` — run on a busy window
seeded from that horizon, outside the memoized context.  Both sweep the
explorer's int keys against ``beta`` lowered to the same units
(:class:`~repro.minplus.lowering.IntService`) and convert only the
winning tuple and bound to ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import perf
from repro._numeric import Q, NumLike, is_inf
from repro.core.busy_window import BusyWindow, busy_window_bound
from repro.drt.model import DRTTask
from repro.drt.paths import Path, iter_paths
from repro.drt.request import (
    FrontierExplorer, FrontierStats, Key, RequestTuple, frontier_explorer,
)
from repro.errors import AnalysisError
from repro.minplus.curve import Curve
from repro.minplus.deviation import lower_pseudo_inverse
from repro.resilience.budget import checkpoint

__all__ = [
    "DelayResult",
    "structural_delay",
    "structural_delays_per_job",
    "exhaustive_delay",
    "critical_path_of",
]


@dataclass(frozen=True)
class DelayResult:
    """Result of a structural delay analysis.

    Attributes:
        delay: Worst-case delay bound.
        busy_window: Busy window bound ``L`` used to truncate exploration.
        horizon: Exactness horizon of the request bound fixpoint.
        critical_tuple: The ``(t, w, vertex)`` request tuple realising the
            bound (None when the bound is 0 and no tuple exceeded it).
        tuple_count: Number of Pareto tuples examined.
        stats: Exploration statistics (expansion/pruning counters).
    """

    delay: Fraction
    busy_window: Fraction
    horizon: Fraction
    critical_tuple: Optional[RequestTuple]
    tuple_count: int
    stats: FrontierStats


def _delay_of_tuple(beta: Curve, time: Q, work: Q) -> Q:
    inv = lower_pseudo_inverse(beta, work)
    if is_inf(inv):
        raise AnalysisError(
            f"service curve never provides {work} units of work"
        )
    return inv - time


def tuple_delays(
    ex: FrontierExplorer, keys: List[Key], beta: Curve
) -> Iterator[Tuple[int, Key]]:
    """``beta^{-1}(w) - t`` over ``D`` (the lowering's denominator) for
    every key, in key order, charging the budget one unit per key.

    Raises:
        AnalysisError: if the service never provides some tuple's work
            (reported for the first such tuple in key order).
    """
    low = ex.lowered(beta)
    inv, f = low.inverse, low.time_unit
    perf.record("pinv.evaluations", len(keys))
    for key in keys:
        x = inv(-key[1])
        if x is None:
            raise AnalysisError(
                "service curve never provides "
                f"{ex.request_tuple(key).work} units of work"
            )
        yield x - key[0] * f, key
    checkpoint(len(keys))


def critical_delay(
    ex: FrontierExplorer,
    bw: BusyWindow,
    keys: List[Key],
    beta: Curve,
    stats: FrontierStats,
) -> DelayResult:
    """The delay bound over the frontier *keys* of *ex* up to the busy
    window: the first key (in key order) with the strictly largest delay
    is the critical one."""
    best, critical = 0, None
    for d, key in tuple_delays(ex, keys, beta):
        if d > best:
            best, critical = d, key
    return DelayResult(
        delay=Fraction(best, ex.lowered(beta).D),
        busy_window=bw.length,
        horizon=bw.horizon,
        critical_tuple=None if critical is None else ex.request_tuple(critical),
        tuple_count=len(keys),
        stats=stats,
    )


def per_job_delays(
    ex: FrontierExplorer, keys: List[Key], beta: Curve
) -> Dict[str, Fraction]:
    """The largest tuple delay ending at each job type (0 if none)."""
    best = dict.fromkeys(ex.task.job_names, 0)
    for d, key in tuple_delays(ex, keys, beta):
        if d > best[key[3]]:
            best[key[3]] = d
    D = ex.lowered(beta).D
    return {v: Fraction(d, D) for v, d in best.items()}


def structural_delay(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
    prune: bool = True,
) -> DelayResult:
    """Worst-case delay of structural workload *task* on service *beta*.

    Args:
        task: The structural workload (DRT task).
        beta: Lower service curve of the processing resource; must be
            nondecreasing with ``beta(0) == 0``-style semantics (work is
            never served before it could be).
        initial_horizon: Optional starting horizon for the busy-window
            fixpoint (see :func:`repro.core.busy_window.busy_window_bound`).
        prune: Apply Pareto domination pruning (disable only for the
            ablation experiment; exponentially slower).

    Raises:
        UnboundedBusyWindowError: if the workload saturates the service.
    """
    if prune and initial_horizon is None:
        from repro.core.context import AnalysisContext

        return AnalysisContext.of(task, beta).delay_result()
    bw = busy_window_bound(task, beta, initial_horizon=initial_horizon)
    ex = frontier_explorer(task) if prune else FrontierExplorer(task, False)
    keys = ex.keys(bw.length)
    return critical_delay(ex, bw, keys, beta, ex.stats_at(bw.length))


def structural_delays_per_job(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
) -> Dict[str, Fraction]:
    """Worst-case delay of each job *type* (graph vertex).

    This is the quantity schedulability needs: jobs of type ``v`` meet
    their deadline iff their delay bound is at most ``d(v)``.

    Returns:
        Mapping from job name to its delay bound.
    """
    if initial_horizon is None:
        from repro.core.context import AnalysisContext

        return AnalysisContext.of(task, beta).per_job()
    bw = busy_window_bound(task, beta, initial_horizon=initial_horizon)
    ex = frontier_explorer(task)
    return per_job_delays(ex, ex.keys(bw.length), beta)


def exhaustive_delay(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
) -> Fraction:
    """Brute-force reference: maximise over *all* paths, no abstraction.

    Exponential in the busy window; only usable on small instances.  By
    construction it equals :func:`structural_delay` — the property tests
    assert exactly that.
    """
    bw = busy_window_bound(task, beta, initial_horizon=initial_horizon)
    best = Q(0)
    for path in iter_paths(task, bw.length):
        d = _delay_of_tuple(beta, path.span, path.total_work)
        if d > best:
            best = d
    return best


def critical_path_of(
    task: DRTTask, result: DelayResult
) -> Optional[Path]:
    """A witness path realising the critical tuple of *result*.

    Reconstructs, by bounded forward search, a path ending at the
    critical tuple's vertex with exactly its span and total work.  The
    witness is what the simulator replays to demonstrate tightness.

    The search memoizes visited ``(vertex, span, work)`` states: distinct
    paths that converge on the same state (diamond-shaped graphs) reach
    exactly the same set of target states, so re-expanding the state
    cannot change whether a witness exists — only make the search
    exponential.

    Returns:
        A :class:`~repro.drt.paths.Path`, or None when the result has no
        critical tuple (zero delay).
    """
    tup = result.critical_tuple
    if tup is None:
        return None
    # Forward DFS from every start vertex, pruned by span and work bounds.
    target_v, target_t, target_w = tup.vertex, tup.time, tup.work
    seen: Set[Tuple[str, Q, Q]] = set()
    stack: List[Path] = []
    for v in task.job_names:
        p = Path((v,), (Q(0),), (task.wcet(v),))
        stack.append(p)
    while stack:
        path = stack.pop()
        state = (path.vertices[-1], path.span, path.total_work)
        if state in seen:
            continue
        seen.add(state)
        if (
            path.vertices[-1] == target_v
            and path.span == target_t
            and path.total_work == target_w
        ):
            return path
        last = path.vertices[-1]
        for edge in task.successors(last):
            t2 = path.span + edge.separation
            w2 = path.total_work + task.wcet(edge.dst)
            if t2 <= target_t and w2 <= target_w:
                stack.append(path.extended(task, edge.dst, edge.separation))
    raise AnalysisError(
        f"no path realises critical tuple {tup} — frontier inconsistent"
    )
