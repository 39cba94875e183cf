"""Per-``(task, beta)`` memoized analysis context.

Every analysis of a structural task on a service curve needs the same two
expensive artefacts: the busy-window fixpoint ``L`` and the request
frontier truncated at ``L``.  Historically each entry point
(:func:`~repro.core.delay.structural_delay`,
:func:`~repro.core.delay.structural_delays_per_job`,
:func:`~repro.core.backlog.structural_backlog`, the baselines, the EDF
and multi-task analyses) recomputed both from scratch — six independent
``request_frontier`` call sites.  :class:`AnalysisContext` computes each
artefact once per ``(task, beta)`` pair and derives every bound from the
shared copy, including the per-tuple delays, which it obtains with a
single batched pseudo-inverse sweep
(:func:`~repro.minplus.deviation.lower_pseudo_inverse_batch`).

Invalidation story: there is none, by construction.  ``DRTTask`` is
immutable after ``__init__`` (its docstring blesses free memoization in
``_analysis_cache``) and ``Curve`` is an immutable value type with
structural equality and hashing — so a context, once built, can never go
stale.  Contexts live in the task's ``_analysis_cache`` keyed by the
service curve and are dropped with the task itself.

Every bound a context produces is bit-identical (exact
:class:`~fractions.Fraction` equality) to the from-scratch value: it
iterates the same tuples in the same order with the same strict
comparisons, so even tie-breaking — which tuple is reported as critical —
is preserved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from repro import perf
from repro._numeric import Q, is_inf
from repro.core.backlog import BacklogResult
from repro.core.busy_window import BusyWindow, busy_window_bound
from repro.core.delay import DelayResult
from repro.drt.model import DRTTask
from repro.drt.request import (
    FrontierStats,
    RequestTuple,
    frontier_explorer,
)
from repro.errors import AnalysisError
from repro.minplus.curve import Curve
from repro.minplus.deviation import lower_pseudo_inverse_batch
from repro.parallel import cache as result_cache

__all__ = ["AnalysisContext"]


class AnalysisContext:
    """Shared exploration state for one ``(task, beta)`` pair.

    Obtain instances through :meth:`of`, which memoizes them in the
    task's analysis cache; constructing one directly gives an uncached
    context (useful in tests).

    Args:
        task: The structural workload.
        beta: Lower service curve of the resource.
        persist: Write results to the persistent result cache (default).
            The incremental what-if engine passes ``False``: its
            contexts are built on *forked* explorers whose exploration
            statistics reflect only the incremental work, so while the
            bounds are bit-identical to from-scratch, the stats embedded
            in a :class:`~repro.core.delay.DelayResult` are not — such
            results must not be served to cold from-scratch readers.
            Cache *reads* stay enabled either way (cached entries carry
            from-scratch stats and identical bounds).
    """

    __slots__ = (
        "task",
        "beta",
        "_persist",
        "_initial_horizon",
        "_bw",
        "_tuples",
        "_stats",
        "_delays",
        "_delay_result",
        "_per_job",
        "_backlog_result",
    )

    def __init__(
        self,
        task: DRTTask,
        beta: Curve,
        persist: bool = True,
        initial_horizon=None,
    ) -> None:
        self.task = task
        self.beta = beta
        self._persist = persist
        self._initial_horizon = initial_horizon
        self._bw: Optional[BusyWindow] = None
        self._tuples: Optional[List[RequestTuple]] = None
        self._stats: Optional[FrontierStats] = None
        self._delays: Optional[List[Q]] = None
        self._delay_result: Optional[DelayResult] = None
        self._per_job: Optional[Dict[str, Fraction]] = None
        self._backlog_result: Optional[BacklogResult] = None

    @classmethod
    def of(
        cls,
        task: DRTTask,
        beta: Curve,
        persist: bool = True,
        initial_horizon=None,
    ) -> "AnalysisContext":
        """The memoized context of ``(task, beta)``, created on first use.

        ``initial_horizon`` seeds the busy-window fixpoint (see
        :func:`~repro.core.busy_window.busy_window_bound`); the converged
        *length* — and every bound derived from it — is independent of
        the seed, which only saves doubling rounds.  The what-if engine
        passes the base model's exactness horizon so each edited
        context's fixpoint usually closes in one round.
        """
        from repro.drt.digest import guard_cache

        cache = guard_cache(task)
        key = ("analysis_context", beta)
        ctx = cache.get(key)
        if ctx is None:
            ctx = cls(
                task, beta, persist=persist, initial_horizon=initial_horizon
            )
            cache[key] = ctx
            perf.record("context.misses")
        else:
            perf.record("context.hits")
        return ctx

    # -- shared artefacts -------------------------------------------------

    def busy_window(self) -> BusyWindow:
        """The busy-window fixpoint (computed once per context)."""
        if self._bw is None:
            self._bw = busy_window_bound(
                self.task, self.beta, initial_horizon=self._initial_horizon
            )
        return self._bw

    def frontier(self) -> List[RequestTuple]:
        """The request frontier truncated at the busy window bound."""
        if self._tuples is None:
            bw = self.busy_window()
            with perf.timed("frontier"):
                ex = frontier_explorer(self.task)
                self._tuples = ex.tuples(bw.length)
                self._stats = ex.stats_at(bw.length)
        return self._tuples

    def stats(self) -> FrontierStats:
        """Exploration statistics of :meth:`frontier` (a fresh copy)."""
        self.frontier()
        out = FrontierStats()
        out.add(self._stats)
        return out

    def tuple_delays(self) -> List[Q]:
        """Per-tuple delay ``beta^{-1}(w) - t``, aligned with
        :meth:`frontier`, via one batched pseudo-inverse sweep.

        Raises:
            AnalysisError: if the service never provides some tuple's
                work (reported for the first such tuple in frontier
                order, exactly as the scalar loop would).
        """
        if self._delays is None:
            tuples = self.frontier()
            with perf.timed("delay"):
                invs = lower_pseudo_inverse_batch(
                    self.beta, [t.work for t in tuples]
                )
            for tup, inv in zip(tuples, invs):
                if is_inf(inv):
                    raise AnalysisError(
                        f"service curve never provides {tup.work} units of work"
                    )
            self._delays = [
                inv - tup.time for tup, inv in zip(tuples, invs)
            ]
        return self._delays

    # -- the bounds -------------------------------------------------------

    def delay_result(self) -> DelayResult:
        """The structural delay analysis result (computed once).

        Consults the persistent result cache (when enabled) before
        exploring: cached entries were produced by this very code path
        from identical inputs, so returning one is bit-identical to
        recomputing.
        """
        if self._delay_result is None:
            hit = result_cache.get_analysis("ctx.delay", self.task, self.beta)
            if hit is not None:
                self._delay_result = hit
                return self._delay_result
            bw = self.busy_window()
            tuples = self.frontier()
            best = Q(0)
            critical: Optional[RequestTuple] = None
            for tup, d in zip(tuples, self.tuple_delays()):
                if d > best:
                    best = d
                    critical = tup
            self._delay_result = DelayResult(
                delay=best,
                busy_window=bw.length,
                horizon=bw.horizon,
                critical_tuple=critical,
                tuple_count=len(tuples),
                stats=self.stats(),
            )
            if self._persist:
                result_cache.put_analysis(
                    "ctx.delay", self.task, self.beta, self._delay_result
                )
        return self._delay_result

    def per_job(self) -> Dict[str, Fraction]:
        """Worst-case delay per job type (computed once)."""
        if self._per_job is None:
            hit = result_cache.get_analysis("ctx.per_job", self.task, self.beta)
            if hit is not None:
                self._per_job = hit
                return dict(self._per_job)
            delays: Dict[str, Fraction] = {
                v: Q(0) for v in self.task.job_names
            }
            tuples = self.frontier()
            for tup, d in zip(tuples, self.tuple_delays()):
                if d > delays[tup.vertex]:
                    delays[tup.vertex] = d
            self._per_job = delays
            if self._persist:
                result_cache.put_analysis(
                    "ctx.per_job", self.task, self.beta, self._per_job
                )
        return dict(self._per_job)

    def backlog_result(self) -> BacklogResult:
        """The structural backlog analysis result (computed once)."""
        if self._backlog_result is None:
            hit = result_cache.get_analysis("ctx.backlog", self.task, self.beta)
            if hit is not None:
                self._backlog_result = hit
                return self._backlog_result
            bw = self.busy_window()
            tuples = self.frontier()
            best = Q(0)
            critical: Optional[RequestTuple] = None
            for tup in tuples:
                b = tup.work - self.beta.at(tup.time)
                if b > best:
                    best = b
                    critical = tup
            self._backlog_result = BacklogResult(
                backlog=best, busy_window=bw.length, critical_tuple=critical
            )
            if self._persist:
                result_cache.put_analysis(
                    "ctx.backlog", self.task, self.beta, self._backlog_result
                )
        return self._backlog_result
