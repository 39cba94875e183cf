"""Per-``(task, beta)`` memoized analysis context.

Every analysis of a structural task on a service curve needs the same two
expensive artefacts: the busy-window fixpoint ``L`` and the request
frontier truncated at ``L``.  :class:`AnalysisContext` computes each once
per ``(task, beta)`` pair and derives every bound from the shared copy.
The frontier stays in the explorer's int keys: each bound is one sweep
over them against ``beta`` lowered to the same units, and
:class:`~repro.drt.request.RequestTuple` objects are built only for a
bound's critical tuple, or when a caller asks for :meth:`frontier`.

Invalidation story: there is none, by construction.  ``DRTTask`` is
immutable after ``__init__`` (its docstring blesses free memoization in
``_analysis_cache``) and ``Curve`` is an immutable value type with
structural equality and hashing — so a context, once built, can never go
stale.  Contexts live in the task's ``_analysis_cache`` keyed by the
service curve and are dropped with the task itself.

Every bound a context produces is bit-identical (exact
:class:`~fractions.Fraction` equality) to the from-scratch value: the
keys are the shared explorer's truncated view at ``L``, which equals a
from-scratch exploration to ``L``, and the reductions over them are the
very functions the ``initial_horizon`` path of :mod:`repro.core.delay`
and :mod:`repro.core.backlog` calls
(:func:`~repro.core.delay.critical_delay`,
:func:`~repro.core.delay.per_job_delays`,
:func:`~repro.core.backlog.critical_backlog`), so even tie-breaking —
which tuple is reported as critical — is the same by construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from repro import perf
from repro.core.backlog import BacklogResult, critical_backlog
from repro.core.busy_window import BusyWindow, busy_window_bound
from repro.core.delay import DelayResult, critical_delay, per_job_delays
from repro.drt.model import DRTTask
from repro.drt.request import (
    FrontierExplorer, FrontierStats, Key, RequestTuple, frontier_explorer,
)
from repro.minplus.curve import Curve
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
        "_ex",
        "_keys",
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
        self._ex: Optional[FrontierExplorer] = None
        self._keys: Optional[List[Key]] = None
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

    def _explorer(self) -> FrontierExplorer:
        if self._ex is None:
            self._ex = frontier_explorer(self.task)
        return self._ex

    def keys(self) -> List[Key]:
        """The explorer's int frontier keys up to the busy window bound
        (fetched once per context)."""
        if self._keys is None:
            bw = self.busy_window()
            with perf.timed("frontier"):
                self._keys = self._explorer().keys(bw.length)
        return self._keys

    def frontier(self) -> List[RequestTuple]:
        """The request frontier truncated at the busy window bound."""
        return self._explorer().tuples(self.busy_window().length)

    def stats(self) -> FrontierStats:
        """Exploration statistics of the frontier (a fresh copy)."""
        return self._explorer().stats_at(self.busy_window().length)

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
            keys = self.keys()
            with perf.timed("delay"):
                self._delay_result = critical_delay(
                    self._explorer(),
                    self.busy_window(),
                    keys,
                    self.beta,
                    self.stats(),
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
            self._per_job = per_job_delays(
                self._explorer(), self.keys(), self.beta
            )
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
            self._backlog_result = critical_backlog(
                self._explorer(), self.busy_window(), self.keys(), self.beta
            )
            if self._persist:
                result_cache.put_analysis(
                    "ctx.backlog", self.task, self.beta, self._backlog_result
                )
        return self._backlog_result
