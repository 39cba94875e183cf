"""Incremental what-if re-analysis of edited models.

Design-space sweeps ask thousands of small questions about one base
model: *what if this edge's separation tightened, this WCET grew 10%,
the service latency doubled?*  Re-analyzing each variant from scratch
repeats almost all of the exploration — the edit's blast radius
(:func:`~repro.drt.digest.structural_diff`) is typically a small cone
of the graph.  :class:`WhatIfSession` analyses each edit against the
base task's *warm* shared state:

* β-only edits reuse the base task object (and therefore its shared
  :func:`~repro.drt.request.frontier_explorer` and every memo in its
  analysis cache) directly — only the service-side work repeats.
* Structural edits fork the base explorer against the diff
  (:meth:`~repro.drt.request.FrontierExplorer.fork`): frontiers outside
  the affected cone carry over verbatim and only the cone re-expands.
* Per-vertex delay bounds are additionally cached in the persistent
  result cache under :func:`~repro.drt.digest.backward_cone_digest`
  keys, so *any* process re-analyzing a variant reuses every vertex
  whose backward-reachable subgraph (and busy window) the edit left
  alone.

Every bound an edited analysis produces is bit-identical (exact
:class:`~fractions.Fraction` equality) to a from-scratch analysis of
the edited model — enforced by the hypothesis property suite.  What
*does* differ is exploration statistics (a forked explorer only counts
the incremental work), which is why what-if contexts never persist
whole-analysis results (``persist=False``) — they would carry
misleading stats to cold readers — while per-vertex *bounds* (pure
values, no stats) are cached freely.

:func:`whatif_sweep` batches many edits over warm sessions on the
parallel plane; the service's ``POST /v1/whatif`` endpoint and the
``repro whatif`` CLI subcommand are thin wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro import perf
from repro.core.context import AnalysisContext
from repro.core.delay import critical_path_of
from repro.core.facade import TaskAnalysisSummary
from repro.drt.digest import (
    backward_cone_digest,
    cycles_untouched,
    guard_cache,
    structural_diff,
)
from repro.drt.model import DRTTask
from repro.drt.request import frontier_explorer
from repro.errors import (
    BudgetExhaustedError,
    ReproError,
    UnboundedBusyWindowError,
    ValidationError,
)
from repro.minplus.curve import Curve
from repro.parallel import cache as result_cache
from repro.parallel.plane import JobsLike, parallel_map, resolve_jobs
from repro.whatif.edits import Edit, apply_edit, edit_to_dict

__all__ = ["WhatIfResult", "WhatIfSession", "whatif_sweep"]


def _error_code(exc: BaseException) -> str:
    """The wire error code of one failed edit (mirrors the service's)."""
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, UnboundedBusyWindowError):
        return "unbounded"
    if isinstance(exc, BudgetExhaustedError):
        return "budget_exhausted"
    return "analysis_error"


@dataclass(frozen=True)
class WhatIfResult:
    """Outcome of one edit's re-analysis.

    Attributes:
        edit: The edit's wire form (:func:`~repro.whatif.edits.edit_to_dict`).
        ok: True iff the edited model analysed successfully.
        summary: The edited model's headline bounds (None on failure).
            Bit-identical to a from-scratch analysis of the edited
            model; chunking and transport never change it.
        error: Failure message (None on success).  A failing *edit* —
            removing an edge isolates a vertex, scaling a WCET overloads
            the service — is a first-class answer, not an exception: the
            rest of the sweep proceeds.
        error_code: Typed failure class (``validation``, ``unbounded``,
            ``budget_exhausted``, ``analysis_error``), or None.
        cone_size: Vertices inside the edit's affected cone (0 for
            β-only edits).
        carried_vertices: Vertices whose frontiers carried over from the
            warm base exploration.
        total_vertices: Vertex count of the edited model.
    """

    edit: Dict[str, Any]
    ok: bool
    summary: Optional[TaskAnalysisSummary] = None
    error: Optional[str] = None
    error_code: Optional[str] = None
    cone_size: int = 0
    carried_vertices: int = 0
    total_vertices: int = 0


class WhatIfSession:
    """Warm incremental re-analysis of edits against one base model.

    Construction analyses the base pair once (delay, per-job, backlog),
    which grows the base task's shared explorer to its busy window;
    every subsequent :meth:`analyze` reuses that exploration through
    explorer forking and the per-vertex result cache.

    Args:
        task: The base structural workload.
        beta: The base lower service curve.
    """

    def __init__(self, task: DRTTask, beta: Curve) -> None:
        self.task = task
        self.beta = beta
        ctx = AnalysisContext.of(task, beta)
        ctx.delay_result()
        ctx.per_job()
        ctx.backlog_result()
        self._base_ctx = ctx
        # Seed edited fixpoints with the base exactness horizon: the
        # converged busy-window *length* is seed-independent (the
        # crossing point lies in the staircase's exact region), so this
        # only saves doubling rounds — usually all but one.
        self._seed_horizon = ctx.busy_window().horizon

    def analyze(self, edit: Edit) -> WhatIfResult:
        """Re-analyse the base pair under one edit (never raises
        :class:`~repro.errors.ReproError` — failures come back typed)."""
        wire = edit_to_dict(edit)
        perf.record("whatif.edits")
        try:
            new_task, new_beta = apply_edit(self.task, self.beta, edit)
            if new_task is self.task:
                # β-only edit: the base task's entire memo cache (shared
                # explorer, busy windows, contexts) applies as-is.
                cone_size = 0
                carried = len(new_task.job_names)
                ctx = AnalysisContext.of(new_task, new_beta)
            else:
                diff = structural_diff(self.task, new_task)
                cone_size = len(diff.affected_cone)
                carried = len(diff.carried_vertices)
                forked = frontier_explorer(self.task).fork(new_task, diff)
                cache = guard_cache(new_task)
                cache["frontier_explorer"] = forked
                if cycles_untouched(diff, self.task, new_task):
                    # Identical cycle set: the base's (warm) memo of the
                    # maximum cycle ratio and a cycle realising it holds
                    # for the edited task too, so the per-edit cycle
                    # search is skipped entirely.
                    base_memo = guard_cache(self.task).get("max_cycle_ratio")
                    if base_memo is not None:
                        cache["max_cycle_ratio"] = base_memo
                        perf.record("whatif.cycle_ratio_carried")
                ctx = AnalysisContext.of(
                    new_task,
                    new_beta,
                    persist=False,
                    initial_horizon=self._seed_horizon,
                )
            summary = self._summarize(new_task, new_beta, ctx)
        except ReproError as exc:
            return WhatIfResult(
                edit=wire,
                ok=False,
                error=str(exc),
                error_code=_error_code(exc),
            )
        return WhatIfResult(
            edit=wire,
            ok=True,
            summary=summary,
            cone_size=cone_size,
            carried_vertices=carried,
            total_vertices=len(new_task.job_names),
        )

    # -- internals -------------------------------------------------------

    def _summarize(
        self, task: DRTTask, beta: Curve, ctx: AnalysisContext
    ) -> TaskAnalysisSummary:
        """The edited model's headline bounds from a warm context."""
        dres = ctx.delay_result()
        per = self._per_job(task, beta, ctx)
        back = ctx.backlog_result()
        witness = critical_path_of(task, dres)
        return TaskAnalysisSummary(
            task=task.name,
            delay=dres.delay,
            backlog=back.backlog,
            busy_window=ctx.busy_window().length,
            per_job=per,
            meets_deadlines=all(
                d <= task.deadline(v) for v, d in per.items()
            ),
            witness_vertices=(
                tuple(witness.vertices) if witness is not None else None
            ),
        )

    def _per_job(self, task: DRTTask, beta: Curve, ctx: AnalysisContext):
        """Per-job delays through the edit-aware per-vertex cache.

        A vertex's delay bound is a pure function of its backward-
        reachable subgraph, the service curve, and the busy-window
        truncation ``L``, so entries keyed by
        :func:`~repro.drt.digest.backward_cone_digest` survive any edit
        outside that backward cone — across processes.  ``L`` in the key
        keeps the truncation honest: an edit that moves the busy window
        addresses different entries.
        """
        if not result_cache.is_enabled():
            return ctx.per_job()
        length = str(ctx.busy_window().length)
        keys = {
            v: result_cache.analysis_key(
                "whatif.vertex_delay",
                (backward_cone_digest(task, v), beta.digest(), length),
            )
            for v in task.job_names
        }
        hits = {v: result_cache.get(key) for v, key in keys.items()}
        if all(hit is not None for hit in hits.values()):
            perf.record("whatif.vertex_hits", len(hits))
            return dict(hits)
        per = ctx.per_job()
        for v, key in keys.items():
            if hits[v] is None:
                result_cache.put(key, per[v])
        return per


def _sweep_chunk(item) -> List[WhatIfResult]:
    """One worker's share of a sweep (module-level: ships to workers)."""
    task, beta, edits = item
    session = WhatIfSession(task, beta)
    return [session.analyze(edit) for edit in edits]


def whatif_sweep(
    task: DRTTask,
    beta: Curve,
    edits: Sequence[Edit],
    jobs: JobsLike = None,
) -> List[WhatIfResult]:
    """Re-analyse *task* on *beta* under each edit, sharing warm state.

    Args:
        task: The base structural workload.
        beta: The base lower service curve.
        edits: The perturbations, each applied to the *base* pair
            independently (edits do not compose across the sweep).
        jobs: Fan contiguous chunks of the sweep out over worker
            processes (``REPRO_JOBS``/serial by default); each worker
            warms its own session once.  Results come back in input
            order and are independent of the chunking: summaries hold
            only bounds and witnesses, which are canonical.

    Returns:
        One :class:`WhatIfResult` per edit, in input order.
    """
    edits = list(edits)
    if not edits:
        return []
    n = resolve_jobs(jobs, n_items=len(edits))
    if n <= 1:
        return _sweep_chunk((task, beta, edits))
    size = (len(edits) + n - 1) // n
    chunks = [
        (task, beta, edits[i : i + size])
        for i in range(0, len(edits), size)
    ]
    out: List[WhatIfResult] = []
    for results in parallel_map(_sweep_chunk, chunks, jobs=jobs):
        out.extend(results)
    return out
