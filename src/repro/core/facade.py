"""One-stop analysis facade for a (task, service) pair.

Most workflows ask several questions about the same pair — delay, per-job
delays, backlog, witness, output curve, baselines.
:class:`StructuralAnalysis` answers every one from the shared
per-``(task, beta)`` :class:`~repro.core.context.AnalysisContext` (the
busy-window fixpoint, the frontier and the batched per-tuple
pseudo-inverses are each computed once) and additionally caches the
derived results per instance::

    analysis = StructuralAnalysis(task, beta)
    analysis.delay()             # worst-case delay
    analysis.per_job()           # {job: delay}
    analysis.backlog()           # buffer bound
    analysis.witness()           # a Path realising the delay
    analysis.output_curve()      # departures for the next hop
    analysis.baselines()         # the abstraction spectrum
    analysis.report()            # human-readable summary

Batch workloads — analysing many tasks against one service curve — go
through :func:`analyze_many`, which fans the independent per-task
analyses out over the :mod:`repro.parallel` execution plane and returns
one pickle-friendly :class:`TaskAnalysisSummary` per task, in input
order, bit-identical to a serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro._numeric import Q, NumLike
from repro.core.backlog import BacklogResult, structural_backlog
from repro.core.baselines import (
    concave_hull_delay,
    sporadic_delay,
    token_bucket_delay,
)
from repro.core.busy_window import BusyWindow, busy_window_bound
from repro.core.delay import (
    DelayResult,
    critical_path_of,
    structural_delay,
    structural_delays_per_job,
)
from repro.core.output import output_arrival_curve
from repro.drt.model import DRTTask
from repro.drt.paths import Path
from repro.errors import UnboundedBusyWindowError
from repro.minplus.curve import Curve
from repro.parallel.plane import JobsLike, parallel_map

__all__ = ["StructuralAnalysis", "TaskAnalysisSummary", "analyze_many"]


class StructuralAnalysis:
    """Cached structural analyses of one workload on one service.

    Args:
        task: The structural workload.
        beta: Lower service curve of the resource.
        initial_horizon: Optional starting horizon for the fixpoints.
    """

    def __init__(
        self,
        task: DRTTask,
        beta: Curve,
        initial_horizon: Optional[NumLike] = None,
    ):
        self.task = task
        self.beta = beta
        self._initial_horizon = initial_horizon
        self._busy: Optional[BusyWindow] = None
        self._delay: Optional[DelayResult] = None
        self._per_job: Optional[Dict[str, Fraction]] = None
        self._backlog: Optional[BacklogResult] = None
        self._witness: Optional[Path] = None
        self._output: Optional[Curve] = None

    # -- cached building blocks -----------------------------------------

    def busy_window(self) -> BusyWindow:
        """The busy-window fixpoint (cached)."""
        if self._busy is None:
            self._busy = busy_window_bound(
                self.task, self.beta, initial_horizon=self._initial_horizon
            )
        return self._busy

    def delay_result(self) -> DelayResult:
        """The full delay analysis result (cached)."""
        if self._delay is None:
            self._delay = structural_delay(
                self.task,
                self.beta,
                initial_horizon=self._initial_horizon,
            )
        return self._delay

    # -- the questions ----------------------------------------------------

    def delay(self) -> Fraction:
        """Worst-case delay of any job."""
        return self.delay_result().delay

    def per_job(self) -> Dict[str, Fraction]:
        """Worst-case delay per job type (cached)."""
        if self._per_job is None:
            self._per_job = structural_delays_per_job(
                self.task,
                self.beta,
                initial_horizon=self._initial_horizon,
            )
        return dict(self._per_job)

    def backlog(self) -> Fraction:
        """Worst-case buffered work."""
        if self._backlog is None:
            self._backlog = structural_backlog(
                self.task,
                self.beta,
                initial_horizon=self._initial_horizon,
            )
        return self._backlog.backlog

    def witness(self) -> Optional[Path]:
        """A path realising the worst-case delay (cached)."""
        if self._witness is None:
            self._witness = critical_path_of(self.task, self.delay_result())
        return self._witness

    def output_curve(self, method: str = "best") -> Curve:
        """Departure arrival curve for a downstream component."""
        if self._output is None or method != "best":
            curve = output_arrival_curve(
                self.task,
                self.beta,
                initial_horizon=self._initial_horizon,
                method=method,
            )
            if method == "best":
                self._output = curve
            return curve
        return self._output

    def meets_deadlines(self) -> bool:
        """True iff every job type's delay bound is within its deadline."""
        return all(
            d <= self.task.deadline(v) for v, d in self.per_job().items()
        )

    def baselines(self) -> Dict[str, object]:
        """The abstraction spectrum's bounds for comparison.

        Values are rationals, or the string ``"unbounded"`` when an
        abstraction saturates the service.
        """
        out: Dict[str, object] = {"structural": self.delay()}
        for label, fn in (
            ("concave-hull", concave_hull_delay),
            ("token-bucket", token_bucket_delay),
            ("sporadic", sporadic_delay),
        ):
            try:
                out[label] = fn(self.task, self.beta)
            except UnboundedBusyWindowError:
                out[label] = "unbounded"
        return out

    def report(self) -> str:
        """Multi-line human-readable summary of every cached analysis."""
        res = self.delay_result()
        lines = [
            f"task {self.task.name!r}: {len(self.task.jobs)} jobs, "
            f"{len(self.task.edges)} edges",
            f"worst-case delay:  {res.delay}",
            f"worst-case backlog: {self.backlog()}",
            f"busy window:       {res.busy_window}",
            f"deadlines met:     {self.meets_deadlines()}",
            "per-job delays:",
        ]
        for job, d in sorted(self.per_job().items()):
            verdict = "ok" if d <= self.task.deadline(job) else "MISS"
            lines.append(
                f"  {job}: {d} (deadline {self.task.deadline(job)}) {verdict}"
            )
        lines.append("abstraction spectrum:")
        for label, value in self.baselines().items():
            lines.append(f"  {label}: {value}")
        witness = self.witness()
        if witness is not None:
            lines.append(
                "witness path: " + " -> ".join(witness.vertices)
            )
        return "\n".join(lines)

    def summary(self) -> "TaskAnalysisSummary":
        """The headline bounds as one pickle-friendly record."""
        witness = self.witness()
        return TaskAnalysisSummary(
            task=self.task.name,
            delay=self.delay(),
            backlog=self.backlog(),
            busy_window=self.busy_window().length,
            per_job=self.per_job(),
            meets_deadlines=self.meets_deadlines(),
            witness_vertices=(
                tuple(witness.vertices) if witness is not None else None
            ),
        )


@dataclass(frozen=True)
class TaskAnalysisSummary:
    """Headline structural bounds of one task on one service curve.

    Attributes:
        task: Task name.
        delay: Worst-case delay of any job.
        backlog: Worst-case buffered work.
        busy_window: Busy-window length bound.
        per_job: ``{job: delay bound}``.
        meets_deadlines: True iff every per-job bound is within its own
            relative deadline.
        witness_vertices: Vertex sequence of a delay-realising path, or
            None when no job is delayed.
    """

    task: str
    delay: Fraction
    backlog: Fraction
    busy_window: Fraction
    per_job: Dict[str, Fraction]
    meets_deadlines: bool
    witness_vertices: Optional[tuple]


def _analyze_one(item) -> TaskAnalysisSummary:
    """One task's full summary (module-level: ships to plane workers)."""
    task, beta, initial_horizon = item
    return StructuralAnalysis(
        task, beta, initial_horizon=initial_horizon
    ).summary()


def analyze_many(
    tasks: Sequence[DRTTask],
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
    jobs: JobsLike = None,
) -> List[TaskAnalysisSummary]:
    """Analyse many independent tasks against one service curve.

    Args:
        tasks: The structural workloads (analysed independently — no
            interference between them; use the scheduling analyses for
            shared-resource semantics).
        beta: Lower service curve each task is analysed against.
        initial_horizon: Optional starting horizon for the fixpoints.
        jobs: Fan the per-task analyses out over worker processes
            (``REPRO_JOBS``/serial by default).  Summaries come back in
            input order and are bit-identical to a serial run; the first
            failing task's error (in input order) is raised, as a serial
            loop would.

    Returns:
        One :class:`TaskAnalysisSummary` per task, in input order.

    Raises:
        TypeError: when handed :class:`repro.mp.model.DAGTask`
            instances — parallel DAG jobs have no single-β semantics;
            their batch facade is :func:`repro.mp.dag_rta_many`.
    """
    from repro.mp.model import DAGTask

    for task in tasks:
        if isinstance(task, DAGTask):
            raise TypeError(
                "analyze_many analyses DRT tasks against one service "
                "curve; for multiprocessor DAG tasks use "
                "repro.mp.dag_rta_many"
            )
    items = [(task, beta, initial_horizon) for task in tasks]
    return parallel_map(_analyze_one, items, jobs=jobs)
