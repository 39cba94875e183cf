"""Core data model: jobs, edges, and digraph real-time tasks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro._numeric import Q, NumLike, as_q
from repro.errors import ModelError

__all__ = ["Job", "Edge", "DRTTask", "SporadicTask"]


@dataclass(frozen=True)
class Job:
    """A job type (vertex of a DRT task).

    Attributes:
        name: Unique identifier within the task.
        wcet: Worst-case execution time, > 0.
        deadline: Relative deadline, > 0.  Defaults to the WCET if omitted
            at task construction (callers usually set it explicitly).
    """

    name: str
    wcet: Fraction
    deadline: Fraction

    @staticmethod
    def make(name: str, wcet: NumLike, deadline: Optional[NumLike] = None) -> "Job":
        w = as_q(wcet)
        d = as_q(deadline) if deadline is not None else w
        return Job(name, w, d)


@dataclass(frozen=True)
class Edge:
    """A directed edge with a minimum inter-release separation.

    A behaviour releasing job *src* at time ``t`` may release *dst* no
    earlier than ``t + separation``.
    """

    src: str
    dst: str
    separation: Fraction

    @staticmethod
    def make(src: str, dst: str, separation: NumLike) -> "Edge":
        return Edge(src, dst, as_q(separation))


class DRTTask:
    """A digraph real-time task: the model of structural workload.

    Args:
        name: Task identifier (used in reports and serialisation).
        jobs: The job types (vertices).
        edges: The separation-labelled edges.

    Raises:
        ModelError: on duplicate job names, edges referring to unknown
            jobs, duplicate edges, or non-positive parameters.
    """

    def __init__(self, name: str, jobs: Iterable[Job], edges: Iterable[Edge]):
        self.name = name
        self._jobs: Dict[str, Job] = {}
        for job in jobs:
            if job.name in self._jobs:
                raise ModelError(f"duplicate job name {job.name!r} in task {name!r}")
            if job.wcet <= 0:
                raise ModelError(f"job {job.name!r} has non-positive WCET {job.wcet}")
            if job.deadline <= 0:
                raise ModelError(
                    f"job {job.name!r} has non-positive deadline {job.deadline}"
                )
            self._jobs[job.name] = job
        self._edges: List[Edge] = []
        self._succ: Dict[str, List[Edge]] = {j: [] for j in self._jobs}
        self._pred: Dict[str, List[Edge]] = {j: [] for j in self._jobs}
        seen = set()
        for edge in edges:
            if edge.src not in self._jobs or edge.dst not in self._jobs:
                raise ModelError(
                    f"edge {edge.src!r}->{edge.dst!r} refers to unknown job"
                )
            if edge.separation <= 0:
                raise ModelError(
                    f"edge {edge.src!r}->{edge.dst!r} has non-positive "
                    f"separation {edge.separation}"
                )
            if (edge.src, edge.dst) in seen:
                raise ModelError(f"duplicate edge {edge.src!r}->{edge.dst!r}")
            seen.add((edge.src, edge.dst))
            self._edges.append(edge)
            self._succ[edge.src].append(edge)
            self._pred[edge.dst].append(edge)
        if not self._jobs:
            raise ModelError(f"task {name!r} has no jobs")
        # Memo for derived analysis quantities (max cycle ratio, linear
        # request bound, ...).  The task is immutable after construction,
        # so analyses may cache freely; keyed by analysis name.
        self._analysis_cache: Dict[str, object] = {}

    # -- construction helpers -------------------------------------------

    @staticmethod
    def build(
        name: str,
        jobs: Mapping[str, Tuple[NumLike, NumLike]],
        edges: Sequence[Tuple[str, str, NumLike]],
    ) -> "DRTTask":
        """Compact constructor.

        Args:
            name: Task name.
            jobs: ``{job_name: (wcet, deadline)}``.
            edges: ``[(src, dst, separation), ...]``.
        """
        return DRTTask(
            name,
            [Job.make(n, w, d) for n, (w, d) in jobs.items()],
            [Edge.make(s, t, p) for s, t, p in edges],
        )

    # -- queries ---------------------------------------------------------

    @property
    def jobs(self) -> Dict[str, Job]:
        """Job types by name."""
        return dict(self._jobs)

    @property
    def job_names(self) -> List[str]:
        return list(self._jobs)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def job(self, name: str) -> Job:
        try:
            return self._jobs[name]
        except KeyError:
            raise ModelError(f"task {self.name!r} has no job {name!r}") from None

    def successors(self, name: str) -> List[Edge]:
        """Outgoing edges of job *name*."""
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[Edge]:
        """Incoming edges of job *name*."""
        return list(self._pred[name])

    def wcet(self, name: str) -> Fraction:
        return self.job(name).wcet

    def deadline(self, name: str) -> Fraction:
        return self.job(name).deadline

    def scales(self) -> Tuple[int, int]:
        """``(S, W)``: the lcm of the separation denominators and of the
        WCET denominators, the integer time and work units of the engine."""
        return (
            lcm(*(e.separation.denominator for e in self._edges)),
            lcm(*(j.wcet.denominator for j in self._jobs.values())),
        )

    @property
    def max_wcet(self) -> Fraction:
        return max(j.wcet for j in self._jobs.values())

    @property
    def min_separation(self) -> Fraction:
        """Smallest edge separation (infinite behaviour pace bound)."""
        if not self._edges:
            raise ModelError(f"task {self.name!r} has no edges")
        return min(e.separation for e in self._edges)

    def has_cycle(self) -> bool:
        """True iff the task graph contains a directed cycle."""
        colors: Dict[str, int] = {}

        def visit(v: str) -> bool:
            colors[v] = 1
            for e in self._succ[v]:
                c = colors.get(e.dst, 0)
                if c == 1:
                    return True
                if c == 0 and visit(e.dst):
                    return True
            colors[v] = 2
            return False

        return any(colors.get(v, 0) == 0 and visit(v) for v in self._jobs)

    def __reduce__(self):
        """Pickle as the task definition alone (name, jobs, edges).

        The analysis cache — contexts, shared frontier explorers,
        memoized derived quantities — is process-local state that can be
        arbitrarily large and holds no information the receiving process
        cannot recompute (or fetch from the persistent result cache), so
        a worker unpickles a task with an empty cache.  Job and edge
        order is preserved exactly: exploration tie-breaking follows
        insertion order, so a pickled copy reproduces bit-identical
        analysis results including reported critical tuples.
        """
        return (DRTTask, (self.name, list(self._jobs.values()), list(self._edges)))

    def __repr__(self) -> str:
        return (
            f"DRTTask({self.name!r}, jobs={len(self._jobs)}, "
            f"edges={len(self._edges)})"
        )


@dataclass(frozen=True)
class SporadicTask:
    """Classical sporadic task: convenience wrapper and baseline model.

    Attributes:
        name: Task identifier.
        wcet: Worst-case execution time.
        period: Minimum inter-release separation.
        deadline: Relative deadline.
    """

    name: str
    wcet: Fraction
    period: Fraction
    deadline: Fraction

    @staticmethod
    def make(
        name: str,
        wcet: NumLike,
        period: NumLike,
        deadline: Optional[NumLike] = None,
    ) -> "SporadicTask":
        w, p = as_q(wcet), as_q(period)
        d = as_q(deadline) if deadline is not None else p
        if w <= 0 or p <= 0 or d <= 0:
            raise ModelError("sporadic task parameters must be positive")
        return SporadicTask(name, w, p, d)

    @property
    def utilization(self) -> Fraction:
        return self.wcet / self.period

    def to_drt(self) -> DRTTask:
        """The equivalent single-vertex, self-loop DRT task."""
        return DRTTask(
            self.name,
            [Job(self.name, self.wcet, self.deadline)],
            [Edge(self.name, self.name, self.period)],
        )
