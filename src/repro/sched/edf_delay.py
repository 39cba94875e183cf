"""Per-job delay bounds for structural task sets under preemptive EDF.

The classical demand test (:mod:`repro.sched.edf`) answers a binary
question; this analysis bounds the *delay* of each job type, Spuri-style,
combining the structural frontier with demand curves:

Consider a job of type ``v`` (relative deadline ``d(v)``) of task ``i``,
released at offset ``t`` after the start of its busy window with
path-accumulated work ``w`` (its own WCET included).  Under preemptive
EDF on a strict-``beta`` server, the work that must complete before it
is at most

* ``w`` — its own task's earlier path work (for *constrained-deadline*
  tasks, later jobs of the same behaviour have strictly later absolute
  deadlines, so they never preempt it), plus
* ``sum_{j != i} dbf_j(t + d(v))`` — jobs of other tasks released inside
  the busy window whose absolute deadlines do not exceed the job's.

The busy window may *start with another task's job*: the analysed
task's path begins at an unknown anchor offset ``a >= 0``, placing the
job at ``s = a + t`` with interference window ``s + d(v)``.  Hence

    delay(v) <= max over frontier tuples (t, w) ending at v, t <= L,
                max over anchors a in [0, L - t], of
                beta^{-1}( w + sum_j dbf_j(a + t + d(v)) ) - t - a

where ``L`` is the *aggregate* busy-window bound (all tasks together).
Between jumps of the aggregate demand the inner expression strictly
decreases in ``a``, so only the pull-backs of the dbf jump points need
checking.  The bound is sound (sufficient); the binary dbf test remains
the exact schedulability criterion for constrained deadlines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro._numeric import Q, NumLike, as_q, is_inf
from repro.core.busy_window import last_positive_time
from repro.drt.demand import dbf_curve
from repro.drt.model import DRTTask
from repro.drt.request import RequestTuple, rbf_curve, request_frontier
from repro.drt.validate import validate_task
from repro.errors import AnalysisError, UnboundedBusyWindowError
from repro.minplus import backend as backend_mod
from repro.minplus.curve import Curve
from repro.minplus.deviation import lower_pseudo_inverse_batch
from repro.parallel import cache as result_cache
from repro.parallel.plane import JobsLike, parallel_map
from repro.resilience.budget import checkpoint

__all__ = ["EdfDelayResult", "edf_structural_delays"]


@dataclass(frozen=True)
class EdfDelayResult:
    """Per-job EDF delay bounds for one task set.

    Attributes:
        job_delays: ``{task: {job: delay bound}}``.
        busy_window: Aggregate busy-window bound used for truncation.
        schedulable: True iff every job type's bound is within its own
            relative deadline (sufficient condition).
    """

    job_delays: Dict[str, Dict[str, Fraction]]
    busy_window: Fraction
    schedulable: bool


def edf_structural_delays(
    tasks: Sequence[DRTTask],
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
    max_iterations: int = 40,
    reuse: bool = True,
    backend: Optional[str] = None,
    jobs: JobsLike = None,
) -> EdfDelayResult:
    """Per-job-type delay bounds under preemptive EDF.

    Args:
        tasks: The structural workloads (constrained deadlines required —
            the own-task non-preemption argument needs them).
        beta: Strict lower service curve of the shared resource.
        initial_horizon: Optional starting exactness horizon.
        max_iterations: Cap on horizon doublings for the aggregate
            busy-window fixpoint.
        reuse: Serve each task's frontier from its shared resumable
            explorer (default).  ``False`` re-explores every task from
            scratch — the historical cost model the benchmarks compare
            against.
        backend: Kernel backend name (see :mod:`repro.minplus.backend`),
            validated like every entry point's.  The maximisation is one
            exact pseudo-inverse sweep on every backend, so the bounds
            do not depend on it.
        jobs: Fan the per-task maximisations out over worker processes.
            After the shared aggregate busy window and demand curves are
            fixed, each task's bound depends on nothing computed for the
            other tasks, so the cases are independent; bounds are
            bit-identical to ``jobs=1``.

    Raises:
        ValidationError: if a task does not have constrained deadlines.
        UnboundedBusyWindowError: if the aggregate workload saturates the
            service.
    """
    if not tasks:
        raise AnalysisError("edf_structural_delays needs at least one task")
    tasks = list(tasks)
    backend_mod.resolve_backend(backend)
    for task in tasks:
        validate_task(task, require_constrained=True)
    extra = (
        "ih=" + (str(as_q(initial_horizon)) if initial_horizon is not None else "-"),
        f"mi={max_iterations}",
        f"reuse={reuse}",
    )
    cached = result_cache.get_analysis("sched.edf", tasks, beta, extra)
    if cached is not None:
        return cached
    horizon = as_q(initial_horizon) if initial_horizon is not None else Q(64)
    busy = None
    for _ in range(max_iterations):
        checkpoint()  # one budget unit per aggregate-horizon round
        total_rbf = rbf_curve(tasks[0], horizon, reuse=reuse)
        for task in tasks[1:]:
            total_rbf = total_rbf + rbf_curve(task, horizon, reuse=reuse)
        try:
            last = last_positive_time(total_rbf - beta)
        except UnboundedBusyWindowError:
            raise UnboundedBusyWindowError(
                f"aggregate rate {total_rbf.tail_rate} saturates the "
                f"service rate {beta.tail_rate}"
            ) from None
        if last is None:
            busy = Q(0)
            break
        if last < horizon:
            busy = last
            break
        horizon *= 2
    if busy is None:
        raise UnboundedBusyWindowError(
            f"aggregate busy window did not close within {max_iterations} "
            "horizon doublings"
        )
    # Demand curves of every task at a horizon covering every window the
    # maximisation can query: t + d(v) <= busy + max deadline.
    max_deadline = max(
        job.deadline for task in tasks for job in task.jobs.values()
    )
    dbf_horizon = busy + max_deadline + 1
    dbfs = {task.name: dbf_curve(task, dbf_horizon) for task in tasks}
    cases = [
        (
            task,
            [dbfs[other.name] for other in tasks if other.name != task.name],
            beta,
            busy,
            reuse,
        )
        for task in tasks
    ]
    per_task = parallel_map(_edf_task_case, cases, jobs=jobs)
    job_delays: Dict[str, Dict[str, Fraction]] = {}
    schedulable = True
    for task, delays in zip(tasks, per_task):
        job_delays[task.name] = delays
        for v, d in delays.items():
            if d > task.deadline(v):
                schedulable = False
    result = EdfDelayResult(
        job_delays=job_delays, busy_window=busy, schedulable=schedulable
    )
    result_cache.put_analysis("sched.edf", tasks, beta, result, extra)
    return result


def _edf_task_case(case) -> Dict[str, Fraction]:
    """One task's per-job EDF delay maximisation, given the shared
    aggregate busy window and the other tasks' demand curves
    (module-level so the execution plane can ship it to workers)."""
    task, other_dbfs, beta, busy, reuse = case
    # Aggregate interference demand of the other tasks, and the jump
    # points where increasing the anchor offset can pay off.
    interference_jumps: List[Q] = sorted(
        {bp for dbf in other_dbfs for bp in dbf.breakpoints()}
    )

    def interference_at(window: Q) -> Q:
        return sum((dbf.at(window) for dbf in other_dbfs), Q(0))

    delays: Dict[str, Fraction] = {v: Q(0) for v in task.job_names}
    tuples = request_frontier(task, busy, reuse=reuse)
    # The busy window may start with *another task's* job: the
    # analysed task's path begins at an unknown anchor offset
    # a >= 0 and the job sits at s = a + t.  Its interference
    # window is s + d(v); maximise the delay over the anchor.
    # Between jumps of the aggregate dbf the expression strictly
    # decreases in a, so only a = 0 and the pull-backs of the
    # dbf jump points need to be checked.  All (tuple, anchor)
    # demands go through one batched pseudo-inverse sweep.
    # Amortised charge for the (tuple x jump) anchor enumeration below.
    checkpoint(
        1 + (len(tuples) * max(len(interference_jumps), 1)) // 64
    )
    queries: List[Tuple[RequestTuple, Q, Q]] = []
    for tup in tuples:
        deadline = task.deadline(tup.vertex)
        anchors = [Q(0)]
        base = tup.time + deadline
        a_max = busy - tup.time
        for bp in interference_jumps:
            a = bp - base
            if 0 < a <= a_max:
                anchors.append(a)
        for a in anchors:
            queries.append((tup, a, tup.work + interference_at(base + a)))
    invs = lower_pseudo_inverse_batch(beta, [q[2] for q in queries])
    for (tup, a, demand), inv in zip(queries, invs):
        if is_inf(inv):
            raise UnboundedBusyWindowError(
                f"service never provides {demand} units"
            )
        d = inv - tup.time - a
        if d > delays[tup.vertex]:
            delays[tup.vertex] = d
    return delays
