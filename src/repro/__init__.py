"""Delay analysis of structural real-time workload.

Reproduction of Guan, Tang, Wang, Yi, *Delay analysis of structural
real-time workload*, DATE 2015 (see DESIGN.md for the source-text
mismatch notice and reconstruction decisions).

Quick start::

    from fractions import Fraction
    import repro

    task = repro.DRTTask.build(
        "demo",
        jobs={"light": (1, 5), "heavy": (3, 8)},
        edges=[("light", "light", 5), ("light", "heavy", 20),
               ("heavy", "light", 10)],
    )
    beta = repro.rate_latency_service(Fraction(1, 2), 4)
    result = repro.structural_delay(task, beta)
    print(result.delay)

The public API re-exports the main entry points of each subpackage;
import the subpackages directly for the full surface
(:mod:`repro.minplus`, :mod:`repro.curves`, :mod:`repro.drt`,
:mod:`repro.core`, :mod:`repro.rtc`, :mod:`repro.sched`,
:mod:`repro.sim`, :mod:`repro.workloads`, :mod:`repro.io`,
:mod:`repro.parallel`, :mod:`repro.mp`).
"""

from repro._numeric import INF, Q
from repro.errors import (
    AnalysisError,
    BudgetExhaustedError,
    CurveError,
    HorizonExceededError,
    ModelError,
    ReproError,
    SerializationError,
    SimulationError,
    UnboundedBusyWindowError,
    ValidationError,
    WorkerError,
)
from repro.minplus import Curve, Segment
from repro.curves import (
    constant_rate_service,
    rate_latency_service,
    bounded_delay_service,
    tdma_service,
    periodic_resource_service,
    periodic_arrival,
    sporadic_arrival,
    pjd_arrival,
)
from repro.drt import (
    DRTTask,
    Edge,
    Job,
    SporadicTask,
    dbf_curve,
    linear_request_bound,
    max_cycle_ratio,
    rbf_curve,
    utilization,
    validate_task,
)
from repro.core import (
    DelayResult,
    busy_window_bound,
    critical_path_of,
    exhaustive_delay,
    fifo_rtc_delay,
    leftover_service,
    rtc_delay,
    sp_structural_delays,
    sporadic_delay,
    structural_delay,
    structural_delays_per_job,
)
from repro.core.baselines import concave_hull_delay, token_bucket_delay
from repro.core import (
    StructuralAnalysis,
    TaskAnalysisSummary,
    analyze_many,
    structural_backlog,
    output_arrival_curve,
    min_service_rate,
    min_service_rates,
    max_service_latency,
    max_wcet_scale,
)
from repro.parallel import (
    configure_cache,
    map_settled,
    parallel_map,
    resolve_jobs,
    set_default_jobs,
)
from repro.rtc import analyze_chains, chain_analysis, gpc
from repro.sched import edf_schedulable, edf_structural_delays, sp_schedulable
from repro.sim import (
    ConstantRate,
    RateLatencyServer,
    TdmaServer,
    TraceRateServer,
    behaviour_from_path,
    random_behaviour,
    simulate,
)
from repro.resilience import (
    BoundedDelayResult,
    Budget,
    bounded_delay,
    bounded_delay_many,
    budget_scope,
    checkpoint,
)
from repro.whatif import (
    StructuralDiff,
    WhatIfResult,
    WhatIfSession,
    apply_edit,
    structural_diff,
    whatif_sweep,
)
from repro.workloads import CASE_STUDIES, RandomDrtConfig, random_drt_task
from repro.io import (
    load_task,
    load_task_dot,
    save_task,
    save_task_dot,
    task_from_dot,
    task_to_dot,
)
from repro.mp import (
    DAGTask,
    DagRtaResult,
    GlobalSchedResult,
    dag_rta,
    dag_rta_many,
    global_fp_schedulable,
    global_rm_schedulable,
    graham_bound,
)

__version__ = "1.2.0"

__all__ = [
    "INF",
    "Q",
    "ReproError",
    "CurveError",
    "ModelError",
    "ValidationError",
    "AnalysisError",
    "UnboundedBusyWindowError",
    "HorizonExceededError",
    "SimulationError",
    "SerializationError",
    "BudgetExhaustedError",
    "WorkerError",
    "Budget",
    "BoundedDelayResult",
    "bounded_delay",
    "bounded_delay_many",
    "budget_scope",
    "checkpoint",
    "Curve",
    "Segment",
    "constant_rate_service",
    "rate_latency_service",
    "bounded_delay_service",
    "tdma_service",
    "periodic_resource_service",
    "periodic_arrival",
    "sporadic_arrival",
    "pjd_arrival",
    "DRTTask",
    "Edge",
    "Job",
    "SporadicTask",
    "rbf_curve",
    "dbf_curve",
    "utilization",
    "max_cycle_ratio",
    "linear_request_bound",
    "validate_task",
    "DelayResult",
    "structural_delay",
    "structural_delays_per_job",
    "exhaustive_delay",
    "critical_path_of",
    "busy_window_bound",
    "rtc_delay",
    "sporadic_delay",
    "token_bucket_delay",
    "concave_hull_delay",
    "StructuralAnalysis",
    "TaskAnalysisSummary",
    "analyze_many",
    "StructuralDiff",
    "structural_diff",
    "WhatIfResult",
    "WhatIfSession",
    "apply_edit",
    "whatif_sweep",
    "structural_backlog",
    "output_arrival_curve",
    "min_service_rate",
    "min_service_rates",
    "max_service_latency",
    "max_wcet_scale",
    "leftover_service",
    "sp_structural_delays",
    "fifo_rtc_delay",
    "configure_cache",
    "map_settled",
    "parallel_map",
    "resolve_jobs",
    "set_default_jobs",
    "gpc",
    "analyze_chains",
    "chain_analysis",
    "edf_schedulable",
    "edf_structural_delays",
    "sp_schedulable",
    "simulate",
    "ConstantRate",
    "RateLatencyServer",
    "TdmaServer",
    "TraceRateServer",
    "behaviour_from_path",
    "random_behaviour",
    "CASE_STUDIES",
    "RandomDrtConfig",
    "random_drt_task",
    "load_task",
    "save_task",
    "task_to_dot",
    "save_task_dot",
    "task_from_dot",
    "load_task_dot",
    "DAGTask",
    "DagRtaResult",
    "GlobalSchedResult",
    "graham_bound",
    "dag_rta",
    "dag_rta_many",
    "global_fp_schedulable",
    "global_rm_schedulable",
    "__version__",
]
