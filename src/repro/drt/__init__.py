"""The digraph real-time task (DRT) model of structural workload.

A DRT task is a directed graph whose vertices are job types (worst-case
execution time, relative deadline) and whose edges carry minimum
inter-release separations.  A *behaviour* of the task walks the graph,
releasing the visited jobs no closer together than the edge separations.
This is the canonical model of *structural* real-time workload: branches
express modes, cycles express recurrence, and chains express bursts.

The subpackage provides the model itself, well-formedness validation,
path semantics, the request/demand bound machinery with Stigge-style
path abstraction (Pareto domination pruning), exact long-run utilization
via maximum cycle ratios, and standard model transformations.
"""

from repro.drt.model import Job, Edge, DRTTask, SporadicTask
from repro.drt.digest import (
    vertex_digest,
    edge_digest,
    composed_task_digest,
    backward_cone_digest,
    StructuralDiff,
    structural_diff,
)
from repro.drt.paths import Path, iter_paths, enumerate_paths
from repro.drt.request import RequestTuple, request_frontier, rbf_curve, rbf_value
from repro.drt.demand import dbf_curve, dbf_value
from repro.drt.utilization import max_cycle_ratio, utilization, linear_request_bound
from repro.drt.validate import validate_task, is_constrained_deadline
from repro.drt.transform import (
    sporadic_abstraction,
    scale_wcets,
    arrival_curve_of,
)

__all__ = [
    "Job",
    "Edge",
    "DRTTask",
    "SporadicTask",
    "vertex_digest",
    "edge_digest",
    "composed_task_digest",
    "backward_cone_digest",
    "StructuralDiff",
    "structural_diff",
    "Path",
    "iter_paths",
    "enumerate_paths",
    "RequestTuple",
    "request_frontier",
    "rbf_curve",
    "rbf_value",
    "dbf_curve",
    "dbf_value",
    "max_cycle_ratio",
    "utilization",
    "linear_request_bound",
    "validate_task",
    "is_constrained_deadline",
    "sporadic_abstraction",
    "scale_wcets",
    "arrival_curve_of",
]
