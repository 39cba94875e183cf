"""Model edits: the perturbation vocabulary of the what-if engine.

An :data:`Edit` is a small frozen value describing one perturbation of
a ``(task, beta)`` pair — scale or set a WCET, move a deadline, retime/
add/remove an edge, or tighten the service curve.  :func:`apply_edit`
produces the edited pair as *new objects* (tasks stay immutable, so
every memo on the base task remains valid), preserving the base task's
job and edge insertion order: ordering steers exploration tie-breaking,
so an in-place retiming must not silently reorder the definition.

Every edit has a JSON wire form (``{"op": ..., ...}``, rationals as
``"p/q"`` strings) used by the ``repro whatif`` CLI and the
``POST /v1/whatif`` service endpoint; :func:`edit_from_dict` /
:func:`edit_to_dict` convert losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple, Union

from repro._numeric import as_q
from repro.drt.model import DRTTask, Edge, Job
from repro.errors import ModelError, SerializationError
from repro.io.json_io import _q_in
from repro.minplus.curve import Curve

__all__ = [
    "Edit",
    "ScaleWcet",
    "SetWcet",
    "SetDeadline",
    "SetSeparation",
    "AddEdge",
    "RemoveEdge",
    "TightenBeta",
    "apply_edit",
    "edit_to_dict",
    "edit_from_dict",
]


@dataclass(frozen=True)
class ScaleWcet:
    """Multiply every WCET (or one job's) by a positive factor."""

    factor: Fraction
    job: Optional[str] = None


@dataclass(frozen=True)
class SetWcet:
    """Set one job's WCET."""

    job: str
    wcet: Fraction


@dataclass(frozen=True)
class SetDeadline:
    """Set one job's relative deadline."""

    job: str
    deadline: Fraction


@dataclass(frozen=True)
class SetSeparation:
    """Retime one existing edge's minimum inter-release separation."""

    src: str
    dst: str
    separation: Fraction


@dataclass(frozen=True)
class AddEdge:
    """Add a new edge (appended after the existing edges)."""

    src: str
    dst: str
    separation: Fraction


@dataclass(frozen=True)
class RemoveEdge:
    """Remove one existing edge."""

    src: str
    dst: str


@dataclass(frozen=True)
class TightenBeta:
    """Replace the service curve with the rate-latency curve
    ``beta_{R,T}(t) = R * max(0, t - T)``."""

    rate: Fraction
    latency: Fraction = Fraction(0)


Edit = Union[
    ScaleWcet,
    SetWcet,
    SetDeadline,
    SetSeparation,
    AddEdge,
    RemoveEdge,
    TightenBeta,
]


def _rebuild(task: DRTTask, jobs, edges) -> DRTTask:
    """A sibling task with the same name (order as given)."""
    return DRTTask(task.name, jobs, edges)


def _require_job(task: DRTTask, name: str) -> None:
    if name not in task.jobs:
        raise ModelError(f"edit refers to unknown job {name!r}")


def apply_edit(
    task: DRTTask, beta: Curve, edit: Edit
) -> Tuple[DRTTask, Curve]:
    """The edited ``(task, beta)`` pair (new objects; base untouched).

    Task edits preserve the base definition's job and edge insertion
    order — ``SetSeparation`` retimes in place, ``AddEdge`` appends,
    ``RemoveEdge`` deletes in place — so the edited task's exploration
    tie-breaking matches a from-scratch definition of the same model.
    β-only edits return the base task object itself (``new_task is
    task``), which the engine uses to skip structural diffing entirely.

    Raises:
        ModelError: when the edit refers to a missing job/edge, would
            duplicate an edge, or produces a non-positive parameter.
    """
    if isinstance(edit, TightenBeta):
        from repro.curves.service import rate_latency_service

        if edit.rate <= 0:
            raise ModelError(f"beta rate must be positive, got {edit.rate}")
        if edit.latency < 0:
            raise ModelError(
                f"beta latency must be >= 0, got {edit.latency}"
            )
        return task, rate_latency_service(edit.rate, edit.latency)

    if isinstance(edit, ScaleWcet):
        if edit.factor <= 0:
            raise ModelError(
                f"WCET scale factor must be positive, got {edit.factor}"
            )
        if edit.job is not None:
            _require_job(task, edit.job)
        jobs = [
            Job(j.name, j.wcet * edit.factor, j.deadline)
            if edit.job is None or j.name == edit.job
            else j
            for j in task.jobs.values()
        ]
        return _rebuild(task, jobs, task.edges), beta

    if isinstance(edit, SetWcet):
        _require_job(task, edit.job)
        jobs = [
            Job(j.name, edit.wcet, j.deadline) if j.name == edit.job else j
            for j in task.jobs.values()
        ]
        return _rebuild(task, jobs, task.edges), beta

    if isinstance(edit, SetDeadline):
        _require_job(task, edit.job)
        jobs = [
            Job(j.name, j.wcet, edit.deadline) if j.name == edit.job else j
            for j in task.jobs.values()
        ]
        return _rebuild(task, jobs, task.edges), beta

    if isinstance(edit, SetSeparation):
        key = (edit.src, edit.dst)
        if not any((e.src, e.dst) == key for e in task.edges):
            raise ModelError(f"edit refers to unknown edge {key!r}")
        edges = [
            Edge(e.src, e.dst, edit.separation)
            if (e.src, e.dst) == key
            else e
            for e in task.edges
        ]
        return _rebuild(task, task.jobs.values(), edges), beta

    if isinstance(edit, AddEdge):
        _require_job(task, edit.src)
        _require_job(task, edit.dst)
        key = (edit.src, edit.dst)
        if any((e.src, e.dst) == key for e in task.edges):
            raise ModelError(f"edge {key!r} already exists")
        edges = list(task.edges)
        edges.append(Edge(edit.src, edit.dst, edit.separation))
        return _rebuild(task, task.jobs.values(), edges), beta

    if isinstance(edit, RemoveEdge):
        key = (edit.src, edit.dst)
        if not any((e.src, e.dst) == key for e in task.edges):
            raise ModelError(f"edit refers to unknown edge {key!r}")
        edges = [e for e in task.edges if (e.src, e.dst) != key]
        return _rebuild(task, task.jobs.values(), edges), beta

    raise ModelError(f"unknown edit {edit!r}")


# ----------------------------------------------------------------------
# Wire forms
# ----------------------------------------------------------------------

_OPS = {
    "scale_wcet": ScaleWcet,
    "set_wcet": SetWcet,
    "set_deadline": SetDeadline,
    "set_separation": SetSeparation,
    "add_edge": AddEdge,
    "remove_edge": RemoveEdge,
    "tighten_beta": TightenBeta,
}
_OP_OF = {cls: op for op, cls in _OPS.items()}

#: Edit fields carrying rationals (everything else is a string or None).
_RATIONAL_FIELDS = frozenset(
    {"factor", "wcet", "deadline", "separation", "rate", "latency"}
)


def edit_to_dict(edit: Edit) -> Dict[str, Any]:
    """The JSON wire form of one edit (rationals as ``"p/q"`` strings)."""
    op = _OP_OF.get(type(edit))
    if op is None:
        raise SerializationError(f"unknown edit {edit!r}")
    out: Dict[str, Any] = {"op": op}
    for name in edit.__dataclass_fields__:
        value = getattr(edit, name)
        if name in _RATIONAL_FIELDS and value is not None:
            value = str(value)
        out[name] = value
    return out


def edit_from_dict(data: Any) -> Edit:
    """Inverse of :func:`edit_to_dict`.

    Raises:
        SerializationError: on unknown ops, missing/unknown fields, or
            malformed rationals.
    """
    if not isinstance(data, dict):
        raise SerializationError("edit must be a JSON object")
    op = data.get("op")
    cls = _OPS.get(op)
    if cls is None:
        raise SerializationError(
            f"unknown edit op {op!r}; expected one of {sorted(_OPS)}"
        )
    fields = cls.__dataclass_fields__
    unknown = sorted(set(data) - set(fields) - {"op"})
    if unknown:
        raise SerializationError(
            f"unknown fields {unknown} for edit op {op!r}"
        )
    kwargs: Dict[str, Any] = {}
    for name, spec in fields.items():
        if name not in data or data[name] is None:
            continue  # dataclass defaults cover optional fields
        value = data[name]
        if name in _RATIONAL_FIELDS:
            value = as_q(_q_in(value, f"edit field {name!r}"))
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SerializationError(
            f"incomplete edit for op {op!r}: {exc}"
        ) from exc
