"""JSON serialisation of tasks and curves.

Rationals are stored as strings (``"3/10"``) so round-trips are exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Union

from repro._numeric import Q
from repro.drt.model import DRTTask, Edge, Job
from repro.drt.validate import validate_task
from repro.errors import SerializationError
from repro.minplus.curve import Curve
from repro.minplus.segment import Segment

__all__ = [
    "task_to_dict",
    "task_from_dict",
    "curve_to_dict",
    "curve_from_dict",
    "save_task",
    "load_task",
]


def _q_out(q: Fraction) -> str:
    return str(q)


def _q_in(s: Any, what: str = "") -> Fraction:
    """The exact rational of one wire number; the one parser of the wire
    decoders (:mod:`repro.service.protocol`, :mod:`repro.mp.io`,
    :mod:`repro.whatif.edits`).

    ``"n"`` and ``"n/d"`` in ASCII digits — every encoder here writes
    ``str(Fraction)`` — are built from ``int`` directly; anything else
    goes through ``Fraction(str(s))``.  Both give the same value, and
    both raise :class:`SerializationError` (naming *what*, when given)
    on what ``Fraction`` rejects.
    """
    try:
        if type(s) is str and s.isascii():
            if s.isdigit():
                return Fraction(int(s))
            n, slash, d = s.partition("/")
            if slash and n.isdigit() and d.isdigit():
                return Fraction(int(n), int(d))
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        where = f" for {what}" if what else ""
        raise SerializationError(f"invalid rational {s!r}{where}") from exc


def task_to_dict(task: DRTTask) -> Dict[str, Any]:
    """Plain-dict form of a DRT task (stable key order)."""
    return {
        "name": task.name,
        "jobs": {
            name: {"wcet": _q_out(j.wcet), "deadline": _q_out(j.deadline)}
            for name, j in sorted(task.jobs.items())
        },
        "edges": [
            {"src": e.src, "dst": e.dst, "separation": _q_out(e.separation)}
            for e in task.edges
        ],
    }


def task_from_dict(data: Dict[str, Any], validate: bool = True) -> DRTTask:
    """Inverse of :func:`task_to_dict`.

    Args:
        data: Plain-dict task form.
        validate: Run :func:`repro.drt.validate.validate_task` on the
            result (default), so malformed inputs fail fast here — with
            an error naming the offending job — instead of deep inside a
            later analysis.

    Raises:
        SerializationError: on missing keys or malformed numbers.
        ValidationError: when *validate* is set and the task is
            semantically malformed (e.g. isolated jobs).
    """
    try:
        jobs = [
            Job(name, _q_in(spec["wcet"]), _q_in(spec["deadline"]))
            for name, spec in data["jobs"].items()
        ]
        edges = [
            Edge(e["src"], e["dst"], _q_in(e["separation"]))
            for e in data["edges"]
        ]
        task = DRTTask(data["name"], jobs, edges)
    except KeyError as exc:
        raise SerializationError(f"missing key {exc} in task JSON") from exc
    if validate:
        validate_task(task)
    return task


def curve_to_dict(curve: Curve) -> Dict[str, Any]:
    """Plain-dict form of a curve (segment list)."""
    return {
        "segments": [
            {
                "start": _q_out(s.start),
                "value": _q_out(s.value),
                "slope": _q_out(s.slope),
            }
            for s in curve.segments
        ]
    }


def curve_from_dict(data: Dict[str, Any]) -> Curve:
    """Inverse of :func:`curve_to_dict`."""
    try:
        return Curve(
            Segment(_q_in(s["start"]), _q_in(s["value"]), _q_in(s["slope"]))
            for s in data["segments"]
        )
    except KeyError as exc:
        raise SerializationError(f"missing key {exc} in curve JSON") from exc


def save_task(task: DRTTask, path: Union[str, Path]) -> None:
    """Write *task* to *path* as JSON."""
    Path(path).write_text(json.dumps(task_to_dict(task), indent=2))


def load_task(path: Union[str, Path], validate: bool = True) -> DRTTask:
    """Read a task from a JSON file (validated by default)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read task from {path}: {exc}") from exc
    return task_from_dict(data, validate=validate)
