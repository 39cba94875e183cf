"""JSON and DOT serialization of :class:`~repro.mp.model.DAGTask`.

Same conventions as :mod:`repro.io`: every rational crosses as its
exact ``"p/q"`` string form, loaders validate by default and fail fast
with errors naming the offending element (and, for DOT, the source
line), and both formats round-trip bit-identically.

Wire form::

    {
      "name": "video",
      "period": "20",
      "deadline": "20",
      "vertices": [{"name": "decode", "wcet": "3"}, ...],
      "edges": [["decode", "scale"], ...]
    }

DOT dialect (the subset :func:`dag_to_dot` emits)::

    digraph "video" {
      rankdir=LR;
      graph [period="20", deadline="20"];
      "decode" [label="decode\\n<3>"];
      "decode" -> "scale";
    }
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import SerializationError
from repro.io.dot import require_declared_endpoints
from repro.io.json_io import _q_in
from repro.mp.model import DAGTask, validate_dag

__all__ = [
    "dag_to_dict",
    "dag_from_dict",
    "save_dag",
    "load_dag",
    "dag_to_dot",
    "dag_from_dot",
    "save_dag_dot",
    "load_dag_dot",
]


def dag_to_dict(dag: DAGTask) -> Dict[str, Any]:
    """JSON-ready dict of one DAG task (rationals as strings)."""
    return {
        "name": dag.name,
        "period": str(dag.period),
        "deadline": str(dag.deadline),
        "vertices": [
            {"name": v, "wcet": str(w)} for v, w in dag.wcets.items()
        ],
        "edges": [[src, dst] for src, dst in dag.edges],
    }


def dag_from_dict(data: Any, validate: bool = True) -> DAGTask:
    """Rebuild a DAG task from :func:`dag_to_dict`'s form.

    Raises:
        SerializationError: on structural problems (missing fields,
            malformed rationals).
        ModelError: when the graph itself is malformed (unknown edge
            endpoints, cycles, non-positive parameters).
        ValidationError: when *validate* is set and the task fails
            :func:`repro.mp.model.validate_dag`.
    """
    if not isinstance(data, dict):
        raise SerializationError("DAG task must be a JSON object")
    for field in ("name", "period", "deadline", "vertices"):
        if field not in data:
            raise SerializationError(f"DAG task is missing {field!r}")
    specs = data["vertices"]
    if not isinstance(specs, list):
        raise SerializationError("'vertices' must be a list")
    vertices = []
    for spec in specs:
        if not isinstance(spec, dict) or "name" not in spec or "wcet" not in spec:
            raise SerializationError(
                f"vertex needs 'name' and 'wcet', got {spec!r}"
            )
        vertices.append(
            (
                str(spec["name"]),
                _q_in(spec["wcet"], f"vertex {spec['name']!r} wcet"),
            )
        )
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise SerializationError("'edges' must be a list")
    edges = []
    for spec in raw_edges:
        if not isinstance(spec, (list, tuple)) or len(spec) != 2:
            raise SerializationError(
                f"edge must be a [src, dst] pair, got {spec!r}"
            )
        edges.append((str(spec[0]), str(spec[1])))
    dag = DAGTask(
        str(data["name"]),
        vertices,
        edges,
        period=_q_in(data["period"], "period"),
        deadline=_q_in(data["deadline"], "deadline"),
    )
    if validate:
        validate_dag(dag)
    return dag


def save_dag(dag: DAGTask, path: Union[str, Path]) -> None:
    """Write one DAG task to *path* as JSON."""
    try:
        Path(path).write_text(
            json.dumps(dag_to_dict(dag), indent=2, sort_keys=True) + "\n"
        )
    except OSError as exc:
        raise SerializationError(
            f"cannot write DAG task to {path}: {exc}"
        ) from exc


def load_dag(path: Union[str, Path], validate: bool = True) -> DAGTask:
    """Read one DAG task from a JSON file (validated by default)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SerializationError(
            f"cannot read DAG task from {path}: {exc}"
        ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: invalid JSON: {exc}") from exc
    return dag_from_dict(data, validate=validate)


# ----------------------------------------------------------------------
# DOT
# ----------------------------------------------------------------------

_HEADER_RE = re.compile(r'^\s*digraph\s+"(?P<name>[^"]*)"\s*\{\s*$')
_GRAPH_RE = re.compile(
    r'^\s*graph\s*\[period="(?P<period>[^"]+)",\s*'
    r'deadline="(?P<deadline>[^"]+)"\]\s*;\s*$'
)
_NODE_RE = re.compile(
    r'^\s*"(?P<name>[^"]+)"\s*\[label="(?P=name)\\n'
    r"<(?P<wcet>[^>]+)>\"\]\s*;\s*$"
)
_EDGE_RE = re.compile(
    r'^\s*"(?P<src>[^"]+)"\s*->\s*"(?P<dst>[^"]+)"\s*;\s*$'
)


def dag_to_dot(dag: DAGTask) -> str:
    """DOT source for the DAG (round-trips via :func:`dag_from_dot`)."""
    lines = [
        f'digraph "{dag.name}" {{',
        "  rankdir=LR;",
        f'  graph [period="{dag.period}", deadline="{dag.deadline}"];',
    ]
    for v, w in dag.wcets.items():
        lines.append(f'  "{v}" [label="{v}\\n<{w}>"];')
    for src, dst in dag.edges:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines)


def dag_from_dot(source: str, validate: bool = True) -> DAGTask:
    """Parse the DOT dialect emitted by :func:`dag_to_dot`.

    Edges naming a vertex the source never declared are rejected with
    an error naming the line (shared check with the DRT importer:
    :func:`repro.io.dot.require_declared_endpoints`).
    """
    name = None
    period = deadline = None
    vertices = []
    edges = []
    edge_lines = []
    closed = False
    for line_no, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        if name is None:
            m = _HEADER_RE.match(line)
            if m is None:
                raise SerializationError(
                    f'line {line_no}: expected \'digraph "<name>" {{\', '
                    f"got {stripped!r}"
                )
            name = m.group("name")
            continue
        if stripped == "}":
            closed = True
            continue
        if stripped.startswith("rankdir"):
            continue
        m = _GRAPH_RE.match(line)
        if m is not None:
            period = _q_in(m.group("period"), f"line {line_no}: period")
            deadline = _q_in(
                m.group("deadline"), f"line {line_no}: deadline"
            )
            continue
        m = _EDGE_RE.match(line)
        if m is not None:
            edges.append((m.group("src"), m.group("dst")))
            edge_lines.append((m.group("src"), m.group("dst"), line_no))
            continue
        m = _NODE_RE.match(line)
        if m is not None:
            vertices.append(
                (
                    m.group("name"),
                    _q_in(
                        m.group("wcet"),
                        f"line {line_no}: vertex {m.group('name')!r} wcet",
                    ),
                )
            )
            continue
        raise SerializationError(
            f"line {line_no}: unrecognised DOT statement {stripped!r}"
        )
    if name is None or not closed:
        raise SerializationError("DOT source is not a closed digraph block")
    if period is None or deadline is None:
        raise SerializationError(
            'DOT source is missing the \'graph [period="...", '
            'deadline="..."]\' attribute line'
        )
    require_declared_endpoints(edge_lines, {v for v, _ in vertices}, "vertex")
    dag = DAGTask(name, vertices, edges, period=period, deadline=deadline)
    if validate:
        validate_dag(dag)
    return dag


def save_dag_dot(dag: DAGTask, path: Union[str, Path]) -> None:
    """Write one DAG task to *path* in the round-trip DOT dialect."""
    try:
        Path(path).write_text(dag_to_dot(dag) + "\n")
    except OSError as exc:
        raise SerializationError(
            f"cannot write DAG task to {path}: {exc}"
        ) from exc


def load_dag_dot(path: Union[str, Path], validate: bool = True) -> DAGTask:
    """Read a DAG task from a DOT file (validated by default)."""
    try:
        source = Path(path).read_text()
    except OSError as exc:
        raise SerializationError(
            f"cannot read DAG task from {path}: {exc}"
        ) from exc
    return dag_from_dot(source, validate=validate)
