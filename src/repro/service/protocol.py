"""Wire protocol of the analysis service.

JSON in, JSON out, rationals as strings — the exact-arithmetic
guarantee of the engine survives the network because every
:class:`~fractions.Fraction` crosses the wire in its ``"p/q"`` string
form (the same convention as :mod:`repro.io.json_io`) and is rebuilt
exactly on the other side.  The client reconstructs the engine's own
result dataclasses (:class:`~repro.resilience.bounded.BoundedDelayResult`,
:class:`~repro.sched.sp.SpResult`,
:class:`~repro.sched.edf_delay.EdfDelayResult`,
:class:`~repro.core.facade.TaskAnalysisSummary`,
:class:`~repro.mp.bounds.DagRtaResult`,
:class:`~repro.mp.global_sched.GlobalSchedResult`), so a served
analysis compares ``==`` to a direct in-process call.

**Request** (one JSON object)::

    {
      "kind": "delay" | "bounded_delay" | "sp_schedulable"
              | "edf_structural_delays" | "analyze_many" | "whatif_sweep"
              | "dag_rta" | "global_fp_schedulable"
              | "global_rm_schedulable",
      "task":  {...},            # single-task + whatif kinds (json_io /
                                 # repro.mp.io dict, per the kind's model)
      "tasks": [{...}, ...],     # set kinds
      "edits": [{"op": ...}, ...],  # whatif_sweep: model edits (see
                                    # repro.whatif.edits wire forms)
      "beta": {"rate": "1/2", "latency": "4"}   # rate-latency shorthand
              | {"segments": [...]},            # full curve dict
                                 # (single-resource kinds only)
      "m": 4,                    # processor count (multiprocessor kinds)
      "deadline_ms": 250,        # optional: analysis budget (ms)
      "max_expansions": 10000,   # optional: work-unit budget
      "max_segments": 32,        # optional: degraded-approximation k
      "params": {...},           # optional kind-specific keywords
      "perf": true,              # optional: per-request perf delta
      "validate": true           # optional: semantic task validation
    }

**Response envelope**::

    {"ok": true, "trace_id": "...", "kind": "...", "degraded": false,
     "shed": false, "result": {...}, "perf": {...}?}

Analysis-level failures (validation, unbounded workload, exhausted
budget on a kind with no sound degraded form) come back with HTTP 200
and ``"ok": false`` plus a typed error object — a failed *analysis* is
a first-class answer, not a transport error.  Transport-level problems
(malformed JSON, unknown kind, queue full, draining) use 4xx/5xx.

Error codes: ``bad_request``, ``validation``, ``unbounded``,
``budget_exhausted``, ``analysis_error``, ``internal``.

Every kind is described by one :class:`KindSpec` row in
:data:`KIND_REGISTRY` — arity, task model, whether it takes ``beta``
or ``m``, the parameter allowlist, and the result codec.  Adding a
kind is one :func:`register_kind` call; request decoding, result
encoding/decoding, placement digests and admission (sheddability) all
read the table instead of growing per-kind branches.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.facade import TaskAnalysisSummary
from repro.errors import (
    BudgetExhaustedError,
    ReproError,
    SerializationError,
    UnboundedBusyWindowError,
    ValidationError,
)
from repro.io.json_io import curve_from_dict, task_from_dict
from repro.minplus.curve import Curve
from repro.mp.bounds import DagRtaResult
from repro.mp.global_sched import GlobalSchedResult
from repro.mp.io import dag_from_dict
from repro.resilience.bounded import BoundedDelayResult
from repro.resilience.budget import Budget
from repro.sched.edf_delay import EdfDelayResult
from repro.sched.sp import SpResult
from repro.whatif.edits import edit_from_dict
from repro.whatif.engine import WhatIfResult

__all__ = [
    "PROTOCOL_VERSION",
    "KINDS",
    "SINGLE_TASK_KINDS",
    "SET_KINDS",
    "WHATIF_KINDS",
    "MP_KINDS",
    "KindSpec",
    "KIND_REGISTRY",
    "register_kind",
    "is_sheddable",
    "DecodedRequest",
    "new_trace_id",
    "request_placement",
    "decode_request",
    "encode_result",
    "decode_result",
    "error_envelope",
    "error_code_for",
]

PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Rational and shared sub-object codecs
# ----------------------------------------------------------------------


def _q_out(q) -> Optional[str]:
    return None if q is None else str(q)


def _q_in(s, default=None) -> Optional[Fraction]:
    return default if s is None else Fraction(str(s))


def _encode_job_delays(job_delays: Dict[str, Dict[str, Fraction]]):
    return {
        task: {job: str(d) for job, d in delays.items()}
        for task, delays in job_delays.items()
    }


def _decode_job_delays(data) -> Dict[str, Dict[str, Fraction]]:
    return {
        task: {job: Fraction(d) for job, d in delays.items()}
        for task, delays in data.items()
    }


def _encode_summary(s: TaskAnalysisSummary) -> Dict[str, Any]:
    return {
        "task": s.task,
        "delay": str(s.delay),
        "backlog": str(s.backlog),
        "busy_window": str(s.busy_window),
        "per_job": {j: str(d) for j, d in s.per_job.items()},
        "meets_deadlines": s.meets_deadlines,
        "witness_vertices": (
            None if s.witness_vertices is None else list(s.witness_vertices)
        ),
    }


def _decode_summary(s: Dict[str, Any]) -> TaskAnalysisSummary:
    return TaskAnalysisSummary(
        task=s["task"],
        delay=Fraction(s["delay"]),
        backlog=Fraction(s["backlog"]),
        busy_window=Fraction(s["busy_window"]),
        per_job={j: Fraction(d) for j, d in s["per_job"].items()},
        meets_deadlines=s["meets_deadlines"],
        witness_vertices=(
            None
            if s["witness_vertices"] is None
            else tuple(s["witness_vertices"])
        ),
    )


# ----------------------------------------------------------------------
# Per-kind result codecs
# ----------------------------------------------------------------------


def _encode_bounded(result: BoundedDelayResult) -> Dict[str, Any]:
    return {
        "delay": str(result.delay),
        "degraded": result.degraded,
        "level": result.level,
        "reason": result.reason,
        "busy_window": _q_out(result.busy_window),
        "tuple_count": result.tuple_count,
        "explored_horizon": _q_out(result.explored_horizon),
        # Witness tuples hold engine-internal state; the wire form
        # is a display string (clients never resume from it).
        "critical_tuple": (
            None
            if result.critical_tuple is None
            else str(result.critical_tuple)
        ),
    }


def _decode_bounded(data: Dict[str, Any]) -> BoundedDelayResult:
    return BoundedDelayResult(
        delay=Fraction(data["delay"]),
        degraded=data["degraded"],
        level=data["level"],
        reason=data.get("reason"),
        busy_window=_q_in(data.get("busy_window")),
        critical_tuple=data.get("critical_tuple"),
        tuple_count=data.get("tuple_count"),
        explored_horizon=_q_in(data.get("explored_horizon")),
    )


def _encode_sp(sp: SpResult) -> Dict[str, Any]:
    return {
        "schedulable": sp.schedulable,
        "job_delays": _encode_job_delays(sp.job_delays),
        "failures": [
            [task, job, str(delay), str(deadline)]
            for task, job, delay, deadline in sp.failures
        ],
        "saturated": list(sp.saturated),
    }


def _decode_sp(data: Dict[str, Any]) -> SpResult:
    return SpResult(
        schedulable=data["schedulable"],
        job_delays=_decode_job_delays(data["job_delays"]),
        failures=[
            (task, job, Fraction(delay), Fraction(deadline))
            for task, job, delay, deadline in data["failures"]
        ],
        saturated=list(data["saturated"]),
    )


def _encode_edf(edf: EdfDelayResult) -> Dict[str, Any]:
    return {
        "schedulable": edf.schedulable,
        "job_delays": _encode_job_delays(edf.job_delays),
        "busy_window": str(edf.busy_window),
    }


def _decode_edf(data: Dict[str, Any]) -> EdfDelayResult:
    return EdfDelayResult(
        schedulable=data["schedulable"],
        job_delays=_decode_job_delays(data["job_delays"]),
        busy_window=Fraction(data["busy_window"]),
    )


def _encode_many(result) -> Dict[str, Any]:
    return {"summaries": [_encode_summary(s) for s in result]}


def _decode_many(data: Dict[str, Any]):
    return [_decode_summary(s) for s in data["summaries"]]


def _encode_whatif(result) -> Dict[str, Any]:
    return {
        "results": [
            {
                "edit": r.edit,
                "ok": r.ok,
                "summary": (
                    None if r.summary is None else _encode_summary(r.summary)
                ),
                "error": r.error,
                "error_code": r.error_code,
                "cone_size": r.cone_size,
                "carried_vertices": r.carried_vertices,
                "total_vertices": r.total_vertices,
            }
            for r in result
        ]
    }


def _decode_whatif(data: Dict[str, Any]):
    return [
        WhatIfResult(
            edit=r["edit"],
            ok=r["ok"],
            summary=(
                None if r["summary"] is None else _decode_summary(r["summary"])
            ),
            error=r.get("error"),
            error_code=r.get("error_code"),
            cone_size=r.get("cone_size", 0),
            carried_vertices=r.get("carried_vertices", 0),
            total_vertices=r.get("total_vertices", 0),
        )
        for r in data["results"]
    ]


def _encode_dag_rta(r: DagRtaResult) -> Dict[str, Any]:
    return {
        "task": r.task,
        "m": r.m,
        "response": str(r.response),
        "graham": str(r.graham),
        "longest_path": str(r.longest_path),
        "volume": str(r.volume),
        "path_lengths": [str(length) for length in r.path_lengths],
        "schedulable": r.schedulable,
        "degraded": r.degraded,
        "level": r.level,
        "reason": r.reason,
    }


def _decode_dag_rta(data: Dict[str, Any]) -> DagRtaResult:
    return DagRtaResult(
        task=data["task"],
        m=data["m"],
        response=Fraction(data["response"]),
        graham=Fraction(data["graham"]),
        longest_path=Fraction(data["longest_path"]),
        volume=Fraction(data["volume"]),
        path_lengths=tuple(
            Fraction(length) for length in data["path_lengths"]
        ),
        schedulable=data["schedulable"],
        degraded=data["degraded"],
        level=data["level"],
        reason=data.get("reason"),
    )


def _encode_global(r: GlobalSchedResult) -> Dict[str, Any]:
    return {
        "schedulable": r.schedulable,
        "m": r.m,
        "policy": r.policy,
        "order": list(r.order),
        "responses": {
            task: _q_out(resp) for task, resp in r.responses.items()
        },
        "failures": [
            [task, str(bound), str(deadline)]
            for task, bound, deadline in r.failures
        ],
    }


def _decode_global(data: Dict[str, Any]) -> GlobalSchedResult:
    return GlobalSchedResult(
        schedulable=data["schedulable"],
        m=data["m"],
        policy=data["policy"],
        order=tuple(data["order"]),
        responses={
            task: _q_in(resp) for task, resp in data["responses"].items()
        },
        failures=tuple(
            (task, Fraction(bound), Fraction(deadline))
            for task, bound, deadline in data["failures"]
        ),
    )


# ----------------------------------------------------------------------
# The kind registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KindSpec:
    """Everything the protocol layer knows about one analysis kind.

    Attributes:
        kind: Wire name.
        arity: ``"single"`` (one ``task``), ``"set"`` (ordered
            ``tasks`` list) or ``"whatif"`` (one ``task`` plus
            ``edits``).
        model: Which task decoder the kind uses: ``"drt"``
            (:func:`repro.io.json_io.task_from_dict`) or ``"dag"``
            (:func:`repro.mp.io.dag_from_dict`).
        needs_beta: The kind analyses against a service curve; a
            top-level ``beta`` is required (and rejected otherwise).
        needs_m: The kind is a multiprocessor analysis; a top-level
            integer ``m >= 1`` is required (and rejected otherwise).
        sheddable: The kind has a *sound* degraded form under a
            deadline budget, so admission control may shed it to a
            tightened budget instead of rejecting.
        params: Keyword parameters forwarded to the engine entry point.
        rational_params: Subset of *params* carrying rationals (decoded
            from the ``"p/q"`` string form).
        encode: Engine result -> JSON-ready wire dict.
        decode: Wire dict -> engine result (the client-side inverse).
    """

    kind: str
    arity: str
    model: str = "drt"
    needs_beta: bool = True
    needs_m: bool = False
    sheddable: bool = False
    params: FrozenSet[str] = frozenset()
    rational_params: FrozenSet[str] = frozenset()
    encode: Optional[Callable[[Any], Dict[str, Any]]] = None
    decode: Optional[Callable[[Dict[str, Any]], Any]] = None


KIND_REGISTRY: Dict[str, KindSpec] = {}


def register_kind(spec: KindSpec) -> KindSpec:
    """Add one kind to the registry (rejects duplicates)."""
    if spec.kind in KIND_REGISTRY:
        raise ValueError(f"kind {spec.kind!r} is already registered")
    if spec.arity not in ("single", "set", "whatif"):
        raise ValueError(f"unknown arity {spec.arity!r}")
    if spec.model not in ("drt", "dag"):
        raise ValueError(f"unknown model {spec.model!r}")
    KIND_REGISTRY[spec.kind] = spec
    return spec


register_kind(
    KindSpec(
        kind="delay",
        arity="single",
        sheddable=True,
        encode=_encode_bounded,
        decode=_decode_bounded,
    )
)
register_kind(
    KindSpec(
        kind="bounded_delay",
        arity="single",
        sheddable=True,
        encode=_encode_bounded,
        decode=_decode_bounded,
    )
)
register_kind(
    KindSpec(
        kind="sp_schedulable",
        arity="set",
        params=frozenset({"initial_horizon", "max_iterations"}),
        rational_params=frozenset({"initial_horizon"}),
        encode=_encode_sp,
        decode=_decode_sp,
    )
)
register_kind(
    KindSpec(
        kind="edf_structural_delays",
        arity="set",
        params=frozenset({"initial_horizon", "max_iterations"}),
        rational_params=frozenset({"initial_horizon"}),
        encode=_encode_edf,
        decode=_decode_edf,
    )
)
register_kind(
    KindSpec(
        kind="analyze_many",
        arity="set",
        params=frozenset({"initial_horizon"}),
        rational_params=frozenset({"initial_horizon"}),
        encode=_encode_many,
        decode=_decode_many,
    )
)
register_kind(
    KindSpec(
        # The sweep's edits arrive top-level (like 'task'), not via params.
        kind="whatif_sweep",
        arity="whatif",
        encode=_encode_whatif,
        decode=_decode_whatif,
    )
)
register_kind(
    KindSpec(
        kind="dag_rta",
        arity="single",
        model="dag",
        needs_beta=False,
        needs_m=True,
        # Budget exhaustion degrades soundly to the Graham bound.
        sheddable=True,
        params=frozenset({"max_paths"}),
        encode=_encode_dag_rta,
        decode=_decode_dag_rta,
    )
)
register_kind(
    KindSpec(
        kind="global_fp_schedulable",
        arity="set",
        model="dag",
        needs_beta=False,
        needs_m=True,
        params=frozenset({"max_iterations"}),
        encode=_encode_global,
        decode=_decode_global,
    )
)
register_kind(
    KindSpec(
        kind="global_rm_schedulable",
        arity="set",
        model="dag",
        needs_beta=False,
        needs_m=True,
        params=frozenset({"max_iterations"}),
        encode=_encode_global,
        decode=_decode_global,
    )
)

#: Kinds operating on one DRT task.
SINGLE_TASK_KINDS = frozenset(
    k
    for k, s in KIND_REGISTRY.items()
    if s.arity == "single" and s.model == "drt"
)
#: Kinds operating on an ordered DRT task set.
SET_KINDS = frozenset(
    k
    for k, s in KIND_REGISTRY.items()
    if s.arity == "set" and s.model == "drt"
)
#: Kinds sweeping model edits over one warm base task (``/v1/whatif``).
WHATIF_KINDS = frozenset(
    k for k, s in KIND_REGISTRY.items() if s.arity == "whatif"
)
#: Multiprocessor DAG kinds (take ``m``, no ``beta``).
MP_KINDS = frozenset(
    k for k, s in KIND_REGISTRY.items() if s.model == "dag"
)
KINDS = frozenset(KIND_REGISTRY)


def is_sheddable(kind: str) -> bool:
    """True iff *kind* has a sound degraded form under a deadline."""
    spec = KIND_REGISTRY.get(kind)
    return spec is not None and spec.sheddable


def new_trace_id() -> str:
    """A fresh 16-hex-digit request trace ID."""
    return secrets.token_hex(8)


def request_placement(req: "DecodedRequest") -> str:
    """The placement (routing) key of one decoded request.

    Identical, by construction, to the content digest
    :func:`repro.cluster.routing.routing_digest` computes from the wire
    spec — same parts, same order, same separator — so the cache entries
    a worker writes while serving a request are tagged with exactly the
    key the coordinator's consistent-hash ring placed the request by,
    and a resize can re-home them with the true movement delta.

    Single-resource kinds hash ``[kind, beta, task digests...]``;
    multiprocessor kinds have no curve and hash ``[kind, m, DAG
    digests...]``.
    """
    import hashlib

    from repro.parallel.cache import task_digest

    parts = [req.kind]
    if req.beta is not None:
        parts.append(req.beta.digest())
    if "m" in req.params:
        parts.append(f"m={req.params['m']}")
    parts.extend(task_digest(t) for t in req.tasks)
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


@dataclass
class DecodedRequest:
    """One validated, engine-ready analysis request.

    Everything in here is pickle-safe, so a micro-batch of decoded
    requests ships to :mod:`repro.parallel.plane` workers as-is.
    """

    kind: str
    tasks: Tuple  # DRTTask/DAGTask instances; single kinds hold exactly one
    beta: Optional[Curve]  # None for multiprocessor kinds
    budget: Optional[Budget]
    params: Dict[str, Any] = field(default_factory=dict)
    want_perf: bool = False
    trace_id: str = ""
    #: Set by admission control when the request was accepted under load
    #: shedding (its budget was tightened to keep the queue moving).
    shed: bool = False


def _bad(message: str) -> SerializationError:
    return SerializationError(message)


def _decode_rational(value: Any, what: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise _bad(f"invalid rational {value!r} for {what}") from exc


def decode_beta(spec: Any) -> Curve:
    """A service curve from its wire form.

    Accepts the rate-latency shorthand ``{"rate": "1/2", "latency": "4"}``
    or a full segment-list curve dict (:func:`repro.io.json_io.curve_from_dict`).
    """
    if not isinstance(spec, dict):
        raise _bad("'beta' must be an object")
    if "segments" in spec:
        return curve_from_dict(spec)
    if "rate" in spec:
        from repro.curves.service import rate_latency_service

        rate = _decode_rational(spec["rate"], "beta.rate")
        latency = _decode_rational(spec.get("latency", "0"), "beta.latency")
        if rate <= 0:
            raise _bad(f"beta.rate must be positive, got {rate}")
        if latency < 0:
            raise _bad(f"beta.latency must be >= 0, got {latency}")
        return rate_latency_service(rate, latency)
    raise _bad("'beta' needs either 'segments' or 'rate'/'latency'")


def _decode_count(value: Any, what: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise _bad(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def decode_m(value: Any) -> int:
    """The processor count of a multiprocessor request."""
    return _decode_count(value, "'m'", 1)


def decode_request(data: Any, trace_id: Optional[str] = None) -> DecodedRequest:
    """Validate and decode one wire request into engine objects.

    Entirely table-driven by :data:`KIND_REGISTRY`: the kind's spec
    decides the task decoder, whether ``beta``/``m`` are required, and
    the parameter allowlist.

    Raises:
        SerializationError: on structural problems (missing fields,
            unknown kind, malformed numbers) — mapped to ``bad_request``.
        ValidationError: when a task is semantically malformed and
            validation was not opted out of.
    """
    if not isinstance(data, dict):
        raise _bad("request must be a JSON object")
    kind = data.get("kind")
    spec = KIND_REGISTRY.get(kind)
    if spec is None:
        raise _bad(
            f"unknown kind {kind!r}; expected one of {sorted(KINDS)}"
        )
    validate = bool(data.get("validate", True))
    loader = task_from_dict if spec.model == "drt" else dag_from_dict
    if spec.arity in ("single", "whatif"):
        if "task" not in data:
            raise _bad(f"kind {kind!r} needs a 'task' object")
        tasks = (loader(data["task"], validate=validate),)
    else:
        specs = data.get("tasks")
        if not isinstance(specs, list) or not specs:
            raise _bad(f"kind {kind!r} needs a non-empty 'tasks' list")
        tasks = tuple(loader(s, validate=validate) for s in specs)

    if spec.needs_beta:
        if "beta" not in data:
            raise _bad("request needs a 'beta' service-curve object")
        beta = decode_beta(data["beta"])
    else:
        if "beta" in data:
            raise _bad(f"kind {kind!r} takes no 'beta' (it has no curve)")
        beta = None

    try:
        budget = Budget.from_request(
            deadline_ms=data.get("deadline_ms"),
            max_expansions=data.get("max_expansions"),
            max_segments=data.get("max_segments"),
        )
    except (TypeError, ValueError) as exc:
        raise _bad(f"invalid budget fields: {exc}") from exc

    raw_params = data.get("params", {})
    if not isinstance(raw_params, dict):
        raise _bad("'params' must be an object")
    unknown = sorted(set(raw_params) - spec.params)
    if unknown:
        raise _bad(
            f"unknown params {unknown} for kind {kind!r}; "
            f"allowed: {sorted(spec.params)}"
        )
    params = dict(raw_params)
    for name in spec.rational_params & set(params):
        if params[name] is not None:
            params[name] = _decode_rational(params[name], f"params.{name}")
    for name, least in (("max_iterations", 1), ("max_paths", 0)):
        if name in params:
            _decode_count(params[name], f"params.{name}", least)

    if spec.needs_m:
        if "m" not in data:
            raise _bad(f"kind {kind!r} needs a processor count 'm'")
        params["m"] = decode_m(data["m"])
    elif "m" in data:
        raise _bad(f"kind {kind!r} takes no 'm' (single-resource)")

    if spec.arity == "whatif":
        specs = data.get("edits")
        if not isinstance(specs, list) or not specs:
            raise _bad(f"kind {kind!r} needs a non-empty 'edits' list")
        params["edits"] = [edit_from_dict(s) for s in specs]

    return DecodedRequest(
        kind=kind,
        tasks=tasks,
        beta=beta,
        budget=budget,
        params=params,
        want_perf=bool(data.get("perf", False)),
        trace_id=trace_id or new_trace_id(),
    )


# ----------------------------------------------------------------------
# Result encoding (server) and decoding (client)
# ----------------------------------------------------------------------


def encode_result(kind: str, result: Any) -> Dict[str, Any]:
    """The JSON-friendly wire form of one kind's engine result."""
    spec = KIND_REGISTRY.get(kind)
    if spec is None or spec.encode is None:
        raise ValueError(f"unknown kind {kind!r}")
    return spec.encode(result)


def decode_result(kind: str, data: Dict[str, Any]):
    """Rebuild the engine result object from its wire form.

    The client-side inverse of :func:`encode_result`.  Reconstructed
    dataclasses compare ``==`` to the direct in-process results, except
    for ``critical_tuple`` (served as a display string — noted in the
    class docs)."""
    spec = KIND_REGISTRY.get(kind)
    if spec is None or spec.decode is None:
        raise ValueError(f"unknown kind {kind!r}")
    return spec.decode(data)


# ----------------------------------------------------------------------
# Error envelopes
# ----------------------------------------------------------------------


def error_code_for(exc: BaseException) -> str:
    """The wire error code of one exception (typed, never a traceback)."""
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, UnboundedBusyWindowError):
        return "unbounded"
    if isinstance(exc, BudgetExhaustedError):
        return "budget_exhausted"
    if isinstance(exc, SerializationError):
        return "bad_request"
    if isinstance(exc, ReproError):
        return "analysis_error"
    return "internal"


def error_envelope(
    exc: BaseException, trace_id: str, kind: Optional[str] = None
) -> Dict[str, Any]:
    """The ``ok: false`` response body for one failed request."""
    code = error_code_for(exc)
    message = (
        "internal error" if code == "internal" else str(exc)
    )
    body: Dict[str, Any] = {
        "ok": False,
        "trace_id": trace_id,
        "error": {"code": code, "message": message},
    }
    if kind is not None:
        body["kind"] = kind
    return body
