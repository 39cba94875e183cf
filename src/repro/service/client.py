"""Client library of the analysis service.

:class:`ServiceClient` speaks the wire protocol of
:mod:`repro.service.server` through the blocking exchange of
:mod:`repro.service.http` — stdlib only, mirroring the server.  It adds the
operational behaviour a caller should not have to reimplement:

* **retries with backoff** — connection-level failures and ``429``
  rejections are retried up to ``max_retries`` times; a ``429``'s
  ``Retry-After`` hint is honoured (capped by ``retry_after_cap_s``),
  other failures use capped exponential backoff with **decorrelated
  jitter** (each wait drawn uniformly from ``[backoff_s, 3 × previous
  wait]``, capped), so a thundering herd of retrying clients spreads
  out instead of re-arriving in lockstep;
* **coordinator failover** — given a ``coordinators`` list, a
  connection-level failure rotates to the next endpoint before
  retrying, so a fleet fronted by an active + warm standby
  (:mod:`repro.cluster.standby`) keeps answering across a coordinator
  crash.  Every ``POST /v1/*`` request carries an
  ``X-Idempotency-Key`` header (one fresh key per *logical* request,
  reused across its retries): a coordinator that already executed the
  request replays the recorded response instead of re-executing, so
  an in-flight batch whose response was lost to the crash is re-issued
  exactly once;
* **typed results** — the convenience methods (:meth:`delay`,
  :meth:`sp_schedulable`, :meth:`edf_structural_delays`,
  :meth:`analyze_many`, :meth:`dag_rta`, :meth:`global_fp_schedulable`,
  :meth:`global_rm_schedulable`) rebuild the engine's own result
  dataclasses via
  :func:`repro.service.protocol.decode_result`, so a served analysis
  compares ``==`` to a direct in-process call;
* **typed failures** — transport and analysis errors raise
  :class:`ServiceError` carrying the HTTP status, wire error code and
  trace ID, instead of a bare exception soup;
* **route visibility** — when the endpoint is a cluster coordinator
  (:mod:`repro.cluster`), the owner worker id and ring generation it
  stamps on every response (``X-Repro-Worker`` /
  ``X-Repro-Ring-Generation``) surface as :attr:`ServiceClient.last_route`
  (a :class:`RouteInfo`) and, where the result object allows it, as a
  ``.route`` attribute on typed results.  Cluster-level ``429``
  rejections carry the same ``Retry-After`` discipline as single-node
  ones, so the existing retry loop honours them unchanged.

Batch helpers: :meth:`batch` posts many requests in one round-trip and
returns their envelopes in request order; :meth:`batch_stream` consumes
the NDJSON streaming form, yielding ``(index, envelope)`` in completion
order.
"""

from __future__ import annotations

import json
import random
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.io.json_io import curve_to_dict, task_to_dict
from repro.minplus.curve import Curve
from repro.service import http, protocol

__all__ = ["RouteInfo", "ServiceClient", "ServiceError"]


@dataclass(frozen=True)
class RouteInfo:
    """Where a coordinator placed one request.

    Attributes:
        worker: Owner worker id (``X-Repro-Worker``), e.g. ``"w0"``.
        ring_generation: Consistent-hash ring generation the placement
            was made under (``X-Repro-Ring-Generation``); bumps on every
            worker ejection/re-admission.
        trace_id: The trace ID the response carried, when any.
    """

    worker: Optional[str] = None
    ring_generation: Optional[int] = None
    trace_id: Optional[str] = None


def _route_from_headers(headers: Dict[str, str]) -> Optional[RouteInfo]:
    worker = headers.get("x-repro-worker")
    gen_raw = headers.get("x-repro-ring-generation")
    if worker is None and gen_raw is None:
        return None
    generation: Optional[int] = None
    if gen_raw is not None:
        try:
            generation = int(gen_raw)
        except ValueError:
            generation = None
    return RouteInfo(
        worker=worker,
        ring_generation=generation,
        trace_id=headers.get("x-trace-id"),
    )


class ServiceError(Exception):
    """A request the service refused or could not answer.

    Attributes:
        status: HTTP status code (0 when the transport itself failed).
        code: Wire error code (``queue_full``, ``validation``, ...).
        trace_id: Server-assigned trace ID, when one was issued.
    """

    def __init__(
        self,
        message: str,
        status: int = 0,
        code: str = "transport",
        trace_id: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.trace_id = trace_id


def _refused(what: str, status: int, doc: Any) -> ServiceError:
    """The :class:`ServiceError` of one non-200 JSON reply."""
    doc = doc if isinstance(doc, dict) else {}
    error = doc.get("error", {})
    return ServiceError(
        f"{what}: {error.get('message', f'status {status}')}",
        status=status,
        code=error.get("code", "transport"),
        trace_id=doc.get("trace_id"),
    )


def _beta_to_wire(beta) -> Dict[str, Any]:
    """The wire form of a service curve argument.

    Accepts a :class:`~repro.minplus.curve.Curve` (full segment dict), a
    ``(rate, latency)`` pair, or an already-wire-shaped dict.
    """
    if isinstance(beta, Curve):
        return curve_to_dict(beta)
    if isinstance(beta, dict):
        return beta
    if isinstance(beta, (tuple, list)) and len(beta) == 2:
        rate, latency = beta
        return {"rate": str(rate), "latency": str(latency)}
    raise TypeError(
        "beta must be a Curve, a (rate, latency) pair, or a wire dict; "
        f"got {type(beta).__name__}"
    )


class ServiceClient:
    """One analysis-service endpoint plus retry policy.

    Args:
        host: Service host.
        port: Service port.
        timeout: Per-request socket timeout in seconds.
        max_retries: Retries after connection failures or ``429``.
        backoff_s: Floor of the jittered backoff (and its first draw).
        backoff_cap_s: Ceiling on any single backoff wait.
        retry_after_cap_s: Ceiling on honoured ``Retry-After`` hints
            (defaults to ``backoff_cap_s``), so a client never sleeps
            for the server's full suggestion no matter what it claims.
        coordinators: Failover endpoint list — ``(host, port)`` pairs or
            ``"host:port"`` strings, tried in rotation when the current
            endpoint stops answering at the connection level.  Supersedes
            *host*/*port* when given; the active + warm-standby pair of
            a self-healing cluster is the intended shape.
        jitter_seed: Seed for the backoff jitter RNG (tests only —
            production clients should leave the jitter decorrelated).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8177,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 5.0,
        retry_after_cap_s: Optional[float] = None,
        coordinators: Optional[
            Sequence[Union[str, Tuple[str, int]]]
        ] = None,
        jitter_seed: Optional[int] = None,
    ) -> None:
        endpoints: List[Tuple[str, int]] = []
        for endpoint in coordinators or ():
            if isinstance(endpoint, str):
                ep_host, _, ep_port = endpoint.rpartition(":")
                if not ep_host or not ep_port.isdigit():
                    raise ValueError(
                        f"coordinators entries must be 'host:port', "
                        f"got {endpoint!r}"
                    )
                endpoints.append((ep_host, int(ep_port)))
            else:
                endpoints.append((str(endpoint[0]), int(endpoint[1])))
        if not endpoints:
            endpoints = [(host, port)]
        self._endpoints = endpoints
        self._endpoint_index = 0
        self.host, self.port = endpoints[0]
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_after_cap_s = (
            backoff_cap_s if retry_after_cap_s is None else retry_after_cap_s
        )
        self._rng = random.Random(jitter_seed)
        self._prev_wait_s = backoff_s
        #: Routing metadata of the most recent JSON exchange (None when
        #: the endpoint added no routing headers — i.e. a plain worker).
        self.last_route: Optional[RouteInfo] = None

    @property
    def endpoints(self) -> Tuple[Tuple[str, int], ...]:
        """The failover rotation, current endpoint first."""
        i = self._endpoint_index
        return tuple(self._endpoints[i:] + self._endpoints[:i])

    def _rotate_endpoint(self) -> None:
        if len(self._endpoints) <= 1:
            return
        self._endpoint_index = (
            self._endpoint_index + 1
        ) % len(self._endpoints)
        self.host, self.port = self._endpoints[self._endpoint_index]

    # -- transport -------------------------------------------------------

    def _once(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        return http.fetch(
            self.host, self.port, method, path, body, extra_headers,
            timeout=self.timeout,
        )

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        idempotency_key: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange with retry/backoff; returns the raw triple.

        Retries connection-level failures (rotating through the
        ``coordinators`` failover list when one was given) and ``429``
        responses; all other statuses return to the caller as-is.
        ``POST /v1/*`` requests carry an ``X-Idempotency-Key`` — one
        fresh key per call to this method, shared by all its retries —
        so a coordinator that executed the request but lost the
        response replays the recorded answer instead of re-executing.

        Raises:
            ServiceError: when the transport keeps failing or the queue
                stays full past ``max_retries``.
        """
        encoded = None if body is None else json.dumps(body).encode("utf-8")
        if (
            idempotency_key is None
            and method == "POST"
            and path.startswith("/v1/")
        ):
            idempotency_key = uuid.uuid4().hex
        extra = (
            {"X-Idempotency-Key": idempotency_key}
            if idempotency_key
            else None
        )
        self._prev_wait_s = self.backoff_s
        last_error: Optional[str] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self._wait_s(attempt, last_error))
            try:
                status, headers, payload = self._once(
                    method, path, encoded, extra
                )
            except OSError as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                # This endpoint is not answering; the next one (a warm
                # standby, usually) might be.
                self._rotate_endpoint()
                continue
            if status == 429 and attempt < self.max_retries:
                retry_after = headers.get("retry-after", "")
                last_error = f"429 queue full (Retry-After: {retry_after})"
                self._note_retry_after(retry_after)
                continue
            return status, headers, payload
        queue_full = bool(last_error and last_error.startswith("429"))
        raise ServiceError(
            f"{method} {path} failed after {self.max_retries + 1} attempts: "
            f"{last_error}",
            status=429 if queue_full else 0,
            code="queue_full" if queue_full else "transport",
        )

    def _note_retry_after(self, retry_after: str) -> None:
        try:
            self._suggested_wait = float(retry_after)
        except (TypeError, ValueError):
            self._suggested_wait = None

    def _wait_s(self, attempt: int, last_error: Optional[str]) -> float:
        """The next backoff sleep.

        A ``429`` with a parseable ``Retry-After`` is honoured up to
        ``retry_after_cap_s``.  Everything else sleeps with
        *decorrelated jitter*: a uniform draw from ``[backoff_s,
        3 × previous wait]``, capped at ``backoff_cap_s`` — growth
        comparable to doubling, but desynchronized across clients so
        retries do not re-arrive as the same thundering herd that
        caused the ``429`` in the first place.
        """
        del attempt  # growth state lives in _prev_wait_s, not the count
        suggested = getattr(self, "_suggested_wait", None)
        if last_error and last_error.startswith("429") and suggested:
            return min(suggested, self.retry_after_cap_s)
        wait = min(
            self._rng.uniform(self.backoff_s, self._prev_wait_s * 3.0),
            self.backoff_cap_s,
        )
        self._prev_wait_s = max(wait, self.backoff_s)
        return wait

    def _json(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, headers, payload = self.request(method, path, body)
        self.last_route = _route_from_headers(headers)
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"{method} {path}: non-JSON response (status {status})",
                status=status,
            ) from exc
        if status != 200:
            raise _refused(f"{method} {path}", status, doc)
        return doc

    # -- plumbing endpoints ----------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The liveness document (raises while the server drains)."""
        return self._json("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """The full ``/metrics`` JSON document."""
        return self._json("GET", "/metrics")

    # -- raw analysis ----------------------------------------------------

    def analyze_raw(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST one wire-shaped request; return its response envelope.

        Analysis-level failures (``ok: false``) are returned, not
        raised — callers inspecting degradation or chaos behaviour need
        the envelope.  Transport-level failures raise
        :class:`ServiceError`.
        """
        return self._json("POST", "/v1/analyze", spec)

    def batch(
        self, specs: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """POST many requests in one round-trip; envelopes in order."""
        doc = self._json("POST", "/v1/batch", {"requests": list(specs)})
        return doc["responses"]

    def batch_stream(
        self, specs: Sequence[Dict[str, Any]]
    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """POST a batch with ``stream: true``; yield results as they land.

        Yields ``(index, envelope)`` pairs in completion order; the
        terminating ``{"done": true}`` line is consumed, and a stream
        that ends without it raises :class:`ServiceError` (truncated
        response).
        """
        body = json.dumps(
            {"requests": list(specs), "stream": True}
        ).encode("utf-8")
        with http.open_response(
            self.host, self.port, "POST", "/v1/batch", body,
            timeout=self.timeout,
        ) as response:
            if response.status != 200:
                try:
                    doc = json.loads(response.read().decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    doc = {}
                raise _refused("POST /v1/batch", response.status, doc)
            try:
                for doc in http.iter_ndjson(response):
                    yield doc.get("index"), doc
            except http.HttpProtocolError as exc:
                raise ServiceError(f"POST /v1/batch: {exc}") from exc

    # -- typed convenience methods ---------------------------------------

    @staticmethod
    def build_request(
        kind: str,
        tasks,
        beta=None,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        max_segments: Optional[int] = None,
        params: Optional[Dict[str, Any]] = None,
        perf: bool = False,
        edits: Optional[Sequence] = None,
        m: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The wire-shaped request dict for one analysis call.

        The kind's :class:`~repro.service.protocol.KindSpec` row decides
        the shape: DRT kinds serialize via
        :func:`repro.io.json_io.task_to_dict` and carry *beta*;
        multiprocessor kinds serialize via
        :func:`repro.mp.io.dag_to_dict` and carry *m* instead.
        *edits* (``whatif_sweep`` only) accepts
        :data:`repro.whatif.edits.Edit` values or already-wire-shaped
        edit dicts.
        """
        kspec = protocol.KIND_REGISTRY.get(kind)
        to_dict = task_to_dict
        if kspec is not None and kspec.model == "dag":
            from repro.mp.io import dag_to_dict

            to_dict = dag_to_dict
        spec: Dict[str, Any] = {"kind": kind}
        if kspec is None or kspec.needs_beta:
            spec["beta"] = _beta_to_wire(beta)
        if kspec is not None and kspec.arity in ("single", "whatif"):
            spec["task"] = to_dict(tasks)
        else:
            spec["tasks"] = [to_dict(t) for t in tasks]
        if m is not None:
            spec["m"] = m
        if edits is not None:
            from repro.whatif.edits import edit_to_dict

            spec["edits"] = [
                e if isinstance(e, dict) else edit_to_dict(e) for e in edits
            ]
        if deadline_ms is not None:
            spec["deadline_ms"] = deadline_ms
        if max_expansions is not None:
            spec["max_expansions"] = max_expansions
        if max_segments is not None:
            spec["max_segments"] = max_segments
        if params:
            spec["params"] = dict(params)
        if perf:
            spec["perf"] = True
        return spec

    def _attach_route(self, result):
        """Best-effort ``.route`` attribute on a typed result.

        List results (``analyze_many``, ``whatif_sweep``) and slotted or
        frozen dataclasses cannot carry ad-hoc attributes — for those,
        :attr:`last_route` remains the authoritative record.  Equality
        semantics are untouched either way: dataclass ``==`` compares
        declared fields only.
        """
        try:
            object.__setattr__(result, "route", self.last_route)
        except (AttributeError, TypeError):
            pass
        return result

    def _typed(self, kind: str, tasks, beta=None, **kwargs):
        return self._decoded(
            kind,
            self.analyze_raw(self.build_request(kind, tasks, beta, **kwargs)),
        )

    def _decoded(self, kind: str, envelope: Dict[str, Any]):
        """The typed result of one envelope; raise its analysis error."""
        if not envelope.get("ok", False):
            error = envelope.get("error", {})
            raise ServiceError(
                f"{kind}: {error.get('message', 'analysis failed')}",
                status=200,
                code=error.get("code", "analysis_error"),
                trace_id=envelope.get("trace_id"),
            )
        return self._attach_route(
            protocol.decode_result(kind, envelope["result"])
        )

    def delay(
        self,
        task,
        beta,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        max_segments: Optional[int] = None,
        backend: Optional[str] = None,
    ):
        """Served :func:`repro.resilience.bounded_delay` for one task.

        Returns a :class:`~repro.resilience.bounded.BoundedDelayResult`;
        with a budget that ran out the bound is *degraded but sound*
        (check ``.degraded``) rather than an error.
        """
        params = {"backend": backend} if backend else None
        return self._typed(
            "delay",
            task,
            beta,
            deadline_ms=deadline_ms,
            max_expansions=max_expansions,
            max_segments=max_segments,
            params=params,
        )

    def sp_schedulable(self, tasks, beta, **params):
        """Served :func:`repro.sched.sp.sp_schedulable`."""
        return self._typed("sp_schedulable", tasks, beta, params=params)

    def edf_structural_delays(self, tasks, beta, **params):
        """Served :func:`repro.sched.edf_delay.edf_structural_delays`."""
        return self._typed(
            "edf_structural_delays", tasks, beta, params=params
        )

    def analyze_many(self, tasks, beta, **params):
        """Served :func:`repro.core.facade.analyze_many`.

        Returns the list of
        :class:`~repro.core.facade.TaskAnalysisSummary` — equal (``==``)
        to a direct in-process call on the same inputs.
        """
        return self._typed("analyze_many", tasks, beta, params=params)

    def dag_rta(
        self,
        dag,
        m: int,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        max_paths: Optional[int] = None,
    ):
        """Served :func:`repro.mp.bounds.dag_rta` for one DAG task.

        Returns a :class:`~repro.mp.bounds.DagRtaResult`; with a budget
        that ran out the bound is *degraded but sound* (the Graham
        rung — check ``.degraded``) rather than an error.
        """
        params = {"max_paths": max_paths} if max_paths is not None else None
        return self._typed(
            "dag_rta",
            dag,
            m=m,
            deadline_ms=deadline_ms,
            max_expansions=max_expansions,
            params=params,
        )

    def global_fp_schedulable(self, dags, m: int, **params):
        """Served :func:`repro.mp.global_sched.global_fp_schedulable`."""
        return self._typed(
            "global_fp_schedulable", dags, m=m, params=params or None
        )

    def global_rm_schedulable(self, dags, m: int, **params):
        """Served :func:`repro.mp.global_sched.global_rm_schedulable`."""
        return self._typed(
            "global_rm_schedulable", dags, m=m, params=params or None
        )

    def whatif_sweep(self, task, beta, edits, **kwargs):
        """Served :func:`repro.whatif.engine.whatif_sweep` via
        ``POST /v1/whatif``.

        Returns the list of :class:`~repro.whatif.engine.WhatIfResult`
        — equal (``==``) to a direct in-process sweep on the same
        inputs (summaries are canonical; stats never cross the wire).
        """
        kind = "whatif_sweep"
        return self._decoded(
            kind,
            self._json(
                "POST",
                "/v1/whatif",
                self.build_request(kind, task, beta, edits=edits, **kwargs),
            ),
        )
