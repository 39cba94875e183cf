"""Digest-affinity routing keys for the cluster coordinator.

The whole point of the sharded tier is that a request lands on the
worker whose caches are already warm for its *content*.  Every cache
layer below the service keys on content digests — the persistent result
cache on :func:`repro.parallel.cache.task_digest` (itself composed from
the per-vertex/per-edge digests of :mod:`repro.drt.digest`) plus
:meth:`Curve.digest` for the service curve, shared lowered arrays on
the curve's fingerprint and segments, and what-if sessions on the base
task's digest.  The coordinator therefore computes its routing key from the
*same* digests: two wire requests about the same task and curve map to
the same key — regardless of JSON key order, formatting, or which
client sent them — and the consistent-hash ring pins that key to one
worker.

Set kinds (``sp_schedulable`` / ``edf_structural_delays`` /
``analyze_many``) hash the ordered task-digest list: the verdicts are
whole-set artefacts, cached as such below, so the whole set routes as a
unit.  A ``whatif_sweep`` routes by base task + curve, and its *edits*
additionally get per-edit keys (:func:`whatif_edit_digest`) so the
coordinator can split one sweep across the fleet while every edit of
the same sweep from a later request still lands on its previous owner.

Wire specs that fail to decode get a *fallback* key hashed from their
canonical JSON: still deterministic (same broken spec → same worker →
same typed error), just without content identification.  The owning
worker produces the authoritative typed error; the coordinator never
validates.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from repro import perf
from repro._memo import process_memo

__all__ = ["routing_digest", "whatif_edit_digest"]

#: Routing-key memo (canonical spec JSON -> digest).  Sized for steady
#: request mixes; eviction only costs a re-decode.
_MEMO = process_memo("cluster.route_memo", 4096)


def _canonical(spec: Dict[str, Any]) -> str:
    """Canonical JSON of the content-bearing fields of a wire spec.

    Only ``kind``/``task``/``tasks``/``beta``/``m`` shape the routing
    key: budgets, params and perf flags do not change which caches
    serve the request, and routing on them would scatter reruns of the
    same analysis across the fleet.  ``m`` is content for the
    multiprocessor kinds — the same DAG on a different processor count
    is a different verdict.
    """
    content = {
        key: spec.get(key) for key in ("kind", "task", "tasks", "beta", "m")
    }
    return json.dumps(content, sort_keys=True, separators=(",", ":"))


def _content_digest(spec: Dict[str, Any]) -> str:
    """The :func:`repro.service.protocol.placement_key` of one decodable
    wire spec (raises if not).

    Tasks decode with ``validate=False``: the digest needs their
    content, not a verdict on it, and the owning worker validates.
    """
    from repro.io.json_io import task_from_dict
    from repro.parallel.cache import task_digest
    from repro.service import protocol

    kind = str(spec.get("kind"))
    kspec = protocol.KIND_REGISTRY.get(kind)
    beta = m = None
    if kspec is None or kspec.needs_beta:
        beta = protocol.decode_beta(spec.get("beta")).digest()
    if kspec is not None and kspec.needs_m:
        m = protocol.decode_m(spec.get("m"))
    loader = task_from_dict
    if kspec is not None and kspec.model == "dag":
        from repro.mp.io import dag_from_dict

        loader = dag_from_dict
    tasks = spec.get("tasks") if spec.get("task") is None else [spec["task"]]
    if tasks is None:
        raise ValueError("spec names neither 'task' nor 'tasks'")
    return protocol.placement_key(
        kind, beta, m, [task_digest(loader(t, validate=False)) for t in tasks]
    )


def routing_digest(spec: Any) -> str:
    """The consistent-hash routing key of one wire request.

    Pure function of the request's analysis content; memoized on the
    canonical JSON so the steady-state hot path never re-decodes tasks.
    """
    if not isinstance(spec, dict):
        blob = json.dumps(spec, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
    key = _canonical(spec)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    try:
        digest = _content_digest(spec)
    except Exception:  # noqa: BLE001 - undecodable routes by its JSON
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        perf.record("cluster.route_fallbacks")
    _MEMO.put(key, digest)
    return digest


def whatif_edit_digest(base_digest: str, edit_spec: Any) -> str:
    """Per-edit routing key of one ``whatif_sweep`` entry.

    Derived from the sweep's base routing digest plus the edit's
    canonical wire form, so a re-submitted edit of the same base model
    returns to the worker holding that base's warm what-if state, while
    distinct edits of one sweep spread over the fleet.
    """
    blob = json.dumps(
        edit_spec, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(
        f"{base_digest}\x1f{blob}".encode("utf-8")
    ).hexdigest()


def memo_clear() -> None:
    """Drop the routing memo (tests, per-job cache isolation)."""
    _MEMO.clear()
