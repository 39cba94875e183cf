"""Affinity routing keys for the cluster coordinator.

The whole point of the sharded tier is that a request lands on the
worker whose caches are already warm for its *content*.  The
coordinator routes on the wire form, without decoding it:
:func:`routing_digest` is :func:`repro.service.protocol.placement_key`,
SHA-256 over the canonical JSON (sorted keys, compact separators) of the
request's content fields ``kind``/``task``/``tasks``/``beta``/``m``.
Each request is then decoded once, on the worker that owns it, which
tags the cache entries it writes with the key it computed from the same
dict (:attr:`~repro.service.protocol.DecodedRequest.placement`), so a
resize re-homes entries by exactly the key the ring placed them by.

**Trade-off.**  Routing identity is canonical-JSON identity.  Key order,
whitespace and non-content fields (budgets, ``params``, ``perf``) do
not matter, but two spellings of the same content do: a hand-written
``"2/4"`` and a ``"1/2"``, or a rate-latency shorthand and the
equivalent segment list, route apart.  Each is still answered
correctly, and the result-cache keys stay content digests
(:func:`repro.parallel.cache.task_digest`, :meth:`Curve.digest`), so
at worst such a pair is computed once per worker.  Every encoder in the
project writes ``str(Fraction)`` (``task_to_dict``, ``curve_to_dict``,
``ServiceClient.build_request``, :mod:`repro.mp.io`), so all the
traffic it generates routes by exact content.  A spec the worker cannot
decode routes the same way: same broken spec, same worker, same typed
error.  The coordinator never validates.

Set kinds (``sp_schedulable`` / ``edf_structural_delays`` /
``analyze_many``) hash the whole ``tasks`` list: the verdicts are
whole-set artefacts, cached as such below, so the whole set routes as a
unit.  A ``whatif_sweep`` routes by base task + curve, and its *edits*
additionally get per-edit keys (:func:`whatif_edit_digest`) so the
coordinator can split one sweep across the fleet while every edit of
the same sweep from a later request still lands on its previous owner.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.service.protocol import placement_key

__all__ = ["routing_digest", "whatif_edit_digest"]


def routing_digest(spec: Any) -> str:
    """The consistent-hash routing key of one wire request.

    It is :func:`repro.service.protocol.placement_key` of *spec*."""
    return placement_key(spec)


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
    """No-op, kept importable: routing holds no memo since a key costs
    one canonical encode and one hash."""
