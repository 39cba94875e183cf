"""Deterministic fault injection for the parallel engine and the cache.

Production resilience claims are only as good as their tests.  This
module plants *named fault sites* at the failure surfaces of the
parallel plane and the persistent result cache; a seeded configuration
decides, deterministically, which calls at which sites actually fail.
The chaos test-suite (``tests/test_chaos.py``) and the CI chaos job run
the real analyses under injection and assert every injected fault yields
a bit-identical result, a sound degraded bound, or a typed
:class:`~repro.errors.ReproError` — never a hang or a raw traceback.

**Sites** (see :data:`KNOWN_SITES`):

=====================  ====================================================
``worker.crash``       the worker process dies (``os._exit``) mid-job
``worker.hang``        the worker sleeps past any per-item timeout
``worker.pickle``      the job result cannot be pickled back to the parent
``cache.truncate``     a cache write persists only a prefix of the blob
``cache.corrupt``      a cache write flips a byte of the blob
``cache.enospc``       a cache write fails with ``ENOSPC`` (disk full)
``cache.eperm.read``   a cache read fails with ``EPERM``
``cache.eperm.write``  a cache write fails with ``EPERM``
``cluster.worker_crash``  the cluster coordinator's proxy connection to
                       the owning worker fails as if the worker died
                       mid-request (exercises ring ejection + bounded
                       retry-on-next-owner)
``cluster.partition``  the coordinator cannot reach the owning worker at
                       all (connect fails instantly) — a network
                       partition rather than a crashed process
``cluster.slow_worker``  the proxy hop to a worker stalls for
                       ``HANG_SECONDS`` before proceeding (gray failure:
                       the worker is alive but pathologically slow)
``cluster.migration_torn_write``  a migrated cache blob arrives
                       truncated, so the pull's digest verification
                       must catch it (exercises verify-and-retry)
``cluster.coordinator_crash``  the coordinator drops the client
                       connection mid-request without a response
                       (exercises client failover to a standby
                       coordinator via idempotent re-issue)
=====================  ====================================================

**Determinism.**  Every decision is a pure function of the seed, the
site name, and a *key*.  Call sites that have a natural identity (item
index + attempt number in the plane) pass it explicitly, so a retried
item draws a *different* decision than its first attempt — injected
crashes are transient, as real ones are.  Sites without a natural key
use a per-process, per-site call counter (deterministic for
single-process tests).

**Configuration.**  Off unless the ``REPRO_CHAOS`` environment variable
is set (or :func:`configure` / the :func:`scoped` test helper is used).
Spec grammar::

    REPRO_CHAOS="<seed>"                          # all sites, default p
    REPRO_CHAOS="seed=7,p=0.3"                    # all sites, p=0.3
    REPRO_CHAOS="seed=7,p=0.5,sites=worker.crash|cache.truncate"

Workers inherit the parent's chaos configuration through the plane's
per-job payload, exactly like the backend and cache configuration.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

__all__ = [
    "KNOWN_SITES",
    "configure",
    "current_config",
    "apply_config",
    "is_active",
    "should_fire",
    "scoped",
    "HANG_SECONDS",
]

KNOWN_SITES = frozenset(
    {
        "worker.crash",
        "worker.hang",
        "worker.pickle",
        "cache.truncate",
        "cache.corrupt",
        "cache.enospc",
        "cache.eperm.read",
        "cache.eperm.write",
        "cluster.worker_crash",
        "cluster.partition",
        "cluster.slow_worker",
        "cluster.migration_torn_write",
        "cluster.coordinator_crash",
    }
)

#: How long an injected hang sleeps.  Far beyond any per-item watchdog
#: by default, short enough that a leaked process exits on its own.
#: ``REPRO_CHAOS_HANG_S`` overrides it — full-suite chaos sweeps (the
#: CI chaos job) use a short hang so the sleeps stay a bounded tax
#: instead of dominating wall-clock, while dedicated watchdog tests
#: keep the long default.
HANG_SECONDS = float(os.environ.get("REPRO_CHAOS_HANG_S", "30.0"))

DEFAULT_PROBABILITY = 0.2

#: (seed, {site: probability}) or None when chaos is off.
_config: Optional[Tuple[int, Dict[str, float]]] = None
_resolved = False
#: Per-site call counters (the implicit key for unkeyed call sites).
_counters: Dict[str, int] = {}


def _parse_spec(spec: str) -> Tuple[int, Dict[str, float]]:
    seed: Optional[int] = None
    prob = DEFAULT_PROBABILITY
    sites = None
    for field in spec.split(","):
        field = field.strip()
        if not field:
            continue
        if "=" not in field:
            seed = int(field)
            continue
        key, _, value = field.partition("=")
        key = key.strip().lower()
        if key == "seed":
            seed = int(value)
        elif key == "p":
            prob = float(value)
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"chaos probability {prob} outside [0, 1]")
        elif key == "sites":
            sites = [s.strip() for s in value.split("|") if s.strip()]
            unknown = [s for s in sites if s not in KNOWN_SITES]
            if unknown:
                raise ValueError(f"unknown chaos sites {unknown}")
        else:
            raise ValueError(f"unknown chaos spec field {key!r}")
    if seed is None:
        raise ValueError(f"chaos spec {spec!r} does not name a seed")
    chosen = sites if sites is not None else sorted(KNOWN_SITES)
    return seed, {site: prob for site in chosen}


def configure(spec: Optional[str]) -> None:
    """Install a chaos configuration for this process (None = off)."""
    global _config, _resolved
    _resolved = True
    _counters.clear()
    _config = None if not spec else _parse_spec(spec)


def _ensure_resolved() -> None:
    global _resolved
    if _resolved:
        return
    configure(os.environ.get("REPRO_CHAOS"))


def current_config() -> Optional[Tuple[int, Dict[str, float]]]:
    """The resolved configuration, for shipping to worker processes."""
    _ensure_resolved()
    return _config


def apply_config(config: Optional[Tuple[int, Dict[str, float]]]) -> None:
    """Adopt a parent process's :func:`current_config` in a worker."""
    global _config, _resolved
    _resolved = True
    _counters.clear()
    _config = config


def is_active() -> bool:
    """True iff any site can fire in this process."""
    _ensure_resolved()
    return _config is not None


def _draw(seed: int, site: str, key: object) -> float:
    """Deterministic uniform draw in [0, 1) for (seed, site, key)."""
    digest = hashlib.sha256(f"{seed}|{site}|{key!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def should_fire(site: str, key: object = None) -> bool:
    """Decide whether the fault at *site* fires for this call.

    Args:
        site: A name from :data:`KNOWN_SITES`.
        key: Stable identity of this opportunity (e.g. ``(item, attempt)``).
            ``None`` uses a per-process, per-site call counter, so
            successive unkeyed calls still draw fresh decisions.
    """
    _ensure_resolved()
    if _config is None:
        return False
    assert site in KNOWN_SITES, f"unknown chaos site {site!r}"
    seed, sites = _config
    prob = sites.get(site)
    if prob is None:
        return False
    if key is None:
        count = _counters.get(site, 0)
        _counters[site] = count + 1
        key = count
    return _draw(seed, site, key) < prob


@contextmanager
def scoped(
    seed: int,
    sites: Optional[Dict[str, float]] = None,
    p: float = 1.0,
) -> Iterator[None]:
    """Test helper: enable chaos for the enclosed block, then restore.

    Args:
        seed: Chaos seed.
        sites: ``{site: probability}``; default is every known site at *p*.
        p: Probability used when *sites* is not given.
    """
    global _config, _resolved
    _ensure_resolved()
    saved_config, saved_counters = _config, dict(_counters)
    _counters.clear()
    chosen = (
        dict(sites)
        if sites is not None
        else {site: p for site in sorted(KNOWN_SITES)}
    )
    unknown = [s for s in chosen if s not in KNOWN_SITES]
    if unknown:
        raise ValueError(f"unknown chaos sites {unknown}")
    _config = (seed, chosen)
    try:
        yield
    finally:
        _config = saved_config
        _counters.clear()
        _counters.update(saved_counters)
