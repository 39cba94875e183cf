"""Kernel backend selection for the min-plus algebra.

Three backend names select how the min-plus operators — convolution,
deconvolution and horizontal deviation — run:

* ``"exact"`` — the historical pure-:class:`~fractions.Fraction` pairwise
  segment algorithms, bit-identical to every release before the kernel
  layer existed;
* ``"hybrid"`` — the same exact algorithms steered by the vectorized
  float64 screens of :mod:`repro.minplus.kernels`: curves are lowered
  once into packed breakpoint arrays with *outward rounding*, cheap
  certified interval arithmetic settles the overwhelming majority of
  comparisons/prunes, and the exact rational path runs only for the
  queries the float certificate cannot decide.  Hybrid results are
  therefore **identical** (same Fractions, same tie-breaking, same
  exceptions) to exact results — the screens never decide anything, they
  only *skip work whose outcome is already certified*;
* ``"auto"`` (the default) — per-call size dispatch: tiny operands of the
  ops where hybrid's per-call lowering never amortizes go ``exact``
  (:data:`EXACT_BELOW`), everything else goes ``hybrid``.  Since both
  candidates are bit-identical, the dispatch decision can only ever cost
  time, never correctness.

The structural DRT path (frontier domination, the delay, per-job and
backlog maximisations, the EDF sweep) has no float tier: it runs the
same exact rational code under every backend.

Resolution order for the active backend:

1. an explicit ``backend=`` keyword argument on the API entry point;
2. the innermost :func:`use_backend` context / :func:`set_backend` call;
3. the ``REPRO_BACKEND`` environment variable;
4. the default, ``"auto"`` when NumPy is importable, else ``"exact"``.

NumPy is optional: without it every resolution collapses to ``"exact"``
(requesting ``"hybrid"`` explicitly raises, so misconfiguration is loud;
``"auto"`` simply routes everything exact).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro import perf

__all__ = [
    "BACKENDS",
    "EXACT_BELOW",
    "HAVE_NUMPY",
    "get_backend",
    "resolve_backend",
    "op_backend",
    "set_backend",
    "use_backend",
]

BACKENDS = ("exact", "hybrid", "auto")

#: ``auto`` routes an op to ``"exact"`` strictly below this operand
#: segment count, to ``"hybrid"`` otherwise (ops not listed always go
#: hybrid).  The thresholds come from ``BENCH_minplus_kernels.json``:
#: at n=10 hybrid runs deconv at 0.98x and hdev at 0.75x of exact, and
#: both are comfortably above 1x by n=100; the cut-offs leave headroom
#: on the losing side.
EXACT_BELOW = {"deconv": 24, "hdev": 48}

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised only without numpy
    HAVE_NUMPY = False

#: Process-wide override installed by :func:`set_backend` (None = unset).
_override: Optional[str] = None

#: Interned ``dispatch.<op>.<tier>`` counter keys — :func:`op_backend`
#: sits on every operation, so it must not pay f-string formatting on a
#: hot tiny-curve loop.
_dispatch_keys: dict = {}


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    if name == "hybrid" and not HAVE_NUMPY:
        raise RuntimeError(
            f"backend {name!r} requires numpy, which is not importable"
        )
    return name


def get_backend() -> str:
    """The currently active backend name (no keyword argument in play)."""
    if _override is not None:
        return _override
    env = os.environ.get("REPRO_BACKEND")
    if env:
        if env not in BACKENDS:
            raise ValueError(
                f"REPRO_BACKEND={env!r} is not one of {', '.join(BACKENDS)}"
            )
        if env != "exact" and not HAVE_NUMPY:
            return "exact"
        return env
    return "auto" if HAVE_NUMPY else "exact"


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve an API-level ``backend=`` keyword to a concrete backend.

    ``None`` defers to :func:`get_backend`; an explicit name wins over
    every ambient setting.
    """
    if backend is None:
        return get_backend()
    return _validate(backend)


def op_backend(op: str, n: int, backend: Optional[str] = None) -> str:
    """The concrete tier (``"exact"``/``"hybrid"``) one operation runs on.

    Args:
        op: Operation name (``conv``/``deconv``/``hdev``).
        n: Operand size — the larger segment count of the two curves.
        backend: Optional API-level override, resolved like
            :func:`resolve_backend`.

    ``exact`` and ``hybrid`` pass through unchanged; ``auto`` applies the
    :data:`EXACT_BELOW` size threshold and counts its decision as
    ``dispatch.<op>.<tier>``.  Either answer yields bit-identical
    results, so this decision is purely a matter of speed.
    """
    mode = resolve_backend(backend)
    if mode == "exact" or not HAVE_NUMPY:
        return "exact"
    if mode != "auto":
        return "hybrid"
    choice = "exact" if n < EXACT_BELOW.get(op, 0) else "hybrid"
    key = _dispatch_keys.get((op, choice))
    if key is None:
        key = _dispatch_keys[(op, choice)] = f"dispatch.{op}.{choice}"
    perf.record(key)
    return choice


def set_backend(name: Optional[str]) -> None:
    """Install a process-wide backend override (``None`` clears it)."""
    global _override
    _override = None if name is None else _validate(name)


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Context manager scoping a backend override to a ``with`` block."""
    global _override
    prev = _override
    _override = _validate(name)
    try:
        yield
    finally:
        _override = prev
