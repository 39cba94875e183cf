"""Kernel tier selection for the min-plus algebra.

The min-plus operators — convolution, deconvolution and horizontal
deviation — have two implementations:

* ``"exact"`` — the pure-:class:`~fractions.Fraction` pairwise segment
  algorithms;
* ``"hybrid"`` — the same exact algorithms steered by the vectorized
  float64 screens of :mod:`repro.minplus.kernels`: curves are lowered
  once into packed breakpoint arrays with *outward rounding*, cheap
  certified interval arithmetic settles most comparisons/prunes, and the
  exact rational path runs only for the queries the float certificate
  cannot decide.  Hybrid results are therefore **identical** (same
  Fractions, same tie-breaking, same exceptions) to exact results — the
  screens never decide anything, they only *skip work whose outcome is
  already certified*.

:func:`op_backend` is the one selector: tiny operands of the ops where
hybrid's per-call lowering never amortizes run ``exact``
(:data:`EXACT_BELOW`), everything else runs ``hybrid``, and without
NumPy everything runs ``exact``.  Since both tiers are bit-identical, the
choice can only ever cost time, never correctness, so it is not a
user-settable option.  :func:`_force` pins one tier for a ``with`` block;
it exists so tests and the kernel micro-benchmark can drive both tiers
on the same operands.

The structural DRT path (frontier domination, the delay, per-job and
backlog maximisations, the EDF sweep) has no float tier at all.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro import perf

__all__ = ["EXACT_BELOW", "HAVE_NUMPY", "op_backend"]

#: Operations route to ``"exact"`` strictly below this operand segment
#: count, to ``"hybrid"`` otherwise (ops not listed always go hybrid).
#: The thresholds come from ``BENCH_minplus_kernels.json``: at n=10
#: hybrid runs deconv at 0.98x and hdev at 0.75x of exact, and both are
#: comfortably above 1x by n=100; the cut-offs leave headroom on the
#: losing side.
EXACT_BELOW = {"deconv": 24, "hdev": 48}

try:  # NumPy is an optional accelerator, never a hard dependency.
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised only without numpy
    HAVE_NUMPY = False

#: Tier pinned by :func:`_force` (None = size dispatch).
_forced: Optional[str] = None

#: Interned ``dispatch.<op>.<tier>`` counter keys — :func:`op_backend`
#: sits on every operation, so it must not pay f-string formatting on a
#: hot tiny-curve loop.
_dispatch_keys: dict = {}


def op_backend(op: str, n: int) -> str:
    """The tier (``"exact"``/``"hybrid"``) one operation runs on.

    Args:
        op: Operation name (``conv``/``deconv``/``hdev``).
        n: Operand size — the larger segment count of the two curves.

    Applies the :data:`EXACT_BELOW` size threshold and counts its
    decision as ``dispatch.<op>.<tier>``.  Either answer yields
    bit-identical results, so this decision is purely a matter of speed.
    """
    if _forced is not None:
        return _forced
    if not HAVE_NUMPY:
        return "exact"
    choice = "exact" if n < EXACT_BELOW.get(op, 0) else "hybrid"
    key = _dispatch_keys.get((op, choice))
    if key is None:
        key = _dispatch_keys[(op, choice)] = f"dispatch.{op}.{choice}"
    perf.record(key)
    return choice


@contextmanager
def _force(tier: str) -> Iterator[None]:
    """Pin every operation in a ``with`` block to one tier (tests and
    the kernel micro-benchmark only)."""
    global _forced
    if tier not in ("exact", "hybrid"):
        raise ValueError(f"unknown tier {tier!r}")
    if tier == "hybrid" and not HAVE_NUMPY:
        raise RuntimeError("the hybrid tier requires numpy")
    prev = _forced
    _forced = tier
    try:
        yield
    finally:
        _forced = prev
