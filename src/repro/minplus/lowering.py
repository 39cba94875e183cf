"""A service curve lowered to the integer units of a request frontier.

The frontier counts time in units ``1/S`` and work in units ``1/W``
(:meth:`repro.drt.model.DRTTask.scales`).  :class:`IntService` answers
the two questions every reduction of the frontier against ``beta`` asks
on those ints, exactly, so every comparison and strict tie-break is the
one the ``Fraction`` values would make.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import inf, lcm
from typing import Optional

from repro.minplus.curve import Curve

__all__ = ["IntService"]


def _ceil(q: Fraction) -> int:
    return -(-q.numerator // q.denominator)


class IntService:
    """*beta* in time units ``1/S`` and work units ``1/W``.

    :meth:`inverse` mirrors the scan of
    :func:`~repro.minplus.deviation.lower_pseudo_inverse`, which answers
    ``w`` at the first segment that starts at or above it (at the
    segment start) or, with a positive slope, reaches it before its end
    (at the crossing).  Both conditions are downward closed in ``w``, so
    each segment answers every ``k`` up to one int threshold, and a
    bisect on the thresholds' prefix maxima finds the segment the scan
    stops at.

    Attributes:
        D: Denominator of :meth:`inverse`; ``time_unit = D // S``.
        E: Denominator of :meth:`value`; ``work_unit = E // W``.
        nondecreasing: ``beta.is_nondecreasing()``.
    """

    __slots__ = (
        "D", "E", "time_unit", "work_unit", "nondecreasing", "_reach",
        "_plateau", "_start", "_base", "_rate", "_from", "_vbase", "_vrate",
    )

    def __init__(self, beta: Curve, S: int, W: int) -> None:
        segs = beta.segments
        self.nondecreasing = beta.is_nondecreasing()
        # Inside a segment: beta^{-1}(k/W) = start - value/r + k/(W r).
        inside = [
            (s.start - s.value / s.slope, 1 / (W * s.slope))
            if s.slope > 0 else (Fraction(0), Fraction(0)) for s in segs
        ]
        self.D = D = lcm(S, *(s.start.denominator for s in segs),
                         *(q.denominator for pair in inside for q in pair))
        self.time_unit = D // S
        self._plateau = [s.value.numerator * W // s.value.denominator for s in segs]
        self._reach, reach = [], -inf
        ends = beta.breakpoints()[1:] + [None]
        for s, plateau, end in zip(segs, self._plateau, ends):
            if s.slope > 0:  # answered inside iff k/W < the end value
                plateau = inf if end is None else max(
                    plateau, _ceil((s.value + s.slope * (end - s.start)) * W) - 1
                )
            reach = max(reach, plateau)
            self._reach.append(reach)
        self._start = [int(s.start * D) for s in segs]
        self._base = [int(b * D) for b, _ in inside]
        self._rate = [int(m * D) for _, m in inside]
        # beta(t/S) = (value - slope * start) + (slope / S) * t.
        lines = [(s.value - s.slope * s.start, s.slope / S) for s in segs]
        self.E = E = lcm(W, *(q.denominator for pair in lines for q in pair))
        self.work_unit = E // W
        self._from = [_ceil(s.start * S) for s in segs]
        self._vbase = [int(a * E) for a, _ in lines]
        self._vrate = [int(b * E) for _, b in lines]

    def inverse(self, k: int) -> Optional[int]:
        """``beta^{-1}(k/W) * D``; None when *beta* never reaches ``k/W``."""
        i = bisect_left(self._reach, k)
        if i == len(self._reach):
            return None
        if k <= self._plateau[i]:
            return self._start[i]
        return self._base[i] + k * self._rate[i]

    def value(self, t: int) -> int:
        """``beta(t/S) * E`` for a time ``t >= 0``."""
        j = bisect_right(self._from, t) - 1
        return self._vbase[j] + t * self._vrate[j]
