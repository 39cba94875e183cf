"""Ultimately-affine piecewise-linear curves with exact rational arithmetic.

A :class:`Curve` is a total function ``f : [0, oo) -> Q`` given by a finite
sorted list of :class:`~repro.minplus.segment.Segment` objects.  Each
segment is valid on ``[start, next_start)``; the last one extends to
``+oo`` (the curve is *ultimately affine* with rate ``tail_rate``).
Curves are right-continuous; upward or downward jumps may occur at
breakpoints (the staircase request-bound functions of structural workload
are encoded as zero-slope segments with upward jumps).

Curves are immutable.  All operations return new, normalized curves.
"""

from __future__ import annotations

import bisect
import hashlib
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro._numeric import Q, NumLike, as_q
from repro.errors import CurveDomainError, EmptyCurveError
from repro.minplus.segment import Segment

__all__ = ["Curve"]


class Curve:
    """An ultimately-affine piecewise-linear function on ``[0, oo)``.

    Args:
        segments: Affine pieces with strictly increasing ``start`` values;
            the first must start at 0.  Redundant pieces (collinear
            continuations) are merged automatically.

    Raises:
        EmptyCurveError: if *segments* is empty.
        CurveDomainError: if the first segment does not start at 0 or the
            starts are not strictly increasing.
    """

    __slots__ = ("_segments", "_starts", "_fp", "_digest", "_lowered")

    def __init__(self, segments: Iterable[Segment]):
        segs = _normalize(list(segments))
        if not segs:
            raise EmptyCurveError("a curve needs at least one segment")
        if segs[0].start != 0:
            raise CurveDomainError(
                f"curve domain must start at 0, got {segs[0].start}"
            )
        self._segments: Tuple[Segment, ...] = tuple(segs)
        self._starts: List[Q] = [s.start for s in segs]
        self._fp: Optional[int] = None
        self._digest: Optional[str] = None
        self._lowered = None  # hybrid-tier lowering cache (see kernels.py)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The normalized affine pieces of this curve."""
        return self._segments

    @property
    def tail(self) -> Segment:
        """The last (infinite) segment."""
        return self._segments[-1]

    @property
    def tail_rate(self) -> Fraction:
        """The long-run growth rate (slope of the infinite tail)."""
        return self._segments[-1].slope

    @property
    def last_breakpoint(self) -> Fraction:
        """Start of the infinite tail; the curve is affine beyond it."""
        return self._segments[-1].start

    def breakpoints(self) -> List[Fraction]:
        """Strictly increasing list of segment start points."""
        return list(self._starts)

    def _segment_index_at(self, t: Q) -> int:
        """Index of the segment whose half-open domain contains *t*."""
        return bisect.bisect_right(self._starts, t) - 1

    def at(self, t: NumLike) -> Fraction:
        """Value ``f(t)`` (right-continuous convention)."""
        tq = as_q(t)
        if tq < 0:
            raise CurveDomainError(f"curve evaluated at negative time {tq}")
        return self._segments[self._segment_index_at(tq)].value_at(tq)

    def __call__(self, t: NumLike) -> Fraction:
        return self.at(t)

    def left_limit(self, t: NumLike) -> Fraction:
        """Left limit ``f(t-)`` for ``t > 0``."""
        tq = as_q(t)
        if tq <= 0:
            raise CurveDomainError("left limit requires t > 0")
        idx = bisect.bisect_left(self._starts, tq) - 1
        if idx < 0:
            idx = 0
        return self._segments[idx].value_at(tq)

    def jump_at(self, t: NumLike) -> Fraction:
        """Size of the jump ``f(t) - f(t-)`` at *t* (0 if continuous)."""
        tq = as_q(t)
        if tq == 0:
            return Q(0)
        return self.at(tq) - self.left_limit(tq)

    def is_continuous(self) -> bool:
        """True iff the curve has no jump at any breakpoint."""
        return all(self.jump_at(t) == 0 for t in self._starts[1:])

    def is_nondecreasing(self) -> bool:
        """True iff the curve never decreases (slopes and jumps >= 0)."""
        if any(s.slope < 0 for s in self._segments):
            return False
        return all(self.jump_at(t) >= 0 for t in self._starts[1:])

    def is_nonnegative(self) -> bool:
        """True iff ``f(t) >= 0`` for every ``t >= 0``."""
        return self.inf_on(0, self.last_breakpoint) >= 0 and self.tail_rate >= 0

    def sup_on(self, a: NumLike, b: NumLike) -> Fraction:
        """Supremum of the curve on the closed interval ``[a, b]``.

        Jumps are taken into account: both the value and the left limit at
        interior breakpoints are candidates, so the result is the true
        supremum of the right-continuous function's closure on ``[a, b]``.
        """
        return self._extremum_on(a, b, max)

    def inf_on(self, a: NumLike, b: NumLike) -> Fraction:
        """Infimum of the curve on the closed interval ``[a, b]``."""
        return self._extremum_on(a, b, min)

    def _extremum_on(self, a: NumLike, b: NumLike, pick: Callable) -> Fraction:
        aq, bq = as_q(a), as_q(b)
        if aq < 0 or bq < aq:
            raise CurveDomainError(f"invalid interval [{aq}, {bq}]")
        candidates = [self.at(aq), self.at(bq)]
        if bq > aq:
            candidates.append(self.left_limit(bq))
        lo = bisect.bisect_right(self._starts, aq)
        hi = bisect.bisect_left(self._starts, bq)
        for t in self._starts[lo:hi]:
            candidates.append(self.at(t))
            if t > 0:
                candidates.append(self.left_limit(t))
        return pick(candidates)

    def sample(self, times: Iterable[NumLike]) -> List[Fraction]:
        """Values of the curve at each time in *times*."""
        return [self.at(t) for t in times]

    # ------------------------------------------------------------------
    # Pointwise arithmetic
    # ------------------------------------------------------------------

    def _aligned(self, other: "Curve") -> List[Q]:
        grid = sorted(set(self._starts) | set(other._starts))
        return grid

    def _combine(self, other: "Curve", op: Callable[[Q, Q], Q]) -> "Curve":
        """Pointwise combination where pieces never need splitting (+, -)."""
        segs = []
        for t in self._aligned(other):
            fa = self.at(t)
            ga = other.at(t)
            sa = self._segments[self._segment_index_at(t)].slope
            sb = other._segments[other._segment_index_at(t)].slope
            segs.append(Segment(t, op(fa, ga), op_slope(op, sa, sb)))
        return Curve(segs)

    def __add__(self, other: "Curve") -> "Curve":
        if not isinstance(other, Curve):
            return NotImplemented
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "Curve") -> "Curve":
        if not isinstance(other, Curve):
            return NotImplemented
        return self._combine(other, lambda a, b: a - b)

    def __neg__(self) -> "Curve":
        return Curve(Segment(s.start, -s.value, -s.slope) for s in self._segments)

    def scale(self, factor: NumLike) -> "Curve":
        """Pointwise multiplication by a constant factor."""
        f = as_q(factor)
        return Curve(s.scaled(f) for s in self._segments)

    def vshift(self, dv: NumLike) -> "Curve":
        """The curve ``f(t) + dv``."""
        d = as_q(dv)
        return Curve(Segment(s.start, s.value + d, s.slope) for s in self._segments)

    def advance(self, dt: NumLike) -> "Curve":
        """The curve advanced by *dt*: ``g(t) = f(t + dt)``.

        The left counterpart of :meth:`hshift`; used e.g. to delay-shift
        request bounds into departure bounds.
        """
        d = as_q(dt)
        if d < 0:
            raise CurveDomainError("advance requires dt >= 0")
        if d == 0:
            return self
        idx = self._segment_index_at(d)
        carrier = self._segments[idx]
        segs = [Segment(Q(0), self.at(d), carrier.slope)]
        segs.extend(
            Segment(s.start - d, s.value, s.slope)
            for s in self._segments[idx + 1 :]
        )
        return Curve(segs)

    def hshift(self, dt: NumLike, fill: NumLike = 0) -> "Curve":
        """The curve delayed by *dt*: ``g(t) = f(t - dt)`` for ``t >= dt``.

        On ``[0, dt)`` the result is the constant *fill* (default 0).  With
        ``fill=0`` this is the effect of min-plus convolution with the
        burst-delay function used to delay arrival or service curves.
        """
        d = as_q(dt)
        if d < 0:
            raise CurveDomainError("hshift requires dt >= 0")
        if d == 0:
            return self
        segs = [Segment(Q(0), as_q(fill), Q(0))]
        segs.extend(s.shifted(d) for s in self._segments)
        return Curve(segs)

    # ------------------------------------------------------------------
    # Pointwise min / max (with crossing splits)
    # ------------------------------------------------------------------

    def minimum(self, other: "Curve") -> "Curve":
        """Pointwise minimum ``min(f, g)``."""
        return self._envelope(other, lower=True)

    def maximum(self, other: "Curve") -> "Curve":
        """Pointwise maximum ``max(f, g)``."""
        return self._envelope(other, lower=False)

    def _envelope(self, other: "Curve", lower: bool) -> "Curve":
        grid = self._aligned(other)
        segs: List[Segment] = []
        for i, t in enumerate(grid):
            end = grid[i + 1] if i + 1 < len(grid) else None
            fa, ga = self.at(t), other.at(t)
            sa = self._segments[self._segment_index_at(t)].slope
            sb = other._segments[other._segment_index_at(t)].slope
            first_is_f = (fa < ga) or (fa == ga and sa <= sb)
            if not lower:
                first_is_f = (fa > ga) or (fa == ga and sa >= sb)
            if first_is_f:
                v0, s0, v1, s1 = fa, sa, ga, sb
            else:
                v0, s0, v1, s1 = ga, sb, fa, sa
            segs.append(Segment(t, v0, s0))
            # Crossing strictly inside the interval flips the winner.
            if v0 != v1 or s0 != s1:
                if s0 != s1:
                    x = t + (v1 - v0) / (s0 - s1)
                    inside = x > t and (end is None or x < end)
                    crossing_matters = (s0 > s1) if lower else (s0 < s1)
                    if inside and crossing_matters:
                        segs.append(Segment(x, v1 + s1 * (x - t), s1))
        return Curve(segs)

    def nonneg(self) -> "Curve":
        """Pointwise maximum with the zero curve (``[f]^+``)."""
        zero = Curve([Segment(Q(0), Q(0), Q(0))])
        return self.maximum(zero)

    # ------------------------------------------------------------------
    # Monotone closures
    # ------------------------------------------------------------------

    def running_max(self) -> "Curve":
        """The nondecreasing upper closure ``g(t) = sup_{0<=s<=t} f(s)``."""
        segs: List[Segment] = []
        best = None
        for i, seg in enumerate(self._segments):
            end = self._starts[i + 1] if i + 1 < len(self._segments) else None
            v0 = seg.value
            if best is None:
                best = v0
            if v0 >= best:
                # Segment starts at or above the running max.
                if seg.slope >= 0:
                    segs.append(seg)
                    best = seg.value_at(end) if end is not None else None
                    if best is None:
                        return Curve(_normalize(segs))
                else:
                    # Rises then the plateau takes over immediately.
                    segs.append(Segment(seg.start, v0, Q(0)))
                    best = v0
            else:
                # Below the running max: plateau until (maybe) crossing.
                segs.append(Segment(seg.start, best, Q(0)))
                if seg.slope > 0:
                    x = seg.start + (best - v0) / seg.slope
                    if end is None or x < end:
                        segs.append(Segment(x, best, seg.slope))
                        best = seg.value_at(end) if end is not None else None
                        if best is None:
                            return Curve(_normalize(segs))
                    else:
                        best = max(best, seg.value_at(end))
                elif end is not None:
                    best = max(best, seg.value_at(end))
        if self.tail_rate < 0 and segs and segs[-1].slope < 0:  # pragma: no cover
            raise AssertionError("running_max produced a decreasing tail")
        return Curve(_normalize(segs))

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def fingerprint(self) -> int:
        """Structural hash of the normalized segment tuple (cached).

        Hashes the raw ``(numerator, denominator)`` integer pairs of every
        segment coefficient once, then reuses the value forever (curves
        are immutable) — so dict-keyed analysis caches stop re-hashing
        full :class:`~fractions.Fraction` tuples on every lookup.
        """
        fp = self._fp
        if fp is None:
            fp = hash(
                tuple(
                    (
                        s.start.numerator,
                        s.start.denominator,
                        s.value.numerator,
                        s.value.denominator,
                        s.slope.numerator,
                        s.slope.denominator,
                    )
                    for s in self._segments
                )
            )
            self._fp = fp
        return fp

    def digest(self) -> str:
        """Stable hex content digest of the normalized segments (cached).

        Unlike :meth:`fingerprint` — a Python ``hash`` meant for
        in-process dict keys — the digest is a SHA-256 over the exact
        decimal encoding of every coordinate, so it is stable across
        processes, Python versions and hash seeds.  It is what the
        persistent result cache (:mod:`repro.parallel.cache`) keys disk
        entries by.
        """
        dg = self._digest
        if dg is None:
            h = hashlib.sha256()
            for s in self._segments:
                h.update(f"{s.start}|{s.value}|{s.slope};".encode("ascii"))
            dg = h.hexdigest()
            self._digest = dg
        return dg

    def __reduce__(self):
        """Pickle as the bare segment tuple.  Derived state (``_fp``,
        ``_digest``, ``_lowered``) is rebuilt on demand; a copy shares
        the original's lowered arrays through the ``kernel.lowered``
        memo, which keys on fingerprint and segments, not identity."""
        return (Curve, (self._segments,))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        if self is other:
            return True
        if self.fingerprint() != other.fingerprint():
            return False
        return self._segments == other._segments

    def __hash__(self) -> int:
        return self.fingerprint()

    def __repr__(self) -> str:
        pieces = ", ".join(
            f"({s.start}; {s.value}; {s.slope})" for s in self._segments[:6]
        )
        suffix = ", ..." if len(self._segments) > 6 else ""
        return f"Curve[{pieces}{suffix}]"

    def describe(self) -> str:
        """Multi-line human-readable description (for examples / CLI)."""
        lines = []
        for i, s in enumerate(self._segments):
            end = self._starts[i + 1] if i + 1 < len(self._segments) else "oo"
            lines.append(
                f"  [{s.start}, {end}): f(t) = {s.value} + {s.slope}*(t - {s.start})"
            )
        return "\n".join(lines)


def op_slope(op: Callable[[Q, Q], Q], sa: Q, sb: Q) -> Q:
    """Slope of the combined segment for linear ops (add/sub)."""
    return op(sa, sb)


def _normalize(segments: List[Segment]) -> List[Segment]:
    """Sort, validate strict ordering, and merge collinear continuations."""
    segments = sorted(segments, key=lambda s: s.start)
    for a, b in zip(segments, segments[1:]):
        if a.start == b.start:
            raise CurveDomainError(f"duplicate segment start at {a.start}")
    merged: List[Segment] = []
    for seg in segments:
        if merged:
            prev = merged[-1]
            continuous = prev.value_at(seg.start) == seg.value
            if continuous and prev.slope == seg.slope:
                continue
        merged.append(seg)
    return merged
