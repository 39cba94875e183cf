"""Exact min-plus convolution and deconvolution of ultimately-affine curves.

For ultimately-affine curves ``f`` (affine beyond ``T_f`` with rate ``r_f``)
and ``g`` (beyond ``T_g``, rate ``r_g``):

* ``(f (*) g)(t) = inf_{0<=s<=t} f(s) + g(t-s)`` is ultimately affine with
  rate ``min(r_f, r_g)`` — beyond ``T_f + T_g`` when the tail rates agree,
  and beyond the crossing of the two asymptotic affine families otherwise
  (see :func:`_ultimate_horizon`);
* ``(f (/) g)(t) = sup_{u>=0} f(t+u) - g(u)`` is finite iff ``r_f <= r_g``
  and is then ultimately affine beyond ``T_f`` with rate ``r_f``; the
  supremum is attained for ``u <= max(T_f, T_g)``.

Both reduce to envelopes of the closed affine pieces obtained from pairs of
segments; see :mod:`repro.minplus.envelope` for the dip policies.
"""

from __future__ import annotations

from typing import List

from repro._numeric import Q
from repro.errors import CurveError
from repro.minplus import backend as backend_mod
from repro.minplus import kernels
from repro.minplus.curve import Curve
from repro.minplus.envelope import Piece, envelope, envelope_to_segments
from repro.minplus.segment import Segment

__all__ = ["min_plus_conv", "min_plus_deconv"]


def _closed_segments(curve: Curve, cap: Q) -> List[Piece]:
    """The curve's segments as closed pieces, the tail clipped at *cap*."""
    pieces: List[Piece] = []
    starts = curve.breakpoints()
    for i, seg in enumerate(curve.segments):
        hi = starts[i + 1] if i + 1 < len(starts) else cap
        if seg.start > cap:
            break
        hi = min(hi, cap)
        pieces.append(Piece(seg.start, hi, seg.value, seg.slope))
    return pieces


def conv_point_value(f: Curve, g: Curve, t: Q) -> Q:
    """Exact ``inf { f(s) + g(t-s) : 0 <= s <= t }`` at one point.

    Along the constraint ``s + u = t`` the only admissible limits are
    one-sided *pairs*: when ``s`` approaches a breakpoint from the left,
    ``u`` approaches its counterpart from the right (taking the
    right-continuous value).  Within regions where both arguments stay on
    one affine piece the objective is affine in ``s``, so the infimum is
    attained at the region boundaries enumerated here.
    """
    candidates: List[Q] = []
    for s in f.breakpoints():
        if 0 <= s <= t:
            candidates.append(f.at(s) + g.at(t - s))
            if s > 0:
                candidates.append(f.left_limit(s) + g.at(t - s))
    for u in g.breakpoints():
        if 0 <= u <= t:
            candidates.append(f.at(t - u) + g.at(u))
            if u > 0:
                candidates.append(f.at(t - u) + g.left_limit(u))
    return min(candidates)


def _correct_breakpoints(
    segs: List[Segment],
    point_value,
    lower: bool,
    on_dip: str,
) -> List[Segment]:
    """Replace each segment's start value by the exact point value.

    Fixes the isolated *corner artefacts* of the closed-segment Minkowski
    construction (which pairs two left limits that the constraint
    ``s + u = t`` cannot realise simultaneously).  When the exact value
    disagrees in the *unsound* direction (an unattained extremum that
    right-continuous segments cannot represent), the dip policy applies:
    ``"fill"`` keeps the conservative segment value, ``"raise"`` errors.
    """
    out: List[Segment] = []
    for seg in segs:
        exact = point_value(seg.start)
        if exact == seg.value:
            out.append(seg)
        elif (exact > seg.value) == lower:
            # Corner artefact: the envelope under/over-shot at the point
            # in the direction the true extremum forbids; the exact value
            # is the right-continuous one.
            out.append(Segment(seg.start, exact, seg.slope))
        else:
            # Genuine unattained extremum at an isolated point.
            if on_dip == "raise":
                raise CurveError(
                    f"unattained extremum {exact} at t={seg.start} cannot "
                    "be represented by right-continuous segments"
                )
            out.append(seg)
    return out


def _transient_candidates(curve: Curve):
    """(position, value) pairs spanning the curve's transient: values and
    left limits at every breakpoint plus the value at the tail start."""
    out = []
    for t in curve.breakpoints():
        out.append((t, curve.at(t)))
        if t > 0:
            out.append((t, curve.left_limit(t)))
    return out


def _ultimate_horizon(f: Curve, g: Curve, lower: bool) -> Q:
    """Where ``f (*) g`` (resp. the max-plus dual) becomes truly affine.

    Beyond ``T_f + T_g`` the (de)composition is the min (resp. max) of two
    affine families: *f-transient + g-tail* (slope ``r_g``) and *f-tail +
    g-transient* (slope ``r_f``).  With distinct rates the slower (resp.
    steeper) line only takes over at their crossing, which can lie far
    beyond ``T_f + T_g`` — the returned horizon covers it.
    """
    h0 = f.last_breakpoint + g.last_breakpoint
    rf, rg = f.tail_rate, g.tail_rate
    if rf == rg:
        return h0
    pick = min if lower else max
    # Family A: s in f's transient, t - s in g's tail -> slope rg.
    c_a = pick(v - rg * s for s, v in _transient_candidates(f))
    c_a += g.at(g.last_breakpoint) - rg * g.last_breakpoint
    # Family B: u in g's transient, t - u in f's tail -> slope rf.
    c_b = pick(v - rf * u for u, v in _transient_candidates(g))
    c_b += f.at(f.last_breakpoint) - rf * f.last_breakpoint
    # Crossing of c_a + rg*t and c_b + rf*t.
    crossing = (c_a - c_b) / (rf - rg)
    return max(h0, crossing)


def min_plus_conv(f: Curve, g: Curve, on_dip: str = "fill") -> Curve:
    """Min-plus convolution ``f (*) g``.

    Args:
        f, g: Ultimately-affine curves.
        on_dip: Dip policy for isolated unattained infima (see
            :func:`~repro.minplus.envelope.envelope_to_segments`).  The
            default ``"fill"`` is sound when the result is used as an upper
            bound; continuous inputs never produce dips, so either policy
            is exact for service-curve composition.

    With NumPy this op always runs the hybrid tier (see
    :mod:`repro.minplus.backend`): it memoizes on curve fingerprints,
    prunes certifiably dominated segment pairs before the exact
    envelope, and screens the exact point evaluations; the resulting
    curve is identical to the exact tier's.
    """
    mode = backend_mod.op_backend(
        "conv", max(len(f.segments), len(g.segments))
    )
    hybrid = mode == "hybrid"
    if hybrid:
        memo_key = ("conv", f, g, on_dip)
        hit = kernels.OP_MEMO.get(memo_key)
        if hit is not None:
            return hit
    h0 = _ultimate_horizon(f, g, lower=True)
    tail_rate = min(f.tail_rate, g.tail_rate)
    if h0 == 0:
        # Both curves affine: conv(t) = f(0) + g(0) + min(rf, rg) * t.
        return Curve([Segment(Q(0), f.at(0) + g.at(0), tail_rate)])
    fp = _closed_segments(f, h0)
    gp = _closed_segments(g, h0)
    keep = None
    if hybrid and on_dip == "fill":
        # Sound domination pruning: dropped pairs provably never supply
        # the lower envelope, so the computed curve is unchanged.  (The
        # "raise" policy walks every piece's event points, so it keeps
        # the full pair set.)
        keep = kernels.conv_prune_mask(f, g, fp, gp, h0)
    pieces: List[Piece] = []
    for i, a in enumerate(fp):
        row = keep[i] if keep is not None else None
        for j, b in enumerate(gp):
            if row is not None and not row[j]:
                continue
            pieces.extend(_conv_pair(a, b, h0))
    env = envelope(pieces, lower=True)
    segs = envelope_to_segments(env, h0, on_dip="fill")
    if hybrid:
        def point_value(t, _f=f, _g=g):
            v = kernels.conv_point_value_screened(_f, _g, t)
            return v if v is not None else conv_point_value(_f, _g, t)
    else:
        point_value = lambda t: conv_point_value(f, g, t)
    # Exact affine tail beyond T_f + T_g; the joint value must be the
    # exact point evaluation (the envelope's left limit at h0 can differ
    # at an isolated point, and clipped tail pieces may be degenerate).
    segs = [s for s in segs if s.start < h0]
    segs.append(Segment(h0, point_value(h0), tail_rate))
    segs = _correct_breakpoints(segs, point_value, lower=True, on_dip=on_dip)
    result = Curve(segs)
    if on_dip == "raise":
        _verify_point_exactness(result, pieces, point_value, h0, lower=True)
    if hybrid:
        kernels.OP_MEMO.put(memo_key, result)
    return result


def _verify_point_exactness(
    result: Curve, pieces: List[Piece], point_value, cap: Q, lower: bool
) -> None:
    """For the strict policy: the represented curve must take the exact
    extremum value at every envelope event point (isolated unattained
    extrema inside segments are unrepresentable -> error)."""
    events = set()
    for p in pieces:
        if p.lo <= cap:
            events.add(p.lo)
        if p.hi <= cap:
            events.add(p.hi)
    for t in sorted(events):
        exact = point_value(t)
        cur = result.at(t)
        if (cur > exact) if lower else (cur < exact):
            raise CurveError(
                f"unattained extremum {exact} at t={t} cannot be "
                "represented by right-continuous segments"
            )


def _conv_pair(a: Piece, b: Piece, cap: Q) -> List[Piece]:
    """Pieces of ``inf { a(s) + b(u) : s + u = t }`` for one segment pair.

    The Minkowski sum of two affine pieces traverses the smaller-slope
    piece first: a convex two-slope function on ``[a.lo+b.lo, a.hi+b.hi]``.
    """
    lo = a.lo + b.lo
    if lo > cap:
        return []
    first, second = (a, b) if a.slope <= b.slope else (b, a)
    v0 = a.value + b.value
    mid = lo + (first.hi - first.lo)
    hi = mid + (second.hi - second.lo)
    out: List[Piece] = []
    p1 = Piece(lo, min(mid, cap), v0, first.slope).clipped(Q(0), cap)
    if p1 is not None:
        out.append(p1)
    if hi > mid and mid <= cap:
        v_mid = v0 + first.slope * (mid - lo)
        p2 = Piece(mid, min(hi, cap), v_mid, second.slope).clipped(Q(0), cap)
        if p2 is not None:
            out.append(p2)
    return out


def min_plus_deconv(f: Curve, g: Curve, on_dip: str = "raise") -> Curve:
    """Min-plus deconvolution ``f (/) g``.

    Args:
        f, g: Ultimately-affine curves.
        on_dip: Dip policy for isolated unattained suprema.

    The tier is picked by operand size (see
    :mod:`repro.minplus.backend`): tiny curves route to the exact path,
    whose fixed costs are lower; results are identical either way.

    Raises:
        CurveError: if ``f.tail_rate > g.tail_rate`` (the supremum is
            infinite), or on an unrepresentable isolated supremum with
            ``on_dip="raise"``.
    """
    if f.tail_rate > g.tail_rate:
        raise CurveError(
            "deconvolution diverges: long-run rate of f exceeds that of g "
            f"({f.tail_rate} > {g.tail_rate})"
        )
    mode = backend_mod.op_backend(
        "deconv", max(len(f.segments), len(g.segments))
    )
    hybrid = mode == "hybrid"
    if hybrid:
        memo_key = ("deconv", f, g, on_dip)
        hit = kernels.OP_MEMO.get(memo_key)
        if hit is not None:
            return hit
    u_max = max(f.last_breakpoint, g.last_breakpoint)
    t_max = f.last_breakpoint  # result is affine with rate r_f beyond T_f
    fp = _closed_segments(f, t_max + u_max + 1)
    gp = _closed_segments(g, u_max)
    keep = None
    if hybrid and on_dip == "fill":
        # Dual of the convolution pruning: dropped pairs provably stay
        # below the upper envelope everywhere ("raise" again needs the
        # full pair set for its event walk).
        keep = kernels.deconv_prune_mask(f, g, fp, gp, u_max, t_max)
    pieces: List[Piece] = []
    for i, a in enumerate(fp):
        row = keep[i] if keep is not None else None
        for j, b in enumerate(gp):
            if row is not None and not row[j]:
                continue
            pieces.extend(_deconv_pair(a, b, t_max))
    env = envelope(pieces, lower=False)
    segs = envelope_to_segments(env, t_max, on_dip="fill") if t_max > 0 else []
    if t_max == 0:
        # f affine: sup_u [f(0) + rf*(t+u) - g(u)] = f(t) + sup_u [rf*u - g(u)].
        boost = _sup_rate_minus(f.tail_rate, gp)
        return Curve([Segment(Q(0), f.at(0) + boost, f.tail_rate)])
    if hybrid:
        def point_value(t, _f=f, _g=g, _u=u_max):
            v = kernels.deconv_point_value_screened(_f, _g, t, _u)
            return v if v is not None else deconv_point_value(_f, _g, t, _u)
    else:
        point_value = lambda t: deconv_point_value(f, g, t, u_max)
    segs = [s for s in segs if s.start < t_max]
    segs.append(Segment(t_max, point_value(t_max), f.tail_rate))
    segs = _correct_breakpoints(segs, point_value, lower=False, on_dip=on_dip)
    result = Curve(segs)
    if on_dip == "raise":
        _verify_point_exactness(result, pieces, point_value, t_max, lower=False)
    if hybrid:
        kernels.OP_MEMO.put(memo_key, result)
    return result


def deconv_point_value(f: Curve, g: Curve, t: Q, u_max: Q) -> Q:
    """Exact ``sup { f(t+u) - g(u) : u >= 0 }`` at one point.

    Valid limit pairs move both arguments together (``u -> u0-`` takes
    both left limits); the supremum beyond ``u_max`` is nonincreasing,
    so the candidate set below is exhaustive.
    """
    candidates: List[Q] = []
    us = set()
    for u in g.breakpoints():
        if 0 <= u <= u_max:
            us.add(u)
    for bp in f.breakpoints():
        u = bp - t
        if 0 <= u <= u_max:
            us.add(u)
    us.add(Q(0))
    us.add(u_max)
    for u in us:
        candidates.append(f.at(t + u) - g.at(u))
        if u > 0:
            candidates.append(f.left_limit(t + u) - g.left_limit(u))
    return max(candidates)


def _sup_rate_minus(rate: Q, g_pieces: List[Piece]) -> Q:
    """``sup_u (rate*u - g(u))`` over the closed pieces of g."""
    best = None
    for p in g_pieces:
        for u in (p.lo, p.hi):
            v = rate * u - p.value_at(u)
            if best is None or v > best:
                best = v
    if best is None:
        raise CurveError("empty curve in deconvolution")
    return best


def _deconv_pair(a: Piece, b: Piece, cap: Q) -> List[Piece]:
    """Pieces of ``sup { a(t+u) - b(u) : u in [b.lo,b.hi], t+u in [a.lo,a.hi] }``.

    Within the cell the objective is affine in ``u`` with slope
    ``a.slope - b.slope``; the maximiser is therefore one of the moving
    interval endpoints, giving at most two affine pieces in ``t``.
    """
    t_lo = a.lo - b.hi
    t_hi = a.hi - b.lo
    if t_hi < 0 or t_lo > cap:
        return []
    out: List[Piece] = []

    def add(lo: Q, hi: Q, value_at_lo: Q, slope: Q) -> None:
        p = Piece(lo, hi, value_at_lo, slope).clipped(Q(0), cap)
        if p is not None:
            out.append(p)

    if a.slope >= b.slope:
        # Maximiser u* = min(b.hi, a.hi - t).
        # For t <= a.hi - b.hi: u* = b.hi -> phi(t) = a(t + b.hi) - b(b.hi).
        split = a.hi - b.hi
        if split >= t_lo:
            v = a.value_at(t_lo + b.hi) - b.value_at(b.hi)
            add(t_lo, split, v, a.slope)
        # For t >= split: u* = a.hi - t -> phi(t) = a(a.hi) - b(a.hi - t).
        lo2 = max(t_lo, split)
        if t_hi >= lo2:
            v = a.value_at(a.hi) - b.value_at(a.hi - lo2)
            add(lo2, t_hi, v, b.slope)
    else:
        # Maximiser u* = max(b.lo, a.lo - t).
        # For t <= a.lo - b.lo: u* = a.lo - t -> phi(t) = a(a.lo) - b(a.lo - t).
        split = a.lo - b.lo
        if split >= t_lo:
            v = a.value_at(a.lo) - b.value_at(a.lo - t_lo)
            add(t_lo, split, v, b.slope)
        # For t >= split: u* = b.lo -> phi(t) = a(t + b.lo) - b(b.lo).
        lo2 = max(t_lo, split)
        if t_hi >= lo2:
            v = a.value_at(lo2 + b.lo) - b.value_at(b.lo)
            add(lo2, t_hi, v, a.slope)
    return out


