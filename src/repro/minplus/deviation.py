"""Deviations, pseudo-inverses and crossings of curves.

The horizontal deviation between an arrival/request curve and a service
curve is the classical worst-case delay bound of real-time calculus; the
vertical deviation bounds the backlog; the first crossing of a request
bound function under a service curve bounds the busy window.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro import perf
from repro._numeric import INF, Q, is_inf
from repro.errors import CurveError
from repro.minplus.curve import Curve
from repro.resilience.budget import checkpoint

__all__ = [
    "lower_pseudo_inverse",
    "lower_pseudo_inverse_batch",
    "upper_pseudo_inverse",
    "upper_pseudo_inverse_batch",
    "horizontal_deviation",
    "vertical_deviation",
    "first_crossing",
]

MaybeInf = Union[Q, type(INF)]


def lower_pseudo_inverse(f: Curve, w) -> MaybeInf:
    """``inf { t >= 0 : f(t) >= w }`` for a nondecreasing curve *f*.

    Returns :data:`~repro._numeric.INF` when *f* never reaches *w*.
    With the right-continuous convention the infimum, when finite, is
    attained: ``f(result) >= w``.
    """
    from repro._numeric import as_q

    wq = as_q(w)
    perf.record("pinv.evaluations")
    starts = f.breakpoints()
    for i, seg in enumerate(f.segments):
        if seg.value >= wq:
            return seg.start
        end = starts[i + 1] if i + 1 < len(starts) else None
        if seg.slope > 0:
            t = seg.start + (wq - seg.value) / seg.slope
            if end is None or t < end:
                return t
    return INF


def lower_pseudo_inverse_batch(f: Curve, works: Sequence) -> List[MaybeInf]:
    """:func:`lower_pseudo_inverse` of *f* at every value in *works*.

    One sweep over the segments of *f* instead of one per query —
    ``O(k log k + n)`` for ``k`` queries on ``n`` segments, against
    ``O(k * n)`` for the scalar loop.  The delay analyses call this with
    every request tuple's work at once.

    The sweep is bit-identical to the scalar function: a segment answers
    a query ``w`` either at its start (``w <= value``, the plateau/jump
    case) or inside it (``slope > 0`` and ``w`` below the segment-end
    value).  Both conditions are downward closed in ``w``, so walking the
    queries in ascending order lets each segment consume exactly the
    prefix of still-unanswered queries it is the first to satisfy — the
    same segment the scalar scan would stop at, even for curves that are
    not nondecreasing.

    Args:
        f: The curve to invert (typically a lower service curve).
        works: Query values, in any order.

    Returns:
        Results in the order of *works*; :data:`INF` where *f* never
        reaches the value.
    """
    from repro._numeric import as_q

    ws = [as_q(w) for w in works]
    perf.record("pinv.evaluations", len(ws))
    perf.record("pinv.batches")
    # Amortised budget charge for the whole sweep (queries + segments).
    checkpoint(1 + (len(ws) + len(f.segments)) // 64)
    order = sorted(range(len(ws)), key=lambda i: ws[i])
    out: List[MaybeInf] = [INF] * len(ws)
    starts = f.breakpoints()
    j, n = 0, len(ws)
    for i, seg in enumerate(f.segments):
        if j >= n:
            break
        while j < n and ws[order[j]] <= seg.value:
            out[order[j]] = seg.start
            j += 1
        if seg.slope > 0:
            end = starts[i + 1] if i + 1 < len(starts) else None
            v_end = seg.value_at(end) if end is not None else None
            while j < n and (v_end is None or ws[order[j]] < v_end):
                wq = ws[order[j]]
                out[order[j]] = seg.start + (wq - seg.value) / seg.slope
                j += 1
    return out


def upper_pseudo_inverse_batch(f: Curve, works: Sequence) -> List[MaybeInf]:
    """:func:`upper_pseudo_inverse` of *f* at every value in *works*.

    Same single-sweep construction as :func:`lower_pseudo_inverse_batch`
    with the strict comparisons of the upper pseudo-inverse; bit-identical
    to the scalar function on every query.
    """
    from repro._numeric import as_q

    ws = [as_q(w) for w in works]
    checkpoint(1 + (len(ws) + len(f.segments)) // 64)
    order = sorted(range(len(ws)), key=lambda i: ws[i])
    out: List[MaybeInf] = [INF] * len(ws)
    starts = f.breakpoints()
    j, n = 0, len(ws)
    for i, seg in enumerate(f.segments):
        if j >= n:
            break
        while j < n and ws[order[j]] < seg.value:
            out[order[j]] = seg.start
            j += 1
        if seg.slope > 0:
            end = starts[i + 1] if i + 1 < len(starts) else None
            v_end = seg.value_at(end) if end is not None else None
            while j < n and (v_end is None or ws[order[j]] < v_end):
                wq = ws[order[j]]
                t = seg.start + (wq - seg.value) / seg.slope
                out[order[j]] = seg.start if t < seg.start else t
                j += 1
    return out


def upper_pseudo_inverse(f: Curve, w) -> MaybeInf:
    """``inf { t >= 0 : f(t) > w }`` for a nondecreasing curve *f*.

    Strictly-greater variant of :func:`lower_pseudo_inverse`; the two
    differ exactly where *f* has a plateau at value *w*.  Returns
    :data:`INF` when *f* never exceeds *w*.
    """
    from repro._numeric import as_q

    wq = as_q(w)
    starts = f.breakpoints()
    for i, seg in enumerate(f.segments):
        if seg.value > wq:
            return seg.start
        end = starts[i + 1] if i + 1 < len(starts) else None
        if seg.slope > 0:
            v_end = seg.value_at(end) if end is not None else None
            if v_end is None or v_end > wq:
                # Crosses (or starts at) w inside this segment; f exceeds
                # w immediately after the crossing point.
                t = seg.start + (wq - seg.value) / seg.slope
                if t < seg.start:
                    return seg.start
                if end is None or t < end:
                    return t
    return INF


def first_crossing(f: Curve, g: Curve, start=0) -> Optional[Q]:
    """Smallest ``t >= start`` with ``f(t) <= g(t)``, or None if never.

    Used for busy-window bounds: the busy window of workload *f* on
    service *g* ends at the first time the accumulated service catches up
    with the accumulated requests.
    """
    from repro._numeric import as_q

    t0 = as_q(start)
    diff = f - g
    starts = diff.breakpoints()
    for i, seg in enumerate(diff.segments):
        end = starts[i + 1] if i + 1 < len(starts) else None
        lo = max(seg.start, t0)
        if end is not None and lo >= end:
            continue
        if seg.value_at(lo) <= 0:
            return lo
        if seg.slope < 0:
            x = seg.start + (0 - seg.value) / seg.slope
            if x >= lo and (end is None or x < end):
                return x
    return None


def vertical_deviation(f: Curve, g: Curve) -> MaybeInf:
    """``sup_{t>=0} (f(t) - g(t))`` — the backlog bound.

    Returns :data:`INF` when the difference grows without bound.
    """
    diff = f - g
    if diff.tail_rate > 0:
        return INF
    horizon = diff.last_breakpoint
    return diff.sup_on(0, horizon)


def horizontal_deviation(f: Curve, g: Curve) -> MaybeInf:
    """``sup_t inf { d >= 0 : f(t) <= g(t + d) }`` — the delay bound.

    *f* plays the role of an upper request/arrival curve and *g* of a
    lower service curve; both must be nondecreasing.  Returns
    :data:`INF` when *f* outgrows *g* (long-run overload).

    The supremum of ``h(t) = [g^{-1}(f(t)) - t]^+`` is taken over the
    finitely many candidate times where ``h`` can change slope: the
    breakpoints of *f* and the pull-backs of *g*'s breakpoint values
    through each affine piece of *f*.

    Args:
        f: Upper request/arrival curve.
        g: Lower service curve.

    The tier is picked per call by operand size (see
    :mod:`repro.minplus.backend`): tiny-curve deviations, where the
    hybrid tier's fixed lowering cost shows, route exact; larger ones
    enumerate the same pull-back pairs through float64 window screens
    and memoize on curve fingerprints.  The result is identical either
    way.
    """
    from repro.minplus import backend as backend_mod

    if not f.is_nondecreasing() or not g.is_nondecreasing():
        raise CurveError("horizontal_deviation requires nondecreasing curves")
    if f.tail_rate > g.tail_rate:
        return INF
    mode = backend_mod.op_backend(
        "hdev", max(len(f.segments), len(g.segments))
    )
    if mode == "hybrid":
        from repro.minplus import kernels

        key = ("hdev", f, g)
        hit = kernels.OP_MEMO.get(key)
        if hit is not None:
            return hit[0]
        result = _horizontal_deviation_hybrid(f, g)
        if result is not None:
            kernels.OP_MEMO.put(key, (result,))
            return result
    # Values at which g's pseudo-inverse changes slope: values of g at and
    # just before each of its breakpoints.
    g_values = set()
    for t in g.breakpoints():
        g_values.add(g.at(t))
        if t > 0:
            g_values.add(g.left_limit(t))
    # Amortised budget charge covering the pull-back double loop below.
    checkpoint(1 + (len(f.segments) * max(len(g_values), 1)) // 64)
    candidates: List[Q] = list(f.breakpoints())
    # Supremum candidates approached from the right: where f crosses a
    # plateau value of g with positive slope, d(t) tends to
    # upper_pseudo_inverse(g, v) - t as t decreases to the crossing.
    limit_candidates: List[Q] = []
    starts = f.breakpoints()
    for i, seg in enumerate(f.segments):
        if seg.slope <= 0:
            continue
        end = starts[i + 1] if i + 1 < len(starts) else None
        v_lo = seg.value
        v_hi = seg.value_at(end) if end is not None else None
        for w in g_values:
            if w < v_lo:
                continue
            if v_hi is not None and w > v_hi:
                continue
            t_w = seg.start + (w - v_lo) / seg.slope
            candidates.append(t_w)
            if v_hi is None or w < v_hi:
                # f increases strictly through w at t_w.
                inv_up = upper_pseudo_inverse(g, w)
                if is_inf(inv_up):
                    return INF
                limit_candidates.append(inv_up - t_w)
    return _hdev_from_candidates(f, g, candidates, limit_candidates)


def _hdev_from_candidates(
    f: Curve, g: Curve, candidates: List[Q], limit_candidates: List[Q]
) -> MaybeInf:
    """Shared supremum sweep over the assembled candidate times."""
    best: MaybeInf = Q(0)
    # One batched sweep over g's segments answers every candidate value
    # (identical results to the scalar per-candidate loop).
    times: List[Q] = []
    values: List[Q] = []
    for t in sorted(set(candidates)):
        for value in _values_around(f, t):
            times.append(t)
            values.append(value)
    for t, inv in zip(times, lower_pseudo_inverse_batch(g, values)):
        if is_inf(inv):
            return INF
        d = inv - t
        if d > best:
            best = d
    for d in limit_candidates:
        if d > best:
            best = d
    return best


def _horizontal_deviation_hybrid(f: Curve, g: Curve) -> Optional[MaybeInf]:
    """Kernel-screened horizontal deviation (None -> run the exact path).

    Builds the *same* candidate set as the exact algorithm, but locates
    the pull-back pairs ``(f segment, g value)`` through vectorized
    ``searchsorted`` windows on the lowered arrays instead of the exact
    ``O(n_f * n_g)`` double loop: the float window is a certified
    superset of the in-range pairs (one-ulp outward bounds on both
    sides), and each windowed pair is confirmed with the exact rational
    comparisons before use.  Downstream sweeps reuse the exact batched
    pseudo-inverses, so the returned value is identical to the exact
    tier's.
    """
    from repro.minplus import kernels

    if not kernels.AVAILABLE:
        return None
    fl = kernels.lowered(f)
    np = kernels.np
    # Exact g values (the pseudo-inverse's slope-change levels), sorted so
    # their float bounds are monotone and searchsorted applies.
    g_values_set = set()
    for t in g.breakpoints():
        g_values_set.add(g.at(t))
        if t > 0:
            g_values_set.add(g.left_limit(t))
    g_values = sorted(g_values_set)
    gv_lo, gv_hi = kernels.q_bounds(g_values)
    m = len(g_values)
    # Window per f segment: g values j with certainly(w < v_lo) excluded
    # on the left and certainly(w > v_hi) on the right.
    win_lo = np.searchsorted(gv_hi, fl.V_lo, side="left")
    win_hi = np.searchsorted(gv_lo, fl.VE_hi, side="right")
    win_hi[-1] = m  # last segment has no end value: every w >= v_lo pairs
    perf.record(
        "kernel.screen_hits",
        int(fl.n * m - np.sum(np.maximum(win_hi - win_lo, 0))),
    )
    candidates: List[Q] = list(f.breakpoints())
    limit_candidates: List[Q] = []
    strict_ws: List[Q] = []
    strict_ts: List[Q] = []
    starts = f.breakpoints()
    for i, seg in enumerate(f.segments):
        if seg.slope <= 0:
            continue
        end = starts[i + 1] if i + 1 < len(starts) else None
        v_lo = seg.value
        v_hi = seg.value_at(end) if end is not None else None
        for j in range(int(win_lo[i]), int(min(win_hi[i], m))):
            w = g_values[j]
            if w < v_lo or (v_hi is not None and w > v_hi):
                perf.record("kernel.exact_fallbacks")
                continue
            t_w = seg.start + (w - v_lo) / seg.slope
            candidates.append(t_w)
            if v_hi is None or w < v_hi:
                strict_ws.append(w)
                strict_ts.append(t_w)
    for t_w, inv_up in zip(
        strict_ts, upper_pseudo_inverse_batch(g, strict_ws)
    ):
        if is_inf(inv_up):
            return INF
        limit_candidates.append(inv_up - t_w)
    return _hdev_from_candidates(f, g, candidates, limit_candidates)


def _values_around(f: Curve, t: Q) -> List[Q]:
    """Value and (for t > 0) left limit of *f* at *t*."""
    values = [f.at(t)]
    if t > 0:
        values.append(f.left_limit(t))
    return values
