"""Vectorized float64 min-plus kernels with certified outward rounding.

This module is the fast tier of the two-tier (*fast-filter / exact-verify*)
kernel design dispatched by :mod:`repro.minplus.backend`:

* a :class:`Curve` is *lowered* once into packed breakpoint arrays
  (``starts / values / slopes`` plus segment-end values) stored as **pairs
  of float64 arrays** — a lower and an upper bound per coordinate,
  produced by outward rounding (``math.nextafter`` guard bands around the
  correctly-rounded float of each exact rational);
* every derived quantity is computed with **interval arithmetic** whose
  every float operation is re-widened outward by one ulp, so each result
  interval is a *certificate*: the exact rational value provably lies
  inside it;
* screens answer vectorized queries of the min-plus operators (curve
  evaluation, envelope-piece domination, extremum candidates) with such
  intervals.  A query whose interval does not overlap the decision
  boundary is settled by the float tier (``kernel.screen_hits``); the
  remainder — typically a handful of near-ties — fall back to the exact
  :class:`~fractions.Fraction` path (``kernel.exact_fallbacks``), so the
  hybrid tier's final results are **identical** to the exact tier's.

Lowering is cached per curve object and deduplicated across structurally
equal curves through the interning table of
:meth:`repro.minplus.curve.Curve.interned` (``curve.intern_hits``), and
whole operations (convolution, deconvolution, horizontal deviation) are
memoized on curve fingerprints (``kernel.memo_hits``).

Everything here degrades gracefully: without NumPy (:data:`AVAILABLE` is
False) every helper returns ``None`` and callers run the exact path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Tuple

from repro import perf
from repro._numeric import Q
from repro.minplus import backend as backend_mod

try:  # pragma: no cover - the import either works or it doesn't
    import numpy as np

    AVAILABLE = True
except ImportError:  # pragma: no cover
    np = None
    AVAILABLE = False

__all__ = [
    "AVAILABLE",
    "Lowered",
    "lowered",
    "op_cache_get",
    "op_cache_put",
    "op_cache_clear",
    "conv_prune_mask",
    "deconv_prune_mask",
    "conv_point_value_screened",
    "deconv_point_value_screened",
    "fused_deconv_hdev",
    "fused_conv_hdev",
]

_NEG = float("-inf")
_POS = float("inf")


# ----------------------------------------------------------------------
# Outward-rounded interval primitives
# ----------------------------------------------------------------------

def _down(a):
    """One-ulp-down guard band (sound lower bound after a float op)."""
    return np.nextafter(a, _NEG)


def _up(a):
    """One-ulp-up guard band (sound upper bound after a float op)."""
    return np.nextafter(a, _POS)


def _q_floats(qs: Sequence) -> "np.ndarray":
    """Correctly-rounded float64 of each exact rational."""
    return np.array([float(q) for q in qs], dtype=np.float64)


def q_bounds(qs: Sequence) -> Tuple["np.ndarray", "np.ndarray"]:
    """Certified (lower, upper) float64 bounds of exact rationals.

    ``float(Fraction)`` rounds to nearest, so the true value lies within
    one ulp of it; widening both ways is always sound (and exact inputs
    merely get a one-ulp slack that no screen decision can miss by,
    because screens only certify *strict* separations).
    """
    mids = _q_floats(qs)
    return _down(mids), _up(mids)


def _imul(alo, ahi, blo, bhi):
    """Outward-rounded interval product of two interval arrays."""
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _down(lo), _up(hi)


# ----------------------------------------------------------------------
# Lowered curves
# ----------------------------------------------------------------------

class Lowered:
    """Packed breakpoint-array form of one curve, outward rounded.

    Attributes:
        n: Segment count.
        nondecreasing: Exact monotonicity flag (screens that rely on
            monotone reasoning are gated on it).
        tail_sign: Exact sign (-1/0/1) of the curve's tail rate.
        S_lo/S_hi: Bounds on segment start abscissae.
        V_lo/V_hi: Bounds on segment start values.
        SL_lo/SL_hi: Bounds on segment slopes.
        VE_lo/VE_hi: Bounds on segment *end* values (left limit at the
            next start); the last entry encodes the tail limit
            (``+inf`` for a positive tail rate).
    """

    __slots__ = (
        "n",
        "nondecreasing",
        "tail_sign",
        "S_lo",
        "S_hi",
        "V_lo",
        "V_hi",
        "SL_lo",
        "SL_hi",
        "VE_lo",
        "VE_hi",
    )

    def __init__(self, curve) -> None:
        segs = curve.segments
        self.n = len(segs)
        self.nondecreasing = curve.is_nondecreasing()
        rate = curve.tail_rate
        self.tail_sign = (rate > 0) - (rate < 0)
        self.S_lo, self.S_hi = q_bounds([s.start for s in segs])
        self.V_lo, self.V_hi = q_bounds([s.value for s in segs])
        self.SL_lo, self.SL_hi = q_bounds([s.slope for s in segs])
        # Segment-end values: v + slope * (next_start - start).
        ve_lo = np.empty(self.n)
        ve_hi = np.empty(self.n)
        if self.n > 1:
            dt_lo = np.maximum(_down(self.S_lo[1:] - self.S_hi[:-1]), 0.0)
            dt_hi = np.maximum(_up(self.S_hi[1:] - self.S_lo[:-1]), 0.0)
            m_lo, m_hi = _imul(
                self.SL_lo[:-1], self.SL_hi[:-1], dt_lo, dt_hi
            )
            ve_lo[:-1] = _down(self.V_lo[:-1] + m_lo)
            ve_hi[:-1] = _up(self.V_hi[:-1] + m_hi)
        if self.tail_sign > 0:
            ve_lo[-1] = _POS
            ve_hi[-1] = _POS
        elif self.tail_sign < 0:
            ve_lo[-1] = _NEG
            ve_hi[-1] = _NEG
        else:
            ve_lo[-1] = self.V_lo[-1]
            ve_hi[-1] = self.V_hi[-1]
        self.VE_lo = ve_lo
        self.VE_hi = ve_hi

    # -- evaluation -----------------------------------------------------

    def eval_bounds(self, t_lo, t_hi):
        """Certified bounds on ``f(t)`` for interval times (nondecreasing
        curves only): true ``f(t) in [lo, hi]`` for every ``t`` in the
        given time interval intersected with ``[0, oo)``."""
        # Lower: the segment k with s_k <= t_lo gives f(t) >= f(s_k); the
        # affine extension evaluated downward is valid while t stays in
        # segment k, and capping at the segment-end value keeps the bound
        # sound when t has already moved past it (f nondecreasing).
        k = np.searchsorted(self.S_hi, t_lo, side="right") - 1
        k0 = np.clip(k, 0, self.n - 1)
        dt = np.maximum(_down(t_lo - self.S_hi[k0]), 0.0)
        m_lo, _ = _imul(
            np.maximum(self.SL_lo[k0], 0.0),
            np.maximum(self.SL_hi[k0], 0.0),
            dt,
            dt,
        )
        lo = np.minimum(_down(self.V_lo[k0] + m_lo), self.VE_lo[k0])
        # Upper: the last segment j with a start bound <= t_hi; its
        # upward affine extension dominates every earlier segment's value.
        j = np.searchsorted(self.S_lo, t_hi, side="right") - 1
        j0 = np.clip(j, 0, self.n - 1)
        dt2 = np.maximum(_up(t_hi - self.S_lo[j0]), 0.0)
        _, m_hi = _imul(
            np.maximum(self.SL_lo[j0], 0.0),
            np.maximum(self.SL_hi[j0], 0.0),
            dt2,
            dt2,
        )
        hi = _up(self.V_hi[j0] + m_hi)
        return lo, hi

    def llim_bounds(self, t_lo, t_hi):
        """Certified bounds on the left limit ``f(t-)`` (nondecreasing
        curves, ``t > 0``)."""
        # Upper: f(t-) <= f(t) (jumps are upward).
        _, hi = self.eval_bounds(t_lo, t_hi)
        # Lower: like eval_bounds but through the segment *strictly*
        # before t_lo, so a jump exactly at t is excluded.
        kl = np.searchsorted(self.S_hi, t_lo, side="left") - 1
        valid = kl >= 0
        k0 = np.clip(kl, 0, self.n - 1)
        dt = np.maximum(_down(t_lo - self.S_hi[k0]), 0.0)
        m_lo, _ = _imul(
            np.maximum(self.SL_lo[k0], 0.0),
            np.maximum(self.SL_hi[k0], 0.0),
            dt,
            dt,
        )
        lo = np.minimum(_down(self.V_lo[k0] + m_lo), self.VE_lo[k0])
        return np.where(valid, lo, _NEG), hi

def lowered(curve) -> Optional[Lowered]:
    """The cached :class:`Lowered` form of *curve* (None without NumPy).

    Per-object lowering is cached on the curve; structurally equal curves
    share one lowering through the interning table
    (:meth:`~repro.minplus.curve.Curve.interned`).
    """
    if not AVAILABLE:
        return None
    lw = curve._lowered
    if lw is not None:
        return lw
    canon = curve.interned()
    if canon is not curve and canon._lowered is not None:
        curve._lowered = canon._lowered
        return canon._lowered
    perf.record("kernel.lowerings")
    lw = Lowered(curve)
    curve._lowered = lw
    canon._lowered = lw
    return lw


# ----------------------------------------------------------------------
# Fingerprint-keyed operation memo
# ----------------------------------------------------------------------

_OP_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_OP_CACHE_CAP = 4096


def op_cache_get(key: tuple):
    """Memoized result of a prior min-plus operation, or None."""
    hit = _OP_CACHE.get(key)
    if hit is not None:
        _OP_CACHE.move_to_end(key)
        perf.record("kernel.memo_hits")
    else:
        perf.record("kernel.memo_misses")
    return hit


def op_cache_put(key: tuple, value) -> None:
    """Memoize an operation result under a fingerprint key (LRU)."""
    _OP_CACHE[key] = value
    _OP_CACHE.move_to_end(key)
    while len(_OP_CACHE) > _OP_CACHE_CAP:
        _OP_CACHE.popitem(last=False)
        perf.record("kernel.memo_evictions")


def op_cache_clear() -> None:
    """Drop every memoized operation result (benchmarks / tests / the
    per-job cache isolation of :func:`repro.parallel.reset_process_caches`)."""
    _OP_CACHE.clear()


def op_cache_stats() -> Tuple[int, int]:
    """``(entries, capacity)`` of the operation memo — lets tests and the
    execution plane assert that cache isolation actually emptied it."""
    return (len(_OP_CACHE), _OP_CACHE_CAP)


# ----------------------------------------------------------------------
# Envelope-piece domination pruning (convolution / deconvolution)
# ----------------------------------------------------------------------

def _piece_arrays(pieces):
    lo_lo, lo_hi = q_bounds([p.lo for p in pieces])
    hi_lo, hi_hi = q_bounds([p.hi for p in pieces])
    v_lo, v_hi = q_bounds([p.value for p in pieces])
    return lo_lo, lo_hi, hi_lo, hi_hi, v_lo, v_hi


_CONV_PROBES = 64
_CONV_GRID = 512


def _conv_witness_grid(fl, gl, cap_hi):
    """Certified staircase upper bound of ``C(t) = inf_s f(s) + g(t-s)``.

    Every probe split ``s`` (an exact machine float in ``[0, tau]``)
    yields the witness ``C(tau) <= f(s') + g(u)`` for the admissible
    split ``s' = tau - u`` with ``u = clamp(up(tau - s), 0, tau)``:
    ``u >= tau - s`` makes ``s' <= s``, and both curves nondecreasing
    give ``f(s') <= f(s)`` and the upward evaluations certify the rest.
    Probes come from both curves' breakpoints (subsampled evenly, plus
    ``s = 0`` — the classical ``f(0) + g(t)`` subset bound) in both
    role orders, and the pointwise minimum over probes upper-bounds
    ``C`` at every grid point.
    """
    tau = np.linspace(0.0, max(cap_hi, 0.0), _CONV_GRID)
    best = np.full(tau.shape, _POS)
    for lw_a, lw_b in ((fl, gl), (gl, fl)):
        s_all = np.unique(
            np.concatenate([np.maximum(lw_a.S_lo, 0.0), [0.0]])
        )
        s_all = s_all[np.isfinite(s_all)]
        if len(s_all) > _CONV_PROBES:
            idx = np.linspace(0, len(s_all) - 1, _CONV_PROBES).astype(int)
            s_all = s_all[idx]
        _, fs_hi = lw_a.eval_bounds(s_all, s_all)
        for k in range(len(s_all)):
            s = s_all[k]
            u = np.clip(_up(tau - s), 0.0, tau)
            _, b_hi = lw_b.eval_bounds(u, u)
            cand = _up(fs_hi[k] + b_hi)
            best = np.where(tau >= s, np.minimum(best, cand), best)
    return tau, best


def conv_prune_mask(f, g, fp, gp, cap):
    """Keep-mask over segment pairs for ``f (*) g`` (lower envelope).

    A pair's Minkowski pieces all start at value ``f_i + g_j`` and are
    nondecreasing (both curves nondecreasing), while the true convolution
    ``C`` is nondecreasing and bounded above both by the *subset
    envelope* ``UB(t) = min(f(0) + g(t), g(0) + f(t))`` (any subset of
    pieces upper-bounds a lower envelope) and by the probe-witness
    staircase of :func:`_conv_witness_grid`.  A pair whose certified
    start value exceeds a certified upper bound of ``C`` at-or-after its
    domain's right end therefore lies strictly above ``C`` everywhere it
    is defined (``C`` nondecreasing) and can never supply the envelope —
    dropping it provably leaves the computed curve (and its breakpoint
    corrections) unchanged.

    Returns a boolean ``(len(fp), len(gp))`` keep-mask, or None when the
    screen is unavailable or unsound (non-monotone inputs).
    """
    fl = lowered(f)
    gl = lowered(g)
    if fl is None or gl is None:
        return None
    if not (fl.nondecreasing and gl.nondecreasing):
        return None
    if not fp or not gp:
        return None
    a_lo_lo, _, a_hi_lo, a_hi_hi, a_v_lo, a_v_hi = _piece_arrays(fp)
    b_lo_lo, _, b_hi_lo, b_hi_hi, b_v_lo, b_v_hi = _piece_arrays(gp)
    cap_lo, cap_hi = q_bounds([cap])
    tau, stair = _conv_witness_grid(fl, gl, float(cap_hi[0]))
    f0_hi = float(_up(np.array([float(f.at(0))]))[0])
    g0_hi = float(_up(np.array([float(g.at(0))]))[0])
    # Pair start values (certified lower) and domain right ends
    # (certified upper, clipped at the cap).
    v0_lo = _down(a_v_lo[:, None] + b_v_lo[None, :])
    end_hi = np.minimum(_up(a_hi_hi[:, None] + b_hi_hi[None, :]), cap_hi[0])
    shape = end_hi.shape
    ends = end_hi.ravel()
    _, g_at_end_hi = gl.eval_bounds(ends, ends)
    _, f_at_end_hi = fl.eval_bounds(ends, ends)
    ub_hi = _up(
        np.minimum(f0_hi + g_at_end_hi, g0_hi + f_at_end_hi)
    ).reshape(shape)
    keep = ~(v0_lo > ub_hi)
    # Staircase bound: C(t) <= C(tau_k) <= stair[k] for every t in the
    # pair's domain once tau_k >= its right end.
    k_idx = np.clip(np.searchsorted(tau, ends, side="left"), 0, len(tau) - 1)
    keep &= ~(v0_lo > stair[k_idx].reshape(shape))
    # Pairs that provably start beyond the cap contribute nothing.
    lo_lo = _down(a_lo_lo[:, None] + b_lo_lo[None, :])
    keep &= ~(lo_lo > cap_hi[0])
    pruned = int(keep.size - keep.sum())
    perf.record("kernel.pairs_pruned", pruned)
    perf.record("kernel.pairs_kept", int(keep.sum()))
    return keep


_DECONV_PROBES = 64
_DECONV_GRID = 512
_DECONV_SPLITS = 4


def _deconv_witness_grid(fl, gl, u_probe, cap_hi):
    """Certified staircase lower bound of ``D(t) = sup_u f(t+u) - g(u)``.

    Every probe offset ``u`` (an exact machine float ``>= 0``) yields the
    witness ``f(tau + u) - g(u) <= D(tau)``; evaluating f downward and g
    upward keeps the bound sound, and a running maximum over the grid
    makes the staircase nondecreasing like ``D`` itself, so looking up
    the step at-or-before ``t`` lower-bounds ``D(t)``.
    """
    tau = np.linspace(0.0, max(cap_hi, 0.0), _DECONV_GRID)
    best = np.full(tau.shape, _NEG)
    for u in u_probe:
        x = _down(tau + u)
        f_lo, _ = fl.eval_bounds(x, x)
        ua = np.array([u])
        g_hi = gl.eval_bounds(ua, ua)[1][0]
        best = np.maximum(best, _down(f_lo - g_hi))
    return tau, np.maximum.accumulate(best)


def deconv_prune_mask(f, g, fp, gp, u_max, cap):
    """Keep-mask over segment pairs for ``f (/) g`` (upper envelope).

    Dual of :func:`conv_prune_mask` with two refinements.  The true
    deconvolution ``D(t) = sup_u f(t+u) - g(u)`` is nondecreasing and
    lower-bounded by *any* probe witness ``f(t+u) - g(u)``; a staircase
    of such witnesses on a time grid (:func:`_deconv_witness_grid`)
    gives a certified floor ``D_lo``.  A pair's value at time ``t`` is
    at most ``V(t) = f(min(a.hi, t + b.hi)) - g(max(b.lo, a.lo - t))``,
    nondecreasing in ``t``.  Subdividing the pair's domain into
    checkpoints ``c_0 <= ... <= c_m`` and requiring
    ``V(c_{i+1}) < D_lo(c_i)`` on every sub-interval certifies the pair
    strictly below the envelope everywhere — comparing only the global
    peak against the domain's left end would spare every wide pair.
    """
    fl = lowered(f)
    gl = lowered(g)
    if fl is None or gl is None:
        return None
    if not (fl.nondecreasing and gl.nondecreasing):
        return None
    if not fp or not gp:
        return None
    a_lo_lo, a_lo_hi, _, a_hi_hi, _, _ = _piece_arrays(fp)
    b_lo_lo, b_lo_hi, _, b_hi_hi, _, _ = _piece_arrays(gp)
    cap_lo, cap_hi = q_bounds([cap])
    # Probe offsets: u = 0, g's breakpoints and u_max (any float >= 0 is
    # a valid witness offset), subsampled evenly.
    u_all = np.unique(
        np.concatenate(
            [
                np.array([0.0, max(float(u_max), 0.0)]),
                np.maximum(gl.S_lo, 0.0),
            ]
        )
    )
    u_all = u_all[np.isfinite(u_all)]
    if len(u_all) > _DECONV_PROBES:
        idx = np.linspace(0, len(u_all) - 1, _DECONV_PROBES).astype(int)
        u_all = u_all[idx]
    tau, d_lo = _deconv_witness_grid(fl, gl, u_all, float(cap_hi[0]))
    # Pair domains [t0, t1] (outward-rounded floats).
    t0_lo = np.maximum(_down(a_lo_lo[:, None] - b_hi_hi[None, :]), 0.0)
    t1_hi = np.minimum(
        _up(a_hi_hi[:, None] - b_lo_lo[None, :]), cap_hi[0]
    )
    t1_hi = np.maximum(t1_hi, t0_lo)
    a_lo_b = a_lo_lo[:, None] + np.zeros_like(t0_lo)
    a_hi_b = a_hi_hi[:, None] + np.zeros_like(t0_lo)
    b_lo_b = b_lo_lo[None, :] + np.zeros_like(t0_lo)
    b_hi_b = b_hi_hi[None, :] + np.zeros_like(t0_lo)
    prune = np.ones(t0_lo.shape, dtype=bool)
    for i in range(_DECONV_SPLITS):
        w0 = i / _DECONV_SPLITS
        w1 = (i + 1) / _DECONV_SPLITS
        c0 = t0_lo + _down(w0 * (t1_hi - t0_lo)) if i else t0_lo
        c1 = t1_hi if i == _DECONV_SPLITS - 1 else _up(
            t0_lo + w1 * (t1_hi - t0_lo)
        )
        # Pair value upper bound at the sub-interval's right end.
        s_arg = np.minimum(a_hi_b, _up(c1 + b_hi_b)).ravel()
        _, f_hi = fl.eval_bounds(s_arg, s_arg)
        u_arg = np.maximum(
            b_lo_b, np.maximum(_down(a_lo_b - c1), 0.0)
        ).ravel()
        g_lo, _ = gl.eval_bounds(u_arg, u_arg)
        v_hi = _up(f_hi - g_lo).reshape(t0_lo.shape)
        # Envelope floor at the sub-interval's left end.
        k = np.searchsorted(tau, c0.ravel(), side="right") - 1
        floor = np.where(k >= 0, d_lo[np.clip(k, 0, len(tau) - 1)], _NEG)
        prune &= v_hi < floor.reshape(t0_lo.shape)
    keep = ~prune
    # Pairs entirely outside [0, cap] contribute nothing.
    t_hi_lo = _down(a_lo_lo[:, None] - b_hi_hi[None, :])
    keep &= ~(t_hi_lo > cap_hi[0])
    t_hi_hi = _up(a_hi_hi[:, None] - b_lo_lo[None, :])
    keep &= ~(t_hi_hi < 0.0)
    pruned = int(keep.size - keep.sum())
    perf.record("kernel.pairs_pruned", pruned)
    perf.record("kernel.pairs_kept", int(keep.sum()))
    return keep


# ----------------------------------------------------------------------
# Screened exact point values (breakpoint correction / tail joints)
# ----------------------------------------------------------------------

def _min_survivors(lo, hi, certain, possible):
    """Indices that can still attain the minimum.

    ``certain``/``possible`` flag candidate feasibility; the threshold is
    the smallest upper bound among certainly-feasible candidates, and
    every possibly-feasible candidate whose lower bound does not exceed
    it survives (so the set provably contains every feasible argmin).
    """
    if not certain.any():
        return np.flatnonzero(possible)
    thresh = np.min(hi[certain])
    return np.flatnonzero(possible & (lo <= thresh))


def conv_point_value_screened(f, g, t) -> Optional[Q]:
    """Exact ``inf { f(s) + g(t-s) : 0 <= s <= t }`` via the float screen.

    Enumerates the same candidate set as
    :func:`repro.minplus.convolution.conv_point_value`, certifies away
    candidates that provably do not attain the infimum, and evaluates the
    survivors exactly.  Returns None when the screen is unavailable.
    """
    fl = lowered(f)
    gl = lowered(g)
    if fl is None or gl is None or not (fl.nondecreasing and gl.nondecreasing):
        return None
    t_lo, t_hi = q_bounds([t])
    t_lo, t_hi = t_lo[0], t_hi[0]

    def _one_side(al, bl):
        # Candidates s at al's breakpoints: al.at(s) + bl(t - s), plus the
        # left-limit variant al(s-) for s > 0.
        u_lo = _down(t_lo - al.S_hi)
        u_hi = _up(t_hi - al.S_lo)
        feas_certain = al.S_hi <= t_lo
        feas_possible = al.S_lo <= t_hi
        bu_lo, bu_hi = bl.eval_bounds(np.maximum(u_lo, 0.0), u_hi)
        v_lo = _down(al.V_lo + bu_lo)
        v_hi = _up(al.V_hi + bu_hi)
        # Left limits: al(s_k-) = end value of segment k-1.
        ll_lo = np.concatenate(([_POS], _down(al.VE_lo[:-1] + bu_lo[1:])))
        ll_hi = np.concatenate(([_POS], _up(al.VE_hi[:-1] + bu_hi[1:])))
        return (
            np.concatenate((v_lo, ll_lo)),
            np.concatenate((v_hi, ll_hi)),
            np.concatenate((feas_certain, feas_certain)),
            np.concatenate((feas_possible, feas_possible)),
        )

    fv_lo, fv_hi, fc, fp_ = _one_side(fl, gl)
    gv_lo, gv_hi, gc, gp_ = _one_side(gl, fl)
    lo = np.concatenate((fv_lo, gv_lo))
    hi = np.concatenate((fv_hi, gv_hi))
    certain = np.concatenate((fc, gc)) & np.isfinite(hi)
    possible = np.concatenate((fp_, gp_)) & np.isfinite(lo)
    survivors = _min_survivors(lo, hi, certain, possible)
    total = len(lo)
    perf.record("kernel.screen_hits", total - len(survivors))
    if len(survivors) > 1:
        perf.record("kernel.exact_fallbacks", len(survivors) - 1)
    nf = fl.n
    best: Optional[Q] = None
    f_bps = [s.start for s in f.segments]
    g_bps = [s.start for s in g.segments]
    for idx in survivors:
        idx = int(idx)
        if idx < 2 * nf:
            s = f_bps[idx % nf]
            if not (0 <= s <= t):
                continue
            left = idx >= nf
            if left and s == 0:
                continue
            fs = f.left_limit(s) if left else f.at(s)
            val = fs + g.at(t - s)
        else:
            j = idx - 2 * nf
            ng = gl.n
            u = g_bps[j % ng]
            if not (0 <= u <= t):
                continue
            left = j >= ng
            if left and u == 0:
                continue
            gu = g.left_limit(u) if left else g.at(u)
            val = f.at(t - u) + gu
        if best is None or val < best:
            best = val
    return best


def deconv_point_value_screened(f, g, t, u_max) -> Optional[Q]:
    """Exact ``sup { f(t+u) - g(u) : 0 <= u <= u_max }`` via the screen.

    Mirrors :func:`repro.minplus.convolution.deconv_point_value`'s
    candidate set (g's breakpoints, f's breakpoints pulled back by ``t``,
    and the interval ends, each with its paired-left-limit variant).
    Returns None when the screen is unavailable.
    """
    fl = lowered(f)
    gl = lowered(g)
    if fl is None or gl is None or not (fl.nondecreasing and gl.nondecreasing):
        return None
    t_lo, t_hi = q_bounds([t])
    t_lo, t_hi = t_lo[0], t_hi[0]
    u_lo_b, u_hi_b = q_bounds([u_max])
    u_max_lo, u_max_hi = u_lo_b[0], u_hi_b[0]

    # Candidate u values: g's breakpoints, f's breakpoints - t, 0, u_max.
    cand_lo = np.concatenate(
        (gl.S_lo, _down(fl.S_lo - t_hi), [0.0], [u_max_lo])
    )
    cand_hi = np.concatenate(
        (gl.S_hi, _up(fl.S_hi - t_lo), [0.0], [u_max_hi])
    )
    feas_certain = (cand_lo >= 0.0) & (cand_hi <= u_max_lo)
    feas_possible = (cand_hi >= 0.0) & (cand_lo <= u_max_hi)
    tu_lo = _down(t_lo + cand_lo)
    tu_hi = _up(t_hi + cand_hi)
    fv_lo, fv_hi = fl.eval_bounds(np.maximum(tu_lo, 0.0), tu_hi)
    gv_lo, gv_hi = gl.eval_bounds(np.maximum(cand_lo, 0.0), cand_hi)
    d_lo = _down(fv_lo - gv_hi)
    d_hi = _up(fv_hi - gv_lo)
    # Paired left-limit variants (u > 0): both arguments from the left.
    fll_lo, fll_hi = fl.llim_bounds(np.maximum(tu_lo, 0.0), tu_hi)
    gll_lo, gll_hi = gl.llim_bounds(np.maximum(cand_lo, 0.0), cand_hi)
    l_lo = _down(fll_lo - gll_hi)
    l_hi = _up(fll_hi - gll_lo)
    pos_possible = cand_hi > 0.0
    lo = np.concatenate((d_lo, l_lo))
    hi = np.concatenate((d_hi, l_hi))
    certain = np.concatenate((feas_certain, feas_certain & (cand_lo > 0.0)))
    possible = np.concatenate((feas_possible, feas_possible & pos_possible))
    certain &= np.isfinite(lo)
    possible &= np.isfinite(hi)
    # Max screen: survivors are possibly-feasible candidates whose upper
    # bound reaches the best certainly-feasible lower bound.
    if certain.any():
        thresh = np.max(lo[certain])
        survivors = np.flatnonzero(possible & (hi >= thresh))
    else:
        survivors = np.flatnonzero(possible)
    total = len(lo)
    perf.record("kernel.screen_hits", total - len(survivors))
    if len(survivors) > 1:
        perf.record("kernel.exact_fallbacks", len(survivors) - 1)
    m = gl.n + fl.n + 2
    g_bps = [s.start for s in g.segments]
    f_bps = [s.start for s in f.segments]
    best: Optional[Q] = None
    seen = set()
    for idx in survivors:
        idx = int(idx)
        base = idx % m
        left = idx >= m
        if base < gl.n:
            u = g_bps[base]
        elif base < gl.n + fl.n:
            u = f_bps[base - gl.n] - t
        elif base == gl.n + fl.n:
            u = Q(0)
        else:
            u = u_max
        if not (0 <= u <= u_max):
            continue
        if left and u == 0:
            continue
        key = (u, left)
        if key in seen:
            continue
        seen.add(key)
        if left:
            val = f.left_limit(t + u) - g.left_limit(u)
        else:
            val = f.at(t + u) - g.at(u)
        if best is None or val > best:
            best = val
    return best


# ----------------------------------------------------------------------
# Fused operation pipelines (chain-level memo + shared lowerings)
# ----------------------------------------------------------------------

def fused_deconv_hdev(f, g):
    """Fused ``deconv -> hdev`` chain of one greedy processing component.

    Computes the GPC bound triple ``(delay, backlog, output)`` for an
    arrival *f* on a service *g* with every stage threading the same
    lowered interval arrays (the per-curve lowering cache guarantees
    one lowering per chain) and one chain-level memo entry replacing
    three per-op lookups.  The backlog uses the deconvolution stage's
    screened point evaluation at ``t = 0``: ``sup_t (f - g)(t)`` equals
    ``sup_u f(0+u) - g(u)`` over the same exhaustive candidate set (the
    union of both curves' breakpoints with paired left limits, plus the
    interval ends), so re-screening with exact Fractions happens only
    at the final comparison and the value is bit-identical to
    :func:`~repro.minplus.deviation.vertical_deviation`.

    Returns None when the fused path is unavailable (exact dispatch for
    this operand size, no NumPy, or non-monotone inputs) — callers run
    the unfused three-op path, which produces the same results.
    """
    n = max(len(f.segments), len(g.segments))
    if backend_mod.op_backend("deconv", n) != "hybrid":
        return None
    fl = lowered(f)
    gl = lowered(g)
    if fl is None or gl is None:
        return None
    if not (fl.nondecreasing and gl.nondecreasing):
        return None
    key = ("gpc_chain", f.interned(), g.interned())
    hit = op_cache_get(key)
    if hit is not None:
        return hit
    perf.record("kernel.fused_chains")
    from repro._numeric import INF
    from repro.minplus.convolution import min_plus_deconv
    from repro.minplus.deviation import (
        horizontal_deviation,
        vertical_deviation,
    )

    delay = horizontal_deviation(f, g)
    if f.tail_rate > g.tail_rate:
        backlog = INF
    else:
        u_max = max(f.last_breakpoint, g.last_breakpoint)
        backlog = deconv_point_value_screened(f, g, Q(0), u_max)
        if backlog is None:  # pragma: no cover - screens gated above
            backlog = vertical_deviation(f, g)
    output = min_plus_deconv(f, g, on_dip="fill")
    result = (delay, backlog, output)
    op_cache_put(key, result)
    return result


def fused_conv_hdev(alpha, betas):
    """Fused ``conv-fold -> hdev`` chain (pay-bursts-only-once delay).

    Folds the tandem services with min-plus convolution and takes the
    horizontal deviation of *alpha* against the fold, under one
    chain-level memo entry keyed by every curve in the chain — repeated
    flows over the same tandem (the ``analyze_chains`` fan-out pattern)
    replay the entire pipeline from one lookup.  Stages share lowered
    arrays through the per-curve cache; the fold keeps the strict
    ``on_dip="raise"`` policy of
    :func:`~repro.rtc.network.end_to_end_service`, so errors and values
    are bit-identical to the unfused serial path.

    Returns ``(delay, e2e_curve)`` or None when the fused path is
    unavailable.
    """
    betas = list(betas)
    if not betas or not AVAILABLE:
        return None
    n = max(
        len(alpha.segments), max(len(b.segments) for b in betas)
    )
    if backend_mod.op_backend("hdev", n) != "hybrid":
        return None
    key = ("chain_e2e", alpha.interned()) + tuple(
        b.interned() for b in betas
    )
    hit = op_cache_get(key)
    if hit is not None:
        return hit
    perf.record("kernel.fused_chains")
    from repro.minplus.convolution import min_plus_conv
    from repro.minplus.deviation import horizontal_deviation

    acc = betas[0]
    for b in betas[1:]:
        acc = min_plus_conv(acc, b, on_dip="raise")
    delay = horizontal_deviation(alpha, acc)
    result = (delay, acc)
    op_cache_put(key, result)
    return result
