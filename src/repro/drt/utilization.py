"""Exact long-run utilization of DRT tasks via maximum cycle ratios.

The asymptotic request rate of a DRT task equals the maximum, over the
directed cycles of its graph, of (total WCET on the cycle) / (total edge
separation on the cycle).  We compute it exactly with Lawler's scheme:
repeatedly test a candidate ratio ``lambda`` by searching for a positive
cycle in the graph re-weighted with ``wcet(u) - lambda * separation(u,v)``,
and jump to the exact ratio of any positive cycle found.  Each jump
strictly increases ``lambda`` to a realised cycle ratio, so the iteration
terminates at the maximum.  A search stops at the first Bellman round
whose predecessor pointers close a cycle, which is then positive
(Cherkassky & Goldberg, "Negative-cycle detection algorithms", 1999);
only a search that finds none runs to its fixpoint.

Everything runs on ints: with ``lambda = p/q`` every re-weighted edge
times ``q * S * W`` is an integer (:func:`~repro.drt.request.int_task`),
and scaling by a positive constant preserves every comparison, so the
relaxations — and the cycles found — are those of the rational weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro._numeric import Q
from repro.drt.model import DRTTask
from repro.drt.request import IntTask, int_task

__all__ = ["max_cycle_ratio", "utilization", "critical_cycle", "linear_request_bound"]


def _reduced(graph: IntTask, lam: Fraction, at_src: bool) -> List[Tuple[str, str, int]]:
    """Edge weights ``wcet - lam * separation`` times ``q * S * W``
    (``lam = p/q``) in edge order, charging the WCET of the source or
    destination."""
    pW, qS, wcet = lam.numerator * graph.W, lam.denominator * graph.S, graph.wcet
    return [
        (src, dst, wcet[src if at_src else dst] * qS - pW * sep)
        for (src, dst), sep in graph.sep.items()
    ]


def _round(
    dist: Dict[str, int], edges: List[Tuple[str, str, int]], pred: Dict[str, str]
) -> List[str]:
    """One Bellman round maximising *dist* in place, recording in *pred*
    the source of each improvement; the vertices it improved, in order."""
    improved = []
    for src, dst, w in edges:
        cand = dist[src] + w
        if cand > dist[dst]:
            dist[dst] = cand
            pred[dst] = src
            improved.append(dst)
    return improved


def _closed_walk(pred: Dict[str, str], starts: List[str]) -> Optional[List[str]]:
    """A cycle of the predecessor graph reached from *starts*, in edge
    order, or None.  Each vertex is walked at most once."""
    seen: Dict[str, int] = {}
    for k, v in enumerate(starts):
        walk = []
        while v not in seen:
            seen[v] = k
            walk.append(v)
            if v not in pred:
                break
            v = pred[v]
        else:
            if seen[v] == k:  # back on this walk: a closed cycle
                cycle = walk[walk.index(v):]
                cycle.reverse()
                return cycle
    return None


def _positive_cycle(graph: IntTask, lam: Fraction) -> Optional[List[str]]:
    """A cycle with positive weight under ``wcet(u) - lam * sep(u, v)``,
    or None. Bellman-Ford over all vertices simultaneously.

    The search stops at the first round whose improved vertices walk
    back into a cycle of predecessor pointers.  Such a cycle is
    positive: along each pointer ``dist[v] <= dist[pred[v]] + w`` (a
    source's distance only grows after it is used), and the improvement
    that closed the cycle made one of these strict.  Without a positive
    cycle no round past the ``n - 1``-th improves anything; and a vertex
    improved in round ``n`` walks back ``n`` pointers (each step goes
    back at most one round), so round ``n``'s walk always closes.
    """
    n = len(graph.wcet)
    dist = dict.fromkeys(graph.wcet, 0)
    edges = _reduced(graph, lam, True)
    pred: Dict[str, str] = {}
    for _ in range(n):
        improved = _round(dist, edges, pred)
        if not improved:
            return None
        cycle = _closed_walk(pred, improved)
        if cycle is not None:
            return cycle
    raise AssertionError("an improvement in round n closes no cycle")  # pragma: no cover


def _cycle_ratio(graph: IntTask, cycle: List[str]) -> Fraction:
    """Work/separation ratio of a vertex cycle (closing edge implied)."""
    work = sum(graph.wcet[v] for v in cycle)
    sep = sum(graph.sep[a, b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    return Fraction(work * graph.S, sep * graph.W)


def _critical(task: DRTTask) -> Tuple[Fraction, Optional[Tuple[str, ...]]]:
    """``(rho, cycle)``: the maximum cycle ratio and the cycle whose
    exact ratio set it in the Lawler loop (``(0, None)`` if acyclic),
    memoized on the task."""
    from repro.drt.digest import guard_cache

    cache = guard_cache(task)
    cached = cache.get("max_cycle_ratio")
    if cached is not None:
        return cached  # type: ignore[return-value]
    # An acyclic graph has no positive cycle even at lam = 0.
    lam, best = Q(0), None
    graph = int_task(task)
    for _ in range(100000):  # far above any realistic cycle-ratio count
        cycle = _positive_cycle(graph, lam)
        if cycle is None:
            break
        ratio = _cycle_ratio(graph, cycle)
        if ratio <= lam:
            # The detected cycle no longer improves: lam is the maximum.
            break
        lam, best = ratio, tuple(cycle)
    else:  # pragma: no cover
        raise AssertionError("max_cycle_ratio did not converge")
    cache["max_cycle_ratio"] = (lam, best)
    return lam, best


def max_cycle_ratio(task: DRTTask) -> Fraction:
    """The maximum cycle ratio (0 for acyclic graphs).

    This is the exact long-run request rate: behaviours can sustain work
    arrival at this rate forever but no higher.
    """
    return _critical(task)[0]


def critical_cycle(task: DRTTask) -> Optional[List[str]]:
    """A cycle realising the maximum cycle ratio (None if acyclic)."""
    cycle = _critical(task)[1]
    return None if cycle is None else list(cycle)


def utilization(task: DRTTask) -> Fraction:
    """Alias of :func:`max_cycle_ratio` (long-run processor demand)."""
    return max_cycle_ratio(task)


def linear_request_bound(task: DRTTask) -> Tuple[Fraction, Fraction]:
    """The tight linear bound ``rbf(Delta) <= B + rho * Delta``.

    ``rho`` is the maximum cycle ratio and ``B`` the maximum, over all
    walks ``v0 .. vk`` of the graph, of the *reduced weight*
    ``e(v0) + sum_i (e(vi) - rho * p(v_{i-1}, v_i))``.  Under ``rho`` no
    cycle has positive reduced weight, so the maximum is finite and
    reached after at most ``n`` Bellman relaxation rounds.

    The bound justifies the affine tails of the finitary request/demand
    curves: it is exact in rate, so busy-window horizon iteration always
    terminates when the service's long-run rate exceeds ``rho``.

    Returns:
        ``(B, rho)``.
    """
    from repro.drt.digest import guard_cache

    cache = guard_cache(task)
    cached = cache.get("linear_request_bound")
    if cached is not None:
        return cached  # type: ignore[return-value]
    rho = max_cycle_ratio(task)
    graph = int_task(task)
    qS = rho.denominator * graph.S
    dist = {v: w * qS for v, w in graph.wcet.items()}
    edges = _reduced(graph, rho, False)
    for _ in range(len(dist) + 1):
        if not _round(dist, edges, {}):
            break
    else:  # pragma: no cover - impossible without a positive reduced cycle
        raise AssertionError("linear_request_bound did not stabilise")
    result = (Fraction(max(dist.values()), qS * graph.W), rho)
    cache["linear_request_bound"] = result
    return result
