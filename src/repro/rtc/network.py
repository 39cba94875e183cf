"""Networks of processing components (modular performance analysis)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from repro._numeric import Q, is_inf
from repro.errors import AnalysisError, CurveError
from repro.minplus import kernels
from repro.minplus.convolution import min_plus_conv
from repro.minplus.curve import Curve
from repro.minplus.deviation import horizontal_deviation
from repro.parallel.plane import JobsLike, parallel_map, resolve_jobs
from repro.rtc.gpc import GpcResult, gpc

__all__ = [
    "ChainResult",
    "chain_analysis",
    "analyze_chains",
    "end_to_end_service",
]


@dataclass(frozen=True)
class ChainResult:
    """Result of analysing a chain of components.

    Attributes:
        hops: Per-hop GPC results, in order.
        sum_of_delays: Sum of per-hop delay bounds.
        end_to_end_delay: Delay bound against the convolved service
            (pay-bursts-only-once); never larger than the sum of delays.
    """

    hops: List[GpcResult]
    sum_of_delays: Fraction
    end_to_end_delay: Fraction


def end_to_end_service(
    betas: Sequence[Curve],
    jobs: JobsLike = None,
) -> Curve:
    """The service curve of a tandem of resources: min-plus convolution.

    A flow traversing resources with lower service curves ``beta_1 ...
    beta_n`` receives the end-to-end service ``beta_1 (*) ... (*) beta_n``
    — the basis of the pay-bursts-only-once principle.

    With ``jobs > 1`` the fold runs as a balanced tree across worker
    processes: min-plus convolution is associative and curve
    normalisation is canonical, so the tree produces the same curve as
    the left fold, segment for segment.  Should any pairing surface a
    dip error the fold is re-run serially, so error behaviour (which dip
    is reported) is exactly the serial one.
    """
    if not betas:
        raise AnalysisError("end_to_end_service needs at least one curve")
    betas = list(betas)
    if resolve_jobs(jobs, n_items=len(betas) // 2) > 1:
        level = betas
        try:
            while len(level) > 1:
                pairs = [
                    (level[i], level[i + 1])
                    for i in range(0, len(level) - 1, 2)
                ]
                reduced = parallel_map(_conv_pair, pairs, jobs=jobs)
                if len(level) % 2:
                    reduced.append(level[-1])
                level = reduced
            return level[0]
        except CurveError:
            pass  # fall through: report the dip the serial fold finds
    acc = betas[0]
    for b in betas[1:]:
        acc = min_plus_conv(acc, b, on_dip="raise")
    return acc


def _conv_pair(pair: Tuple[Curve, Curve]) -> Curve:
    a, b = pair
    return min_plus_conv(a, b, on_dip="raise")


def chain_analysis(
    alpha: Curve,
    betas: Sequence[Curve],
    jobs: JobsLike = None,
) -> ChainResult:
    """Analyse a flow through a chain of greedy components.

    Args:
        alpha: Upper arrival curve entering the first component.
        betas: Lower service curves of the traversed resources, in order.
        jobs: Run the hop propagation and the pay-bursts-only-once
            convolution concurrently in worker processes.  The two parts
            are independent (the e2e bound uses only *alpha* and the raw
            *betas*), and part order matches serial evaluation order, so
            results and raised errors are bit-identical to ``jobs=1``.

    Returns:
        Per-hop results plus the two end-to-end bounds (hop sum vs.
        pay-bursts-only-once).
    """
    betas = list(betas)
    parts = parallel_map(
        _chain_part,
        [("hops", alpha, betas), ("e2e", alpha, betas)],
        jobs=jobs,
    )
    hops, total = parts[0]
    e2e = parts[1]
    return ChainResult(hops=hops, sum_of_delays=total, end_to_end_delay=e2e)


def _chain_part(part):
    """One independent half of a chain analysis (hop fold or e2e bound)."""
    kind, alpha, betas = part
    if kind == "hops":
        hops: List[GpcResult] = []
        current = alpha
        total = Q(0)
        for beta in betas:
            result = gpc(current, beta)
            if is_inf(result.delay):
                raise AnalysisError("a hop has an infinite delay bound")
            hops.append(result)
            total += result.delay
            current = result.output_arrival
        return (hops, total)
    if resolve_jobs(None, n_items=len(betas) // 2) <= 1:
        # Serial fold: the fused chain lowers each curve once, folds the
        # tandem, and derives the deviation from the folded intervals —
        # one memo entry covers the whole pay-bursts-only-once bound.
        fused = kernels.fused_conv_hdev(alpha, betas)
        if fused is not None:
            e2e, _ = fused
            if is_inf(e2e):
                raise AnalysisError("end-to-end deviation is infinite")
            return e2e
    e2e_beta = end_to_end_service(betas)
    e2e = horizontal_deviation(alpha, e2e_beta)
    if is_inf(e2e):
        raise AnalysisError("end-to-end deviation is infinite")
    return e2e


def analyze_chains(
    chains: Sequence[Tuple[Curve, Sequence[Curve]]],
    jobs: JobsLike = None,
) -> List[ChainResult]:
    """Analyse many independent flows, one :func:`chain_analysis` each.

    Args:
        chains: ``(alpha, betas)`` per flow.
        jobs: Fan the flows out over worker processes; result order
            follows *chains* and the first failing flow's error (in
            input order) is raised, as a serial loop would.
    """
    items = [(alpha, list(betas)) for alpha, betas in chains]
    return parallel_map(_chain_case, items, jobs=jobs)


def _chain_case(item) -> ChainResult:
    alpha, betas = item
    return chain_analysis(alpha, betas)
