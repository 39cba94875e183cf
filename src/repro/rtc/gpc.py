"""The greedy processing component (GPC) of real-time calculus."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro._numeric import INF, Q, is_inf
from repro.errors import AnalysisError
from repro.minplus import kernels
from repro.minplus.convolution import min_plus_deconv
from repro.minplus.curve import Curve
from repro.minplus.deviation import horizontal_deviation, vertical_deviation

__all__ = ["GpcResult", "gpc"]


@dataclass(frozen=True)
class GpcResult:
    """Bounds and output curves of one greedy processing component.

    Attributes:
        delay: Worst-case delay bound (horizontal deviation); may be
            :data:`~repro._numeric.INF`.
        backlog: Worst-case backlog bound (vertical deviation).
        output_arrival: Upper arrival curve of the processed stream
            offered to the next component.
        remaining_service: Lower service curve left for lower-priority
            components on the same resource.
    """

    delay: Union[Fraction, object]
    backlog: Union[Fraction, object]
    output_arrival: Curve
    remaining_service: Curve


def gpc(alpha: Curve, beta: Curve) -> GpcResult:
    """Analyse one greedy processing component.

    Args:
        alpha: Upper arrival curve of the input stream.
        beta: Lower service curve of the resource.

    Returns:
        Delay/backlog bounds and the output curves:

        * ``output_arrival = alpha (/) beta`` — the classical sound bound
          on the departures (deconvolution);
        * ``remaining_service = sup-closure of (beta - alpha)`` clipped at
          zero — what a lower-priority component still receives.

    Raises:
        AnalysisError: if the arrival long-run rate exceeds the service
            rate (every bound would be infinite).
    """
    if alpha.tail_rate > beta.tail_rate:
        raise AnalysisError(
            f"arrival rate {alpha.tail_rate} exceeds service rate "
            f"{beta.tail_rate}; component overloaded"
        )
    fused = kernels.fused_deconv_hdev(alpha, beta)
    if fused is not None:
        delay, backlog, output = fused
    else:
        delay = horizontal_deviation(alpha, beta)
        backlog = vertical_deviation(alpha, beta)
        output = min_plus_deconv(alpha, beta, on_dip="fill")
    remaining = (beta - alpha).running_max().nonneg()
    return GpcResult(
        delay=delay,
        backlog=backlog,
        output_arrival=output,
        remaining_service=remaining,
    )
