"""Output (departure) bounds of processed structural workload.

When a structural task's jobs are served by a resource with lower
service curve ``beta``, the departing stream is again curve-constrained:
the classical bound is the min-plus deconvolution ``rbf (/) beta``.  This
module packages that propagation so a structural task can feed a
downstream real-time-calculus network (see :mod:`repro.rtc`), and also
provides the cheaper *delay-shift* bound ``rbf(Delta + D*)`` obtained
from the structural delay bound — the two are incomparable in general,
so the default takes their pointwise minimum.
"""

from __future__ import annotations

from typing import Optional

from repro._numeric import Q, NumLike
from repro.core.busy_window import busy_window_bound
from repro.core.delay import structural_delay
from repro.drt.model import DRTTask
from repro.minplus.convolution import min_plus_deconv
from repro.minplus.curve import Curve

__all__ = ["output_arrival_curve"]


def output_arrival_curve(
    task: DRTTask,
    beta: Curve,
    initial_horizon: Optional[NumLike] = None,
    method: str = "best",
) -> Curve:
    """Upper arrival curve of the task's *departures* from service *beta*.

    Args:
        task: The structural workload.
        beta: Lower service curve it is processed by.
        initial_horizon: Optional fixpoint starting horizon.
        method: ``"deconvolution"`` for ``rbf (/) beta``, ``"delay"`` for
            the delay-shifted request bound ``Delta -> rbf(Delta + D*)``,
            or ``"best"`` (default) for their pointwise minimum.

    Returns:
        A sound upper arrival curve for the processed stream (valid input
        to :func:`repro.rtc.gpc.gpc` or another delay analysis).

    Raises:
        ValueError: on an unknown *method*.
        UnboundedBusyWindowError: if the workload saturates the service.
    """
    if method not in ("deconvolution", "delay", "best"):
        raise ValueError(f"unknown method {method!r}")
    bw = busy_window_bound(task, beta, initial_horizon=initial_horizon)
    curves = []
    if method in ("deconvolution", "best"):
        # The deconvolution bounds the *fluid* served work; jobs depart
        # atomically at their completion instant, so a window whose start
        # coincides with a completion counts work served earlier — up to
        # one maximal job.  The packetisation term keeps the bound valid
        # for job-granular (closed-window) departure counting.
        fluid = min_plus_deconv(bw.rbf, beta, on_dip="fill")
        curves.append(fluid.vshift(task.max_wcet))
    if method in ("delay", "best"):
        # Work leaving within a window of length t entered within t + D*
        # (every job departs at most D* after its release), so the
        # delay-advanced request bound constrains the departures.
        delay = structural_delay(task, beta).delay
        curves.append(bw.rbf.advance(delay))
    out = curves[0]
    for c in curves[1:]:
        out = out.minimum(c)
    return out
