"""Exact min-plus algebra on ultimately-affine piecewise-linear curves.

This subpackage is the numerical substrate of the whole library: arrival
curves, service curves, request-bound functions and demand-bound functions
are all :class:`~repro.minplus.curve.Curve` objects, i.e. piecewise-linear
functions on ``[0, oo)`` with finitely many breakpoints, exact rational
coefficients, and an affine tail.

The family of ultimately-affine curves is closed under every operation the
library needs (pointwise min/max/add/sub, min-plus convolution and
deconvolution, monotone closures, deviations) and covers the curve zoo of
the real-time calculus literature once periodic staircases are represented
*finitarily* (exact up to an analysis horizon, tight affine bound beyond) —
the representation choice of Finitary RTC (Guan & Yi, RTSS 2013).
"""

from repro.minplus.segment import Segment
from repro.minplus.curve import Curve
from repro.minplus.builders import (
    zero,
    constant,
    affine,
    token_bucket,
    rate_latency,
    staircase,
    from_points,
    step,
)
from repro.minplus.convolution import min_plus_conv, min_plus_deconv
from repro.minplus.maxplus import max_plus_conv, is_subadditive, subadditive_closure
from repro.minplus.approximation import (
    upper_approximation,
    lower_approximation,
    approximation_error,
)
from repro.minplus.deviation import (
    horizontal_deviation,
    vertical_deviation,
    lower_pseudo_inverse,
    upper_pseudo_inverse,
    upper_pseudo_inverse_batch,
    first_crossing,
)

__all__ = [
    "Segment",
    "Curve",
    "zero",
    "constant",
    "affine",
    "token_bucket",
    "rate_latency",
    "staircase",
    "from_points",
    "step",
    "min_plus_conv",
    "min_plus_deconv",
    "max_plus_conv",
    "is_subadditive",
    "subadditive_closure",
    "upper_approximation",
    "lower_approximation",
    "approximation_error",
    "horizontal_deviation",
    "vertical_deviation",
    "lower_pseudo_inverse",
    "upper_pseudo_inverse",
    "upper_pseudo_inverse_batch",
    "first_crossing",
]
