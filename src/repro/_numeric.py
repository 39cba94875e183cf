"""Exact rational arithmetic helpers shared across the library.

The whole curve algebra works on :class:`fractions.Fraction` so that
breakpoint intersections, busy-window fixpoints and deviation maxima are
computed exactly.  Floats supplied by callers are converted via
``Fraction(str(x))`` (decimal-faithful) rather than ``Fraction(x)``
(binary-faithful) because users writing ``0.1`` mean one tenth.

Positive infinity is represented by the module-level sentinel :data:`INF`,
which compares greater than every rational and supports the handful of
arithmetic operations the library needs.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Union

__all__ = [
    "Q", "INF", "Num", "NumLike", "as_q", "is_inf", "q_min", "q_max",
    "ceil_div", "scaled_int",
]

#: Alias used throughout the library for exact rationals.
Q = Fraction


class _Infinity:
    """Positive infinity sentinel, totally ordered above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __eq__(self, other: object) -> bool:
        return other is self or other == float("inf")

    def __hash__(self) -> int:
        return hash(float("inf"))

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self or other == float("inf")

    def __gt__(self, other: object) -> bool:
        return not (other is self or other == float("inf"))

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("INF - INF is undefined")
        return self

    def __neg__(self):
        raise ArithmeticError("negative infinity is not supported")

    def __mul__(self, other):
        if other == 0:
            raise ArithmeticError("INF * 0 is undefined")
        if other < 0:
            raise ArithmeticError("negative infinity is not supported")
        return self

    __rmul__ = __mul__

    def __float__(self) -> float:
        return float("inf")


#: The unique positive-infinity sentinel.
INF = _Infinity()

#: A finite exact number.
Num = Fraction
#: Anything accepted where a number is expected.
NumLike = Union[int, float, Fraction, str]


def as_q(value: NumLike) -> Fraction:
    """Convert *value* to an exact :class:`~fractions.Fraction`.

    Integers and rationals convert losslessly.  Floats convert through
    their ``repr`` so that ``as_q(0.1) == Fraction(1, 10)``.

    Raises:
        TypeError: if *value* is not a real number or numeric string.
        ValueError: if *value* is NaN or infinite (use :data:`INF`
            explicitly where the API supports it).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid numbers here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"cannot convert non-finite float {value!r} to a rational")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected a number, got {type(value).__name__}")


def is_inf(value: object) -> bool:
    """Return True iff *value* is the :data:`INF` sentinel (or float inf)."""
    return value is INF or value == float("inf")


def q_min(*values):
    """Minimum of rationals and/or :data:`INF` values."""
    best = None
    for v in values:
        if best is None or v < best:
            best = v
    if best is None:
        raise ValueError("q_min() requires at least one value")
    return best


def q_max(*values):
    """Maximum of rationals and/or :data:`INF` values."""
    best = None
    for v in values:
        if best is None or v > best:
            best = v
    if best is None:
        raise ValueError("q_max() requires at least one value")
    return best


def ceil_div(numerator: int, denominator: int) -> int:
    """Exact ceiling division for integers (denominator > 0)."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -((-numerator) // denominator)


def scaled_int(value: Fraction, scale: int) -> int:
    """``value * scale`` as an int (*scale* is a multiple of the
    denominator of *value*)."""
    return value.numerator * (scale // value.denominator)
