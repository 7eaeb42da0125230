"""Exact rational arithmetic primitives.

`fractions.Fraction` is the carrier for every rational quantity in the
package (parameters, traces, density values); it is always stored reduced
with a positive denominator, which the square-class tests below rely on.
Everything here is pure and side-effect free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Optional

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the strict "a/b" / "a" wire format (no whitespace, no decimals)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q) -> str:
    """Inverse of parse_rational: "a/b" for non-integers, bare "a" otherwise."""
    return str(Fraction(q))


class SquareKind(Enum):
    SQUARE = "square"
    NON_SQUARE = "non-square"
    NEGATIVE_NON_SQUARE = "negative-non-square"


@dataclass(frozen=True)
class SquareClass:
    """Outcome of a rational square test; root is present (and >= 0) iff SQUARE."""

    kind: SquareKind
    root: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.kind is SquareKind.SQUARE


_NON_SQUARE = SquareClass(SquareKind.NON_SQUARE)
_NEGATIVE = SquareClass(SquareKind.NEGATIVE_NON_SQUARE)


def is_square(q) -> SquareClass:
    """Exact square test for a rational.

    A reduced fraction is a square iff numerator and denominator are both
    perfect squares; negative values are never squares (tagged separately
    so callers can distinguish sign failures from genuine non-squares).
    """
    q = Fraction(q)
    if q < 0:
        return _NEGATIVE
    rn = isqrt(q.numerator)
    if rn * rn != q.numerator:
        return _NON_SQUARE
    rd = isqrt(q.denominator)
    if rd * rd != q.denominator:
        return _NON_SQUARE
    return SquareClass(SquareKind.SQUARE, Fraction(rn, rd))


def is_r_scaled_square(q, r: int, sign: int) -> SquareClass:
    """Test whether q = sign * r * b**2 for a rational b, returning b when so."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return is_square(Fraction(q) / (sign * r))


def rth_root(n: int, r: int) -> Optional[int]:
    """Exact integer r-th root of a positive integer, or None."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    if r == 2:
        x = isqrt(n)
        return x if x * x == n else None
    # Newton iteration on integers; converges from above.
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x if x**r == n else None
