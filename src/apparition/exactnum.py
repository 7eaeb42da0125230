"""Exact rational arithmetic primitives.

`fractions.Fraction` is the carrier for every rational quantity in the
package (parameters, traces, density values); it is always stored reduced
with a positive denominator, which the square-class tests below rely on.
Everything here is pure and side-effect free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

# ASCII digits only: \d, and int(), also take the digits of other scripts
_DIGITS = "[0-9]+"
_RATIONAL_RE = re.compile(rf"[+-]?{_DIGITS}(?:/{_DIGITS})?")
_DECIMAL_RE = re.compile(_DIGITS)


def parse_rational(text: str) -> Fraction:
    """Parse the strict "a/b" / "a" wire format (no whitespace, no decimals)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_decimal(text: str) -> int:
    """Parse a natural number written in ASCII digits alone, the digits
    rule of `parse_rational` (no sign, underscore or whitespace)."""
    if not isinstance(text, str) or not _DECIMAL_RE.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


@dataclass(frozen=True)
class SquareClass:
    """Outcome of a rational square test: true iff there is a root, which is
    then >= 0 (a root of 0 still reads as a square)."""

    root: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.root is not None


def is_square(q) -> SquareClass:
    """Exact square test for a rational.

    A reduced fraction is a square iff it is not negative and its numerator
    and denominator are both perfect squares.
    """
    q = Fraction(q)
    if q < 0:
        return SquareClass()
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return SquareClass()
    return SquareClass(Fraction(rn, rd))


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
    if r >= n.bit_length():  # 1 < n < 2**r: no integer root
        return None
    # Newton iteration on integers; converges from above.
    x = 1 << -(-n.bit_length() // r)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x if x**r == n else None
