"""Primes, primality and factoring: the integer primitives under every sweep.

- `prime_segments` / `iter_primes` / `sieve`: a segmented sieve of
  Eratosthenes over [start, limit], one `_SEGMENT`-wide bytearray at a
  time, with the base primes up to sqrt(limit) sieved once.
- `is_prime`: deterministic Miller-Rabin for n < 3.3*10**24, with a base
  set proven sufficient for each size of n.
- `factorize`: trial division by sieved primes up to sqrt(n), refused when
  sqrt(n) exceeds `FACTOR_SQRT_CAP` so a query cannot sieve gigabytes.
- `distinct_prime_factors`: the primes of `factorize`, ascending, for
  `ring.index`.  The partition sweep and the membership test of the
  non-divisor suite factor nothing: they read v_r(chi) from the ring
  kernel.
- `spf_table`: a smallest-prime-factor table, kept for the benchmark
  tracer; no program path reads it.
- `valuation`: the exponent v_r(n) of a prime r in n.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import isqrt
from typing import Iterator

_SEGMENT = 1 << 17
FACTOR_SQRT_CAP = 1 << 24  # sieving base primes to this costs about 50 MB

# (exclusive bound, bases): no strong pseudoprime to all the bases lies below
# the bound (Pomerance, Selfridge and Wagstaff 1980; Sorenson and Webster,
# Math. Comp. 2017).
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)

# grow-only caches
_base_primes: list = [2, 3, 5, 7]
_base_limit = 10
_spf: list = []


def _simple_sieve(limit: int) -> list:
    mask = bytearray([1]) * (limit + 1)
    mask[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if mask[i]:
            step = len(range(i * i, limit + 1, i))
            mask[i * i :: i] = b"\x00" * step
    return [i for i in range(2, limit + 1) if mask[i]]


def base_primes(limit: int) -> list:
    """Primes up to limit, from a grow-only module cache."""
    global _base_primes, _base_limit
    if limit > _base_limit:
        _base_primes = _simple_sieve(limit)
        _base_limit = limit
    return _base_primes[: bisect_right(_base_primes, limit)]


def primes_in_range(lo: int, hi: int) -> list:
    """Primes p with lo <= p <= hi via a sieved segment."""
    if hi < 2 or hi < lo:
        return []
    lo = max(lo, 2)
    base = base_primes(isqrt(hi))
    mask = bytearray([1]) * (hi - lo + 1)
    for q in base:
        start = max(q * q, ((lo + q - 1) // q) * q)
        if start > hi:
            continue
        mask[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return list(compress(range(lo, hi + 1), mask))


def prime_segments(lo: int, hi: int) -> Iterator[list]:
    """The primes of [lo, hi] as one ascending list per `_SEGMENT`-wide piece."""
    if 2 <= hi and lo <= hi:
        base_primes(isqrt(hi))  # sieved once: no segment re-sieves a longer base
    while lo <= hi:
        seg_hi = min(lo + _SEGMENT - 1, hi)
        yield primes_in_range(lo, seg_hi)
        lo = seg_hi + 1


def iter_primes(limit: int, start: int = 2) -> Iterator[int]:
    """Yield primes in [start, limit] ascending, one segment at a time."""
    for segment in prime_segments(max(start, 2), limit):
        yield from segment


def sieve(limit: int) -> list:
    """All primes <= limit, ascending (segmented internally)."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    return list(iter_primes(limit))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3*10**24."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for bound, bases in _MR_TIERS:
        if n < bound:
            break
    else:
        raise ValueError(f"primality of {n} is not decided above {_MR_TIERS[-1][0]}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n: int, r: int) -> int:
    """Exponent of r in the nonzero integer n, for r >= 2."""
    if n == 0 or r < 2:
        raise ValueError("need n != 0 and r >= 2")
    j = 0
    while n % r == 0:
        n //= r
        j += 1
    return j


def factorize(n: int) -> dict:
    """Complete factorization {prime: exponent} by trial division.

    Raises ValueError when isqrt(n) exceeds FACTOR_SQRT_CAP.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if isqrt(n) > FACTOR_SQRT_CAP:
        raise ValueError(f"cannot factor {n}: sqrt(n) exceeds {FACTOR_SQRT_CAP}")
    if _base_limit * _base_limit < n:
        base_primes(isqrt(n))
    out: dict = {}
    m = n
    for q in _base_primes:
        if q * q > m:
            break
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out[q] = e
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def spf_table(bound: int) -> list:
    """Smallest-prime-factor table for 0..bound (cached, grow-only)."""
    global _spf
    if len(_spf) <= bound:
        table = list(range(bound + 1))
        for i in range(2, isqrt(bound) + 1):
            if table[i] == i:
                for j in range(i * i, bound + 1, i):
                    if table[j] == j:
                        table[j] = i
        _spf = table
    return _spf


def distinct_prime_factors(n: int) -> list:
    """Distinct primes dividing n, ascending."""
    return list(factorize(n))
