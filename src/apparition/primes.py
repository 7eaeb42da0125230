"""Primes, primality and factoring: the integer primitives under every sweep.

- `segment_masks`: one segmented sieve of Eratosthenes (Bays and Hudson,
  BIT 1977) over [start, limit].  Each `_SEGMENT`-wide piece (2**19
  numbers) is a bytearray over its odd numbers only, 2**18 bytes, yielded
  as (first, mask) with mask[i] = 1 exactly when first + 2*i is prime.
  The base primes up to sqrt(limit) are sieved once per range and used by
  every piece; each clears its odd multiples from max(q**2, lo) on, by
  slice assignment from one zero buffer per piece.  The partition sweep
  reads the masks themselves, counting whole residue classes with
  `bytes.count`; `iter_primes`, `primes_in_range` and `sieve` stream the
  primes of the same masks through one `compress` reader,
  `_segment_primes`, which the sweep also runs on the segments its
  class pass skips, so a sweep never holds a list of a segment's
  primes.  Nothing is cached between calls: the module holds no
  mutable state.
- `is_prime`: deterministic Miller-Rabin for n < 3.3*10**24.  Each tier
  of `_MR_TIERS` takes the first k primes as bases below the smallest
  strong pseudoprime to all of them (k = 1, 2, 3, 4, 6, 7, 9, 12, 13), so
  n below 3.5*10**12 takes at most six bases and only n past 3.2*10**23
  takes all thirteen.
- `factorize`: trial division by the primes below 1000, then Brent's
  variant of Pollard rho on the cofactor, with `is_prime` on every piece.
  It answers for every n whose cofactor `is_prime` can decide (below
  3.3*10**24) and raises ValueError past that.  It is the package's one
  factoring path: `ring.chi_with_primes` factors p -+ 1 with it, and the
  non-divisor suite p -+ 1 (or 2p) below 10**4.
- `distinct_prime_factors`: the primes of `factorize`, ascending, for
  `ring.chi_with_primes`, which keeps those that divide chi for the
  bridge suite's rank certificate.  The partition sweep, the cubic,
  circular, quadmap and splitting suites, the membership test of the
  non-divisor suite and the classifier factor nothing: all but the last
  read v_r(chi) from the ring kernels.
- `base_primes` and `spf_table`: the primes up to a bound, and a
  smallest-prime-factor table built on each call; the benchmark tracer
  names both, and no program path reads the table.
- `valuation`: the exponent v_r(n) of a prime r in n.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt
from typing import Iterator

_SEGMENT = 1 << 19

# (exclusive bound, bases): no strong pseudoprime to all the bases lies below
# the bound (Pomerance, Selfridge and Wagstaff 1980; Jaeschke 1993; Jiang
# and Deng 2014; Sorenson and Webster, Math. Comp. 2017).
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def base_primes(limit: int) -> list:
    """Primes up to limit, ascending: the base of a sieve up to limit**2."""
    return primes_in_range(2, limit)


def segment_masks(lo: int, hi: int) -> Iterator[tuple]:
    """(first, mask) for each `_SEGMENT`-wide piece of [lo, hi], ascending.

    mask[i] is 1 exactly when first + 2*i is prime, over the odd numbers
    of the piece from 3 on (first is the least of them; 2 has no place in
    a mask).  The base primes up to isqrt(hi) are sieved once for every
    piece.
    """
    lo = max(lo, 2)
    base = base_primes(isqrt(hi))[1:] if 4 <= hi and lo <= hi else []  # the odd ones
    while lo <= hi:
        seg_hi = min(lo + _SEGMENT - 1, hi)
        first = max(lo, 3) | 1
        size = max((seg_hi - first) // 2 + 1, 0)  # mask[i] stands for first + 2*i
        mask = bytearray([1]) * size
        zeros = memoryview(bytes(size // 3 + 1))  # the longest slice is q = 3's
        for q in base:
            if q * q >= first:
                i = (q * q - first) >> 1
            else:  # first + 2*i is the first odd multiple of q at or past first
                i = -first % q
                if i & 1:
                    i += q
                i >>= 1
            if i < size:
                mask[i::q] = zeros[: (size - 1 - i) // q + 1]
        yield first, mask
        lo = seg_hi + 1


def _segment_primes(first: int, mask: bytearray) -> Iterator[int]:
    """The odd primes that a piece's mask marks, ascending."""
    return compress(range(first, first + 2 * len(mask), 2), mask)


def iter_primes(limit: int, start: int = 2) -> Iterator[int]:
    """Yield primes in [start, limit] ascending, one segment at a time."""
    if start <= 2 <= limit:
        yield 2
    for first, mask in segment_masks(start, limit):
        yield from _segment_primes(first, mask)


def primes_in_range(lo: int, hi: int) -> list:
    """Primes p with lo <= p <= hi, ascending."""
    return list(iter_primes(hi, start=lo))


_TRIAL_LIMIT = 1000
_SMALL_PRIMES = tuple(primes_in_range(2, _TRIAL_LIMIT))  # trial divisors of factorize


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
    """Complete factorization {prime: exponent} of n >= 1, primes ascending.

    Trial division by the primes below 1000, then Brent's variant of
    Pollard rho on the cofactor.  Raises ValueError ("cannot factor n")
    when the cofactor is at or above the bound of `is_prime`, 3.3*10**24.
    Below it a composite piece has a prime factor below 2**41, so rho
    needs no iteration budget: in the worst case, two primes of about 40
    bits, it took 0.2-0.9 s (Python 3.11 on 2 vCPUs).
    """
    if n < 1:
        raise ValueError("n must be positive")
    out: dict = {}
    m = n
    for q in _SMALL_PRIMES:
        if q * q > m:
            if m > 1:
                out[m] = 1  # no prime up to sqrt(m) divides it
            return out
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out[q] = e
    if m > 1:  # no prime below _TRIAL_LIMIT divides m, which may be composite
        out.update(_cofactor_factors(n, m))
    return out


def _cofactor_factors(n: int, m: int) -> dict:
    """{prime: exponent} of the factor m of n, free of primes below
    _TRIAL_LIMIT, ascending."""
    if m >= _MR_TIERS[-1][0]:
        raise ValueError(
            f"cannot factor {n}: its cofactor {m} has no prime factor below {_TRIAL_LIMIT}, "
            f"and primality is decided only below {_MR_TIERS[-1][0]}"
        )
    found: dict = {}
    pieces = [(m, 1)]  # (piece, multiplicity)
    while pieces:
        piece, k = pieces.pop()
        if is_prime(piece):
            found[piece] = found.get(piece, 0) + k
            continue
        root, e = _perfect_power(piece)
        if e > 1:
            pieces.append((root, k * e))
        else:
            d = _brent(piece)
            pieces += [(d, k), (piece // d, k)]
    return dict(sorted(found.items()))


def _perfect_power(m: int) -> tuple:
    """(root, e) with root**e = m and e > 1, or (m, 1) when m is no power.

    Every prime factor of m exceeds _TRIAL_LIMIT, so _TRIAL_LIMIT**e < m.
    For m < 2**82 a float root is within 10**-3 of an exact one, so
    rounding finds it.
    """
    e = 2
    while _TRIAL_LIMIT**e < m:
        root = round(m ** (1 / e))
        if root**e == m:
            return root, e
        e += 1
    return m, 1


def _brent(m: int) -> int:
    """A proper divisor of m, composite and not a perfect power.

    Brent's variant of Pollard rho on y -> y**2 + c (Brent, BIT 1980):
    the saved x is compared with the next r values of y, for r = 1, 2,
    4, ..., with the differences multiplied together and one gcd per
    batch of isqrt(r) of them (that balances the gcds against the steps
    run past a hit).  When a batch's gcd is m itself, its steps are redone
    one gcd at a time; when that gives m too, every factor cycled at once
    and the next c is tried.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            batch = isqrt(r)
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % m
                    q = q * (x - y) % m
                g = gcd(q, m)
                k += batch
            r <<= 1
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(x - ys, m)
        if g != m:
            return g


def spf_table(bound: int) -> list:
    """Smallest-prime-factor table for 0..bound."""
    table = list(range(bound + 1))
    for i in range(2, isqrt(bound) + 1):
        if table[i] == i:
            for j in range(i * i, bound + 1, i):
                if table[j] == j:
                    table[j] = i
    return table


def distinct_prime_factors(n: int) -> list:
    """Distinct primes dividing n, ascending."""
    return list(factorize(n))
