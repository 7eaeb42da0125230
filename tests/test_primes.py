import random
from bisect import bisect_left, bisect_right
from math import isqrt

from hypothesis import given
from hypothesis import strategies as st

import pytest

from apparition import primes
from apparition.primes import (
    FACTOR_SQRT_CAP,
    distinct_prime_factors,
    factorize,
    is_prime,
    iter_primes,
    primes_in_range,
    sieve,
    spf_table,
    valuation,
)


def _is_prime_td(n):
    if n < 2:
        return False
    return all(n % i for i in range(2, isqrt(n) + 1))


def test_small():
    assert sieve(10) == [2, 3, 5, 7]
    assert sieve(2) == [2]
    with pytest.raises(ValueError):
        sieve(1)


def test_against_trial_division():
    marked = set(sieve(10**5))
    for n in range(2, 10**5 + 1):
        assert (n in marked) == _is_prime_td(n)


def test_pi_of_a_million():
    assert len(sieve(10**6)) == 78498


def test_segmented_matches_direct():
    assert list(iter_primes(10**4)) == sieve(10**4)
    assert primes_in_range(1000, 2000) == [p for p in sieve(2000) if p >= 1000]
    assert primes_in_range(0, 1) == []
    assert primes_in_range(9999990, 10000010) == [9999991]  # straddles a segment boundary


def test_primes_in_range_matches_simple_sieve():
    bound = 300_000
    ref = [n for n in range(bound + 1) if is_prime(n)]

    def expect(lo, hi):
        return ref[bisect_left(ref, lo) : bisect_right(ref, hi)]

    rng = random.Random(20241030)
    for _ in range(300):
        lo = rng.randrange(bound)
        hi = min(lo + rng.randrange(3000), bound)
        assert primes_in_range(lo, hi) == expect(lo, hi), (lo, hi)
    for lo in (0, 1, 2):
        for hi in (0, 1, 2, 3, 4, 30, 1000):
            assert primes_in_range(lo, hi) == expect(lo, hi), (lo, hi)
    assert primes_in_range(10, 9) == [] and primes_in_range(1000, 3) == []
    for n in (2, 3, 4, 97, 100, 99991, 299_993):
        assert primes_in_range(n, n) == expect(n, n), n


def test_base_primes_sieved_once_per_range(monkeypatch):
    # a sweep whose segments end at growing sqrt(hi) must not re-sieve the
    # base primes for each segment
    monkeypatch.setattr(primes, "_base_primes", [2, 3, 5, 7])
    monkeypatch.setattr(primes, "_base_limit", 10)
    calls = []
    sieve_range = primes.primes_in_range

    def spy(lo, hi):
        if lo == 2:  # a base sieve, not a segment
            calls.append(hi)
        return sieve_range(lo, hi)

    monkeypatch.setattr(primes, "primes_in_range", spy)
    lo, hi = 10**8 - 4 * primes._SEGMENT, 10**8
    assert list(iter_primes(hi, start=lo)) == sieve_range(lo, hi)
    # the base up to 10**4 is sieved once, and its own base up to 10**2 with it
    assert calls == [isqrt(hi), isqrt(isqrt(hi))]


def test_factorize_examples():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    assert factorize(10**6 + 1) == {101: 1, 9901: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_bound():
    with pytest.raises(ValueError):
        factorize((FACTOR_SQRT_CAP + 1) ** 2)
    with pytest.raises(ValueError):
        factorize(10**18 + 4)


def test_is_prime_matches_sieve():
    assert [n for n in range(-5, 2 * 10**6 + 1) if is_prime(n)] == sieve(2 * 10**6)


def test_is_prime_tier_boundaries():
    # strong pseudoprimes to every base of the tier below each boundary
    for n in (2047, 1_373_653, 25_326_001, 3_215_031_751, 3_825_123_056_546_413_051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 3)
    with pytest.raises(ValueError):
        is_prime(4 * 10**24 + 37)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-54, 3) == 3
    assert valuation(7, 3) == 0
    for n, r in ((0, 2), (5, 1)):
        with pytest.raises(ValueError):
            valuation(n, r)


def test_factorize_reconstruction_range():
    for n in range(1, 5000):
        prod = 1
        for q, e in factorize(n).items():
            assert _is_prime_td(q)
            prod *= q**e
        assert prod == n


@given(st.integers(1, 10**6))
def test_factorize_reconstruction_random(n):
    prod = 1
    for q, e in factorize(n).items():
        prod *= q**e
    assert prod == n


def test_spf_consistency():
    spf = spf_table(5000)
    for n in range(2, 5000):
        assert spf[n] == min(factorize(n))
        assert distinct_prime_factors(n) == sorted(factorize(n))
