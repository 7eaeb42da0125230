import json
import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right
from math import isqrt, prod
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import pytest

from apparition import primes
from apparition.primes import (
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


def _by_is_prime(lo, hi):
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def test_primes_in_range_small_grid():
    for lo in range(60):
        for hi in range(80):
            assert primes_in_range(lo, hi) == _by_is_prime(lo, hi), (lo, hi)


def test_primes_in_range_random_and_edges():
    rng = random.Random(1977)
    ranges = []
    for _ in range(60):
        lo = rng.randrange(10**7)
        ranges.append((lo, lo + rng.randrange(3000)))
    for q in (3, 5, 7, 11, 97, 997, 3137, 3163):  # the sieve of q starts at q**2
        ranges += [(q * q, q * q + 400), (q * q - 1, q * q + 1), (q * q, q * q)]
    ranges += [(n, n) for n in rng.sample(range(10**7), 40) + [0, 1, 2, 3, 4, 9, 9999991]]
    for lo, hi in ranges:
        assert primes_in_range(lo, hi) == _by_is_prime(lo, hi), (lo, hi)


def test_segments_chain_to_primes_in_range(monkeypatch):
    # each piece holds only primes of its own _SEGMENT-wide slice of the range
    lo, hi = 10**7 - 5, 10**7 + 2 * primes._SEGMENT + 100
    pieces = [list(primes._segment_primes(*piece)) for piece in primes.segment_masks(lo, hi)]
    assert len(pieces) == 3
    for k, piece in enumerate(pieces):
        seg_lo = lo + k * primes._SEGMENT
        assert all(seg_lo <= p < seg_lo + primes._SEGMENT for p in piece)
    assert sum(pieces, []) == primes_in_range(lo, hi)
    # narrow segments: every random range straddles segment edges
    monkeypatch.setattr(primes, "_SEGMENT", 64)
    rng = random.Random(1017)
    for _ in range(40):
        lo = rng.randrange(10**7)
        hi = lo + rng.randrange(1000)
        assert list(iter_primes(hi, start=lo)) == _by_is_prime(lo, hi), (lo, hi)
    assert list(iter_primes(1000)) == _by_is_prime(0, 1000)


def test_pi_of_ten_million():
    assert len(sieve(10**7)) == 664579


def test_base_primes_sieved_once_per_range(monkeypatch):
    # a sweep whose segments end at growing sqrt(hi) must not re-sieve the
    # base primes for each segment
    lo, hi = 10**8 - 4 * primes._SEGMENT + 1, 10**8
    sieve_range = primes.primes_in_range
    want = sieve_range(lo, hi)
    assert len(list(primes.segment_masks(lo, hi))) == 4
    calls = []

    def spy(lo, hi):
        if lo == 2:  # a base sieve, not a segment
            calls.append(hi)
        return sieve_range(lo, hi)

    monkeypatch.setattr(primes, "primes_in_range", spy)
    assert list(iter_primes(hi, start=lo)) == want
    # the base up to 10**4 is sieved once for all four segments, and the
    # bases of that base (up to 10**2, 10 and 3) once with it
    assert calls == [isqrt(hi), 10**2, 10, 3]


def test_factorize_examples():
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(1) == {}
    assert factorize(10**6 + 1) == {101: 1, 9901: 1}
    with pytest.raises(ValueError):
        factorize(0)


# the bound below which is_prime decides, and so factorize answers
MR_BOUND = 3_317_044_064_679_887_385_961_981
MERSENNE_89 = 2**89 - 1  # prime, past MR_BOUND


def test_factorize_primality_bound():
    # a cofactor free of small primes at or past the bound is refused at once
    for n in (MERSENNE_89, 2 * MERSENNE_89, 3**5 * 997 * MERSENNE_89, MR_BOUND, (2**61 - 1) ** 2):
        with pytest.raises(ValueError, match=f"^cannot factor {n}: "):
            factorize(n)
    # a bound-sized smooth part does not count, only the cofactor
    assert factorize(2**100 * 3**7 * 1009) == {2: 100, 3: 7, 1009: 1}
    n = MR_BOUND - 2  # just below: answered
    _check_factorization(n, factorize(n))


def _trial_division(n, base):
    """Frozen reference: divide by each prime q while q * q <= m, stopping
    early once the cofactor m passes is_prime (tested on its own here)."""
    out = {}
    m = n
    m_prime = is_prime(m)
    for q in base:
        if m_prime or q * q > m:
            break
        if m % q == 0:
            e = 0
            while m % q == 0:
                m //= q
                e += 1
            out[q] = e
            m_prime = is_prime(m)
    if m > 1:
        out[m] = 1
    return out


def test_factorize_matches_trial_division():
    base = sieve(1 << 20)
    rng = random.Random(1040)
    for _ in range(20_000):
        n = rng.randrange(1, 1 << 40)
        fac = factorize(n)
        assert fac == _trial_division(n, base) and list(fac) == sorted(fac), n


def test_factorize_across_the_gcd_switch():
    # from 10**6 on factorize reads its trial primes from one gcd; every n
    # below 2*10**6 matches the walk down a smallest-prime-factor table, and
    # the n around the switch match the frozen trial-division reference too
    limit = 2 * 10**6
    spf = spf_table(limit)
    for n in range(1, limit):
        want, m = {}, n
        while m > 1:
            q = spf[m]
            want[q] = want.get(q, 0) + 1
            m //= q
        assert factorize(n) == want, n
    base = sieve(1 << 11)
    for n in range(10**6 - 3000, 10**6 + 3000):
        assert factorize(n) == _trial_division(n, base), n


def _check_factorization(n, fac):
    assert prod(q**e for q, e in fac.items()) == n, n
    assert all(is_prime(q) and e >= 1 for q, e in fac.items()), n
    assert list(fac) == sorted(fac), n


def _random_prime(rng, bits):
    while True:
        q = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(q):
            return q


def test_factorize_properties_by_size():
    rng = random.Random(81)
    for bits in range(20, 82):
        for _ in range(4):
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            _check_factorization(n, factorize(n))
        # composite cofactors that rho has to split, with the small part mixed in
        if bits >= 40:
            a = _random_prime(rng, bits // 4)
            b = _random_prime(rng, bits - bits // 4 - 6)
            n = rng.randrange(1, 64) * a * b
            _check_factorization(n, factorize(n))
            assert a in factorize(n) and b in factorize(n)


def test_factorize_prime_powers():
    rng = random.Random(3)
    for bits, e in ((40, 2), (27, 3), (16, 5), (11, 7), (10, 8), (20, 4), (13, 6)):
        q = _random_prime(rng, bits)
        assert factorize(q**e) == {q: e}, (q, e)
        assert factorize(6 * q**e) == {2: 1, 3: 1, q: e}, (q, e)
    q, r = _random_prime(rng, 13), _random_prime(rng, 13)
    lo, hi = min(q, r), max(q, r)
    assert factorize((q * r) ** 3) == {lo: 3, hi: 3}  # a power of a composite
    fac = factorize(q**2 * r)
    assert fac == {q: 2, r: 1} and list(fac) == [lo, hi]
    assert factorize(1009**8) == {1009: 8}  # the largest exponent below the bound
    assert factorize(997**9) == {997: 9}  # all trial division


def test_factorize_carmichael_and_strong_pseudoprimes():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185):
        fac = factorize(n)
        _check_factorization(n, fac)
        assert len(fac) >= 3 and all(e == 1 for e in fac.values())
    # Chernick's (6k + 1)(12k + 1)(18k + 1) with all three prime, k = 1000051
    k = 1_000_051
    assert factorize((6 * k + 1) * (12 * k + 1) * (18 * k + 1)) == {
        6 * k + 1: 1, 12 * k + 1: 1, 18 * k + 1: 1,
    }
    assert factorize(2047) == {23: 1, 89: 1}
    assert factorize(1_373_653) == {829: 1, 1657: 1}
    assert factorize(25_326_001) == {2251: 1, 11251: 1}
    assert factorize(3_215_031_751) == {151: 1, 751: 1, 28351: 1}
    assert factorize(4_759_123_141) == {48_781: 1, 97_561: 1}
    assert factorize(1_122_004_669_633) == {611_557: 1, 1_834_669: 1}
    assert factorize(3_825_123_056_546_413_051) == {149491: 1, 747451: 1, 34233211: 1}


def test_factorize_edge_inputs():
    assert factorize(1) == {}
    for n in (0, -1, -12):
        with pytest.raises(ValueError, match="n must be positive"):
            factorize(n)


def test_factorize_balanced_semiprimes():
    # the worst case for rho below the bound: two primes of about 40 bits,
    # among them the strong pseudoprime to the first twelve prime bases
    rng = random.Random(4040)
    cases = [(399_165_290_221, 798_330_580_441)]
    cases += [tuple(sorted((_random_prime(rng, 40), _random_prime(rng, 40)))) for _ in range(2)]
    cases += [tuple(sorted((_random_prime(rng, 41), _random_prime(rng, 40))))]
    src = str(Path(primes.__file__).parents[1])
    code = (
        "import json, sys; from apparition.primes import factorize; "
        "print(json.dumps([list(factorize(int(n))) for n in sys.argv[1:]]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *(str(a * b) for a, b in cases)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [list(c) for c in cases]


def test_is_prime_matches_sieve():
    assert [n for n in range(-5, 2 * 10**6 + 1) if is_prime(n)] == sieve(2 * 10**6)


def test_is_prime_tier_boundaries():
    # strong pseudoprimes to every base of the tier below each boundary;
    # 3_215_031_751, the least to bases 2, 3, 5 and 7, now lies inside
    # Jaeschke's {2, 7, 61} tier
    for n in (2047, 1_373_653, 25_326_001, 3_215_031_751, 4_759_123_141,
              1_122_004_669_633, 3_474_749_660_383,
              341_550_071_728_321, 3_825_123_056_546_413_051,
              318_665_857_834_031_151_167_461):
        assert not is_prime(n)
    # Jaeschke's bounds are strong pseudoprimes to the bases of their tier
    for n, bases in primes._MR_TIERS[3:5]:
        assert _strong_probable_prime(n, bases), n
    # a strong pseudoprime to bases 2..11, inside the tier that adds 13
    assert not is_prime(2_152_302_898_747)
    # primes just past the new boundaries, each taking the next tier's bases
    for n in (4_759_123_151, 1_122_004_669_637, 3_474_749_660_401, 341_550_071_728_361,
              3_825_123_056_546_413_057, 318_665_857_834_031_151_167_483):
        assert is_prime(n)
    assert is_prime(2**61 - 1)
    assert is_prime(10**18 + 3)
    with pytest.raises(ValueError):
        is_prime(4 * 10**24 + 37)


def _strong_probable_prime(n, bases):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_tiers_match_thirteen_bases():
    # every tier decides as all 13 bases of the last tier do: on random odd
    # n, on the first prime past each of them, and on Chernick numbers
    # (6k+1)(12k+1)(18k+1), Carmichael numbers when all three factors are prime
    all_bases = primes._MR_TIERS[-1][1]
    rng = random.Random(12)
    lo = 3
    for hi, _ in primes._MR_TIERS:
        ns = [rng.randrange(lo, hi) | 1 for _ in range(200)]
        for n in ns[:20]:
            while not _strong_probable_prime(n, all_bases):
                n += 2
            ns.append(n)
        k_max = max(2, int((hi / 1296) ** (1 / 3)))
        ns += [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
               for k in (rng.randrange(1, k_max) for _ in range(50))]
        for n in ns:
            if lo <= n < hi and n > max(all_bases):
                assert is_prime(n) == _strong_probable_prime(n, all_bases), n
        lo = hi


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
