from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apparition.chebyshev import (
    cheb_c_exact,
    cheb_c_mod,
    cheb_u_exact,
    cheb_u_mod,
    cheb_v_exact,
    cheb_v_mod,
    cheb_w_exact,
    cheb_w_mod,
    lucas_lift,
    u_table_exact,
)
from apparition.experiments import identity_suite
from apparition.primes import sieve

PRIMES = [p for p in sieve(200) if p > 2]


def test_u_values():
    # recurrence 0, 1, 3, 8, 21, 55 at x = 3
    assert [cheb_u_exact(n, 3) for n in range(6)] == [0, 1, 3, 8, 21, 55]
    assert cheb_u_exact(3, 3) == 8
    for n in range(101):
        assert cheb_u_exact(n, 2) == n


def test_c_values():
    assert cheb_c_exact(3, 3) == 18
    assert cheb_c_exact(2, 5) == 23
    assert cheb_c_exact(0, 9) == 2
    for n in range(50):
        assert cheb_c_exact(n, 2) == 2


def test_w_v_values():
    # W_{2m+1}(2) = 2m+1
    for m in range(25):
        assert cheb_w_exact(m, 2) == 2 * m + 1
    assert cheb_v_exact(0, F(7, 3)) == 1  # V_1 = U_1 - U_0
    assert cheb_w_exact(1, 3) == 4  # W_3 = U_2 + U_1


def test_negative_index():
    for n in range(1, 8):
        assert cheb_u_exact(-n, F(5, 3)) == -cheb_u_exact(n, F(5, 3))
        assert cheb_c_exact(-n, F(5, 3)) == cheb_c_exact(n, F(5, 3))
    assert cheb_u_mod(-5, 3, 11) == (-cheb_u_mod(5, 3, 11)) % 11


@settings(max_examples=60)
@given(st.integers(0, 50), st.integers(-50, 50), st.sampled_from(PRIMES))
def test_modular_matches_exact(n, x, p):
    assert cheb_u_mod(n, x, p) == cheb_u_exact(n, x) % p
    assert cheb_c_mod(n, x, p) == cheb_c_exact(n, x) % p
    if n <= 20:
        assert cheb_w_mod(n, x, p) == cheb_w_exact(n, x) % p
        assert cheb_v_mod(n, x, p) == cheb_v_exact(n, x) % p


@settings(max_examples=60)
@given(st.integers(0, 1000), st.integers(0, 10**4), st.sampled_from(PRIMES))
def test_pell_identity_mod(s, x, p):
    # C_s**2 - (x**2 - 4) U_s**2 = 4 mod p, evaluated by doubling
    c, u = cheb_c_mod(s, x, p), cheb_u_mod(s, x, p)
    assert (c * c - (x * x - 4) * u * u) % p == 4 % p


@given(st.integers(1, 10**12), st.integers(0, 10**6), st.sampled_from(PRIMES))
@settings(max_examples=40)
def test_doubling_consistency_huge(n, x, p):
    # C_{2n} = C_n**2 - 2 and U_{2n} = U_n*C_n must hold for huge n
    assert cheb_c_mod(2 * n, x, p) == (cheb_c_mod(n, x, p) ** 2 - 2) % p
    assert cheb_u_mod(2 * n, x, p) == cheb_u_mod(n, x, p) * cheb_c_mod(n, x, p) % p


def test_u_table():
    assert u_table_exact(3, 5) == [0, 1, 3, 8, 21, 55]
    assert u_table_exact(F(2, 7), 0) == [0] and u_table_exact(F(2, 7), 1) == [0, 1]


@settings(max_examples=80)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(0, 60))
def test_u_table_matches_fraction_recurrence(a, b, n):
    # the integer-numerator table holds the values of U_{k+1} = x*U_k - U_{k-1}
    # taken in Fractions, each in lowest terms with a positive denominator
    x = F(a, b)
    want = [F(0), F(1)]
    for _ in range(n - 1):
        want.append(x * want[-1] - want[-2])
    got = u_table_exact(x, n)
    assert got == want[: n + 1]
    assert [(u.numerator, u.denominator) for u in got] == [
        (u.numerator, u.denominator) for u in want[: n + 1]
    ]
    assert all(type(u) is F and u.denominator > 0 for u in got)


def test_lucas_lift():
    assert lucas_lift(3) == (5, 5)
    assert lucas_lift(-3) == (-1, -1)
    assert lucas_lift(F(2, 7)) == (16, 112)
    T, Q = lucas_lift(F(6, 5))
    assert F(T * T - 2 * Q, Q) == F(6, 5)
    with pytest.raises(ValueError):
        lucas_lift(-2)


def test_pell_identity_example():
    # s = 2, x = 5: 23**2 - 21*25 = 4
    assert 23**2 - (5 * 5 - 4) * 5**2 == 4


def test_identity_suite_passes():
    for t in (3, -3, F(2, 7)):
        rep = identity_suite(t)
        assert rep.passed, rep.violations[:3]
        assert rep.metrics["identities"] == 1020


def test_identity_suite_u4_split():
    # U_4 = C_2 * U_2 at t = 3: 21 = 7 * 3
    assert cheb_u_exact(4, 3) == cheb_c_exact(2, 3) * cheb_u_exact(2, 3) == 21
