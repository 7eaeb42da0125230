import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apparition.chebyshev import cheb_c_mod, cheb_c_table
from apparition.errors import BoundViolation, DenominatorDivisible, NotUnitDeterminant
from apparition.primes import factorize, is_prime, iter_primes, sieve, valuation
from apparition.ring import (
    ChiValuation,
    ModParam,
    RingElem,
    chi_from_residue,
    chi_valuation_by_order,
    chi_valuations_by_ladder,
    chi_with_primes,
    d_elem,
    elem_from_rationals,
    element_order,
    group_order,
    identity,
    index,
    index_by_scan,
    legendre,
    reduce_param,
    residue,
)


def _ladder(x, p, r, delta_char, reducible):
    """v_r(chi) at the one prime p by the ladder kernel, on x reduced mod p."""
    counts = [0] * (p.bit_length() + 1)
    chi_valuations_by_ladder((p,), r, delta_char, 0, reducible, x, 1, 0, counts)
    return counts.index(1)


ODD_PRIMES = [p for p in sieve(300) if p > 2]


def test_reduce_param():
    assert reduce_param(F(2, 7), 5).t_mod == 1  # 7^{-1} = 3 mod 5
    assert reduce_param(3, 11).t_mod == 3
    assert reduce_param(F(6, 5), 7).t_mod == 4  # 5^{-1} = 3 mod 7
    assert reduce_param(3, 11).delta_mod == 5
    with pytest.raises(DenominatorDivisible):
        reduce_param(F(2, 7), 7)
    with pytest.raises(ValueError):
        reduce_param(3, 2)
    with pytest.raises(ValueError):
        reduce_param(3, 9)


def test_mod_param_from_residue():
    # the unvalidated constructor that reduce_param and the suites share
    for t, p in ((F(2, 7), 5), (3, 11), (F(6, 5), 7), (2, 13), (-2, 13)):
        m = reduce_param(t, p)
        assert ModParam.from_residue(m.t_mod, p) == m
    assert ModParam.from_residue(3, 11) == ModParam(11, 3, 5)


def test_mul():
    m = reduce_param(3, 11)
    d = d_elem(m)
    assert d * d == RingElem(m, 3, 8)  # D^2 = [t, t^2-1]
    m7 = reduce_param(3, 7)
    x = RingElem(m7, 4, 6)
    assert identity(m7) * x == x
    neg_i = RingElem(m7, 0, 6)
    assert neg_i * neg_i == identity(m7)


def test_pow():
    m = reduce_param(3, 11)
    assert d_elem(m) ** 5 == identity(m)  # U_5(3) = 55 = 0, U_6(3) = 144 = 1
    m7 = reduce_param(3, 7)
    assert d_elem(m7) ** 4 == RingElem(m7, 0, 6)  # U_4 = 21 = 0, U_5 = 55 = 6
    x = RingElem(m7, 4, 6)
    assert x**0 == identity(m7)


def test_pow_matches_repeated_mul():
    m = reduce_param(F(2, 7), 13)
    x = RingElem(m, 5, 9)
    acc = identity(m)
    for n in range(12):
        assert x**n == acc
        acc = acc * x


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ODD_PRIMES + [10**9 + 7]),
    st.integers(0, 10**9 + 6),
    st.integers(0, 10**9 + 6),
    st.integers(0, 10**9 + 6),
    st.integers(0, 40),
    st.integers(0, 10**30),
)
@example(11, 3, 1, 9, 5, 10**30)  # det 0 and not zero: a zero divisor
@example(7, 3, 0, 0, 0, 3)  # the zero element; 0**0 = I
def test_pow_is_repeated_product(p, tn, x0, x1, n, big):
    # any element, det != 1 and det = 0 included: Y**n is the n-fold product
    # and Y**(a + b) = Y**a * Y**b, n = 0 and a = 0 included
    m = ModParam(p, tn % p, (tn * tn - 4) % p)
    y = RingElem(m, x0 % p, x1 % p)
    acc = identity(m)
    for _ in range(n):
        acc = acc * y
    assert y**n == acc
    assert y ** (n + big) == y**n * y**big
    assert y ** (2 * big) == y**big * y**big


def test_group_order():
    assert group_order(reduce_param(3, 11)) == 10  # delta = 5 is a square mod 11: p - 1
    assert group_order(reduce_param(-3, 7)) == 8  # delta = 5 is a non-square mod 7: p + 1
    # t = 9 = 2 mod 7: delta zero, order p
    assert group_order(reduce_param(9, 7)) == 7
    # t = 5 = -2 mod 7: order 2p
    assert group_order(reduce_param(5, 7)) == 14


def test_element_order():
    m = reduce_param(3, 7)
    neg_i = RingElem(m, 0, 6)
    assert element_order(neg_i, factorize(8)) == 2
    assert element_order(RingElem(m, 4, 6), factorize(8)) == 4  # trace 0
    m19 = reduce_param(3, 19)
    assert element_order(d_elem(m19), factorize(18)) == 9  # U_9(3) = 0 mod 19, D^9 = I
    with pytest.raises(NotUnitDeterminant):
        element_order(RingElem(m, 1, 1), factorize(8))
    with pytest.raises(BoundViolation):
        element_order(d_elem(m), factorize(3))


def test_index_examples():
    assert index(3, 11) == 5
    assert index(-3, 11) == 10  # Fibonacci bridge, F_10 = 55
    assert index(3, 7) == 8  # D^4 = -I mod 7
    assert index(3, 5) == 10  # 3 = -2 mod 5, delta-zero case
    assert index(9, 7) == 7  # t = 2 mod 7
    with pytest.raises(DenominatorDivisible):
        index(F(2, 7), 7)


def test_index_by_scan_examples():
    assert index_by_scan(3, 13) == 14  # U_7 = 0, D^7 = -I mod 13
    assert index_by_scan(-6, 3) == 4  # Pell bridge, L_4 = 12
    assert index_by_scan(3, 11) == 5


@pytest.mark.parametrize("t", [F(3), F(-3), F(2, 7), F(6, 5), F(2, 3), F(6), F(5, 2)])
def test_oracle_equivalence(t):
    for p in ODD_PRIMES:
        if t.denominator % p == 0:
            continue
        assert index(t, p) == index_by_scan(t, p), (t, p)


def test_chi_valuation_matches_scan_oracle():
    # the ts of acceptance criterion 1 and the reducible -5/2 = -2 - 1/2 and
    # 13/6 = 2/3 + 3/2; each scan is shared by the four r.  The rational t
    # takes builtin pow where it is reducible, its residue the trace ladder
    ts = [F(3), F(-3), F(2, 7), F(6, 5), F(2, 3), F(6), F(5, 2), F(10, 3), F(-5, 2), F(13, 6)]
    rs = (2, 3, 5, 7)
    delta_zero = p_is_r = 0
    for t in ts:
        for p in iter_primes(2000, start=3):
            if t.denominator % p == 0:
                continue
            tm = residue(t, p)
            chi = index_by_scan(t, p)
            delta_zero += (tm * tm - 4) % p == 0
            p_is_r += p in rs
            for r in rs:
                assert ChiValuation(tm, r)(p) == valuation(chi, r), (t, p, r)
                assert ChiValuation(t, r)(p) == valuation(chi, r), (t, p, r)
    assert delta_zero and p_is_r


def test_chi_valuation_edge_cases():
    # delta = 0: t = 3, p = 5 has chi = 2p = 10; t = -3, p = 5 has chi = p = 5
    assert index_by_scan(3, 5) == 10 and index_by_scan(-3, 5) == 5
    assert [ChiValuation(3, r)(5) for r in (2, 3, 5)] == [1, 0, 1]
    assert [ChiValuation(2, r)(5) for r in (2, 3, 5)] == [0, 0, 1]
    # p == r off the delta = 0 line: r does not divide p -+ 1, so v_r(chi) = 0
    assert index_by_scan(3, 7) == 8 and ChiValuation(3, 7)(7) == 0
    assert ChiValuation(3, 2)(7) == 3


@pytest.mark.parametrize(
    "t,tabled",
    [(3, True), (-3, True), (7, True), (123456789, True), pytest.param(2**600, False, id="2**600"),
     (F(2, 7), False), (F(48, 25), False), (F(-27, 2), False),
     (F(10, 3), False), (F(5, 2), False), (F(-5, 2), False), (F(13, 6), False)],
    ids=str,
)
def test_reader_tables_only_an_integer_t_that_is_not_reducible(monkeypatch, t, tabled):
    # an integer t gets one table of exact C_k(t), unless it is past the
    # table's 512 bits; a rational t, and the reducible 10/3 and 5/2, whose
    # xi or 1/xi is an integer, get none.  Every C_m(t) ladder of the
    # kernel starts from the reader's table, and no step y -> C_r(y) does
    from apparition import ring

    t = F(t)
    reader = ChiValuation(t, 5)
    assert (reader.table is not None) == tabled
    if tabled:
        assert reader.table == cheb_c_table(t.numerator)
    ps = [p for p in iter_primes(3000, start=7) if t.denominator % p]
    want = [valuation(chi_from_residue(residue(t, p), p), 5) for p in ps]
    seen = []
    ladder = ring.cheb_c_mod

    def spy(n, x, p, table=None):
        seen.append((n, table))
        return ladder(n, x, p, table)

    monkeypatch.setattr(ring, "cheb_c_mod", spy)
    assert [reader(p) for p in ps] == want
    if reader.reducible:
        assert seen == []
    else:
        assert {n for n, _ in seen} - {5} and (5, None) in seen
        assert all(table is (None if n == 5 else reader.table) for n, table in seen)


def test_legendre():
    squares = {x * x % 23 for x in range(1, 23)}
    assert [legendre(x, 23) for x in range(23)] == [0] + [1 if x in squares else -1 for x in range(1, 23)]
    assert legendre(-1, 23) == -1 and legendre(-1, 29) == 1 and legendre(46, 23) == 0


def test_chi_valuation_rejects_wrong_characters():
    # t = 3, p = 11 splits (delta = 5 = 4**2) with chi = 5; the inert
    # character puts D in a group of order 12 that it does not lie in.  The
    # no-ladder rule trusts the characters and leaves v_3 open, and the
    # ladder kernel rejects them
    assert legendre(5, 11) == 1 and ChiValuation(3, 3)(11) == 0
    assert chi_valuation_by_order(11, 3, -1, 0) is None
    with pytest.raises(ValueError, match="do not fit"):
        _ladder(3, 11, 3, -1, False)
    # t = 3, p = 19: t + 2 = 5 is a square (9**2), so the r = 2 ladder runs;
    # a wrong delta character then cannot reach 2 within v_2(p -+ 1) steps
    assert legendre(5, 19) == 1 and legendre(3 * 3 - 4, 19) == 1
    assert ChiValuation(3, 2)(19) == valuation(index_by_scan(3, 19), 2)
    assert chi_valuation_by_order(19, 2, -1, 1) is None
    with pytest.raises(ValueError, match="do not fit"):
        _ladder(3, 19, 2, -1, False)


@pytest.mark.parametrize("t", [F(3), F(7), F(2, 7), F(48, 25), F(-7, 2)], ids=str)
def test_chi_valuation_by_order(t):
    # the verdicts that need no ladder are exact, and a ladder is asked for
    # only where the group order n leaves v_r(chi) open: r | n for odd r,
    # and for r = 2 a square t + 2 with 4 | n
    for p in iter_primes(2000, start=3):
        if t.denominator % p == 0:
            continue
        tm = residue(t, p)
        delta_char, plus2_char = legendre(tm * tm - 4, p), legendre(tm + 2, p)
        if delta_char == 0:
            continue
        n = p - delta_char
        for r in (2, 3, 5, 7):
            j = chi_valuation_by_order(p, r, delta_char, plus2_char if r == 2 else 0)
            if r == 2:
                assert (j is None) == (plus2_char == 1 and n % 4 == 0), (p, r)
            else:
                assert (j is None) == (n % r == 0), (p, r)
            if j is not None:
                assert j == valuation(index_by_scan(t, p), r), (p, r)


# reducible t = xi + 1/xi, with xi an integer (5/2, 10/3, 17/4), a negative
# integer (-5/2) and neither (13/6 = 2/3 + 3/2)
REDUCIBLE = [(F(5, 2), F(2)), (F(10, 3), F(3)), (F(-5, 2), F(-2)), (F(17, 4), F(4)),
             (F(13, 6), F(3, 2))]


@pytest.mark.parametrize("t,xi", REDUCIBLE, ids=str)
def test_order_valuation_matches_scan_oracle(t, xi):
    # chi(t, p) = ord_p(xi) at every p dividing neither den(t) nor t**2 - 4,
    # and the ladder's builtin-pow path reads its r-adic valuation
    assert xi + 1 / xi == t
    disc = t.numerator**2 - 4 * t.denominator**2
    checked = 0
    for p in iter_primes(3000, start=3):
        if (t.denominator * disc) % p == 0:
            continue
        chi = index_by_scan(t, p)
        x = residue(xi, p)
        for r in (2, 3, 5, 7):
            assert _ladder(x, p, r, 1, True) == valuation(chi, r), (p, r)
        checked += 1
    assert checked > 400


def test_order_valuation_raises_past_its_bound():
    # 0 is no unit: its powers never reach 1 within v_r(p - 1) r-th powers
    for p in (3, 5, 7, 11, 13, 97, 101):
        for r in (2, 3, 5, 7):
            with pytest.raises(ValueError, match="do not fit"):
                _ladder(0, p, r, 1, True)
    assert _ladder(1, 97, 2, 1, True) == 0
    assert _ladder(96, 97, 2, 1, True) == 1


@settings(max_examples=300)
@given(st.integers(2, 10**12), st.integers(1, 10**6), st.integers(-(10**6), 10**6), st.integers(0, 50))
@example(2, 1, 1, 0)
@example(3, 7, 2, 0)
def test_class_inverse_lift(n, den, num, shift):
    # a class mod a multiple of den fixes p mod den, so from any member p0
    # of the class, k = -p0**-1 mod den makes den | 1 + k*p, and
    # (1 + k*p)/den is the inverse of den mod p: the lift the class walk
    # hands the ladder kernel in place of one pow(den, -1, p) per prime
    p = n
    while not is_prime(p):
        p += 1
    if den % p == 0:
        den += 1
    p0 = p % den + shift * den  # any member of p's class mod den
    k = -pow(p0, -1, den) % den
    assert (1 + k * p) % den == 0
    assert (1 + k * p) // den % p == pow(den, -1, p)
    assert (num + num * k * p) // den % p == num * pow(den, -1, p) % p


def test_chi_with_primes():
    # chi with its primes, ascending, from the one factoring of p -+ 1; at
    # delta = 0 (t = 3, p = 5: chi = 10; t = -3, p = 5: chi = 5) no factoring
    for t in (F(3), F(2, 7), F(5, 2)):
        for p in iter_primes(2000, start=3):
            if t.denominator % p:
                chi, qs = chi_with_primes(residue(t, p), p)
                assert chi == index_by_scan(t, p) == chi_from_residue(residue(t, p), p)
                assert qs == sorted(factorize(chi)), (t, p)
    assert chi_with_primes(3, 5) == (10, [2, 5]) and chi_with_primes(2, 5) == (5, [5])


@pytest.mark.parametrize("r", [2, 3, 5, 7])
def test_chi_valuation_near_the_cli_cap(r):
    # primes just below 10**8, the CLI's limit cap; chi_from_residue factors
    # p -+ 1 by trial division by the primes below 1000, then Brent's rho
    t = F(2, 7)
    for p in iter_primes(10**8, start=10**8 - 10**4):
        tm = residue(t, p)
        assert ChiValuation(tm, r)(p) == valuation(chi_from_residue(tm, p), r), p


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(-40, 40), st.integers(1, 39))
def test_index_minimality(p, tn, td):
    t = F(tn, td)
    if t.denominator % p == 0 or tn == 0:
        return
    chi = index(t, p)
    m = reduce_param(t, p)
    d = d_elem(m)
    assert (d**chi).is_identity
    for q in factorize(chi):
        assert not (d ** (chi // q)).is_identity
    if m.delta_mod != 0:
        assert group_order(m) % chi == 0  # Lagrange


@pytest.mark.parametrize("bits", [48, 64, 80])
def test_index_order_at_large_p(bits):
    # index_by_scan is O(p), so the order is checked by powers: D**chi = I
    # and D**(chi/q) != I for every prime q of chi
    rng = random.Random(bits)
    for _ in range(3):
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        while not is_prime(p):
            p += 2
        for t in (3, F(2, 7), -5, F(10, 3), F(48, 25)):
            chi = index(t, p)
            m = reduce_param(t, p)
            d = d_elem(m)
            assert group_order(m) % chi == 0, (t, p)
            assert (d**chi).is_identity, (t, p)
            for q in factorize(chi):
                assert not (d ** (chi // q)).is_identity, (t, p, q)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ODD_PRIMES),
    st.integers(-30, 30),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_det_multiplicative_and_trace(p, tn, a0, a1, b0, b1):
    m = reduce_param(tn if tn else 1, p)
    x = RingElem(m, a0 % p, a1 % p)
    y = RingElem(m, b0 % p, b1 % p)
    assert (x * y).det == x.det * y.det % p
    assert x * y == y * x  # the ring is commutative
    n = (a0 * 7 + b1 + 3) % 10**4
    assert (d_elem(m) ** n).trace == cheb_c_mod(n, m.t_mod, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ODD_PRIMES), st.integers(-20, 20), st.integers(1, 200), st.booleans())
def test_power_order_equals_trace_index(p, tn, k, flip):
    # ord(Y) = chi(trace(Y), p) for Y = +-D^k in the unit group
    t = F(tn) if tn else F(5)
    if t.denominator % p == 0:
        return
    m = reduce_param(t, p)
    y = d_elem(m) ** k
    if flip:
        y = -y
    b = y.trace
    if b == 2 % p or b == (-2) % p:
        return  # torsion / unipotent residues: order 1, 2, p or 2p
    phat = group_order(m)
    assert element_order(y, factorize(phat)) == index(b, p)


def test_elem_from_rationals():
    m = reduce_param(3, 7)
    y = elem_from_rationals(m, F(-8, 19), F(-33, 19))
    assert (y.x0, y.x1) == (4, 6)
    assert y.det == 1 and y.trace == 0
