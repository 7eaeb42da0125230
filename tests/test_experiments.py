from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apparition import experiments as ex
from apparition import partition, primes, ring
from apparition.chebyshev import cheb_c_coeffs, cheb_c_mod, cheb_u_exact, lucas_pair_mod
from apparition.classify import EXCLUDED, classify, predicted_densities
from apparition.errors import (
    BadPrime,
    ExcludedParameter,
    NotCircular,
    NotCubic,
    NotUnitDeterminant,
    PrimeTooLarge,
    TorsionTimesPower,
)
from apparition.exactnum import is_square
from apparition.primes import factorize, iter_primes
from apparition.ring import index, residue

FIB = ex.LucasSpec(1, -1)
PELL = ex.LucasSpec(2, -1)


def _order_mod(x: int, p: int) -> int:
    """ord_p(x) for a prime p not dividing x: strip primes of p - 1 while x**o stays 1."""
    o = p - 1
    for q in factorize(p - 1):
        while o % q == 0 and pow(x, o // q, p) == 1:
            o //= q
    return o


def test_lucas_spec():
    assert FIB.t == -3 and FIB.delta == 5
    assert PELL.t == -6 and PELL.delta == 8
    with pytest.raises(ValueError):
        ex.LucasSpec(1, 0)


def test_lucas_index():
    assert ex.lucas_index(FIB, 11) == 10  # F_10 = 55
    assert ex.lucas_index(FIB, 7) == 8  # F_8 = 21
    assert ex.lucas_index(PELL, 3) == 4  # Pell L_4 = 12
    with pytest.raises(BadPrime):
        ex.lucas_index(ex.LucasSpec(1, 5), 5)
    with pytest.raises(BadPrime):
        ex.lucas_index(FIB, 2)


def test_lucas_pair_mod():
    # fast doubling against the plain recurrence
    for p in (11, 97):
        a, b = 0, 1
        for n in range(50):
            assert lucas_pair_mod(2, -1, n, p)[0] == a
            a, b = b, (2 * b + a) % p


def test_verify_prop11():
    assert ex.verify_prop11(3, 3, 2000).passed
    assert ex.verify_prop11(3, 2, 2000).passed
    assert ex.verify_prop11(F(2, 7), 3, 1000).passed
    # num(U_37(3)) = F_74 is past the factoring bound; skipping needs no factors
    assert ex.verify_prop11(3, 37, 1000).primes_checked == 165
    with pytest.raises(ExcludedParameter, match="is excluded"):
        ex.verify_prop11(0, 2, 100)  # U_2(0) = 0
    # spot: chi(3,7) = 8; t_2 = 7 = 0 mod 7 and chi(0 mod 7) = 4 = 8/2
    assert index(3, 7) == 8 and index(7, 7) == 4


def test_prop11_skips_exactly_the_primes_of_u_r(monkeypatch):
    # U_r = 0 mod p from the ladder against the exact U_r(t): the primes the
    # suite skips, and does not count, are those dividing num(U_r(t))
    chi = ring.chi_from_residue
    visited = set()
    monkeypatch.setattr(ring, "chi_from_residue", lambda tm, p: visited.add(p) or chi(tm, p))
    skipped_any = False
    for t in (F(3), F(2, 7), F(-5, 3), F(10, 3), F(7)):
        for r in (2, 3, 5, 7, 37):
            visited.clear()
            rep = ex.verify_prop11(t, r, 1000)
            num_u = cheb_u_exact(r, t).numerator
            admissible = [p for p in iter_primes(1000, start=3) if t.denominator % p]
            skipped = {p for p in admissible if num_u % p == 0}
            assert visited == set(admissible) - skipped, (t, r)
            assert rep.passed and rep.primes_checked == len(visited), (t, r)
            skipped_any |= bool(skipped)
    assert skipped_any


def test_verify_twin():
    assert ex.verify_twin(3, 2000).passed
    assert ex.verify_twin(F(2, 7), 1000).passed
    assert index(-3, 11) == 2 * index(3, 11)  # j = 0 doubles
    assert index(-3, 7) == index(3, 7) == 8  # j >= 2 fixed


def test_verify_cubic():
    assert ex.verify_cubic_associates(F(2, 7), 2000).passed
    with pytest.raises(NotCubic):
        ex.verify_cubic_associates(3, 100)
    # spot p=5: chi(2/7,5) = 6 is in Pi_1, so 5 is in Pi_0 of an associate
    assert index(F(2, 7), 5) == 6
    assert index(F(11, 7), 5) % 3 == 0 or index(F(-13, 7), 5) % 3 == 0
    vals = [index(F(11, 7), 5), index(F(-13, 7), 5)]
    assert any(v % 3 != 0 for v in vals)


def test_verify_circular():
    assert ex.verify_circular(F(6, 5), 2000).passed
    with pytest.raises(NotCircular):
        ex.verify_circular(3, 100)
    # spot p=7: both valuations are 3
    assert index(F(6, 5), 7) == 8 and index(F(8, 5), 7) == 8


def test_verify_circular_identity_failure_is_not_a_prime(monkeypatch):
    # a broken C_n makes every Pythagorean check fail; the Chebyshev index n
    # belongs in the expected text, never in the prime column
    monkeypatch.setattr(ex, "cheb_c_exact", lambda n, x: F(0))
    rep = ex.verify_circular(F(6, 5), 50)
    odd_ns = set(range(1, 30, 2))
    assert rep.violation_count == len(odd_ns)
    assert not {p for p, _, _ in rep.violations} & odd_ns
    for n in odd_ns:
        assert any(f"(n={n})" in expected for _, expected, _ in rep.violations)


def test_verify_bridge():
    assert ex.verify_bridge(FIB, 2000).passed
    assert ex.verify_bridge(PELL, 2000).passed
    assert ex.lucas_index(FIB, 11) == index(-3, 11) == 10
    with pytest.raises(ExcludedParameter, match="is excluded"):
        ex.verify_bridge(ex.LucasSpec(2, 1), 100)  # T**2 = 4Q


@pytest.mark.parametrize("T, Q", [(3, 2), (5, 6), (3, -1), (6, 5)])
def test_verify_bridge_skips_odd_p_dividing_T(T, Q):
    # at an odd p | T, t = -2 mod p: chi = 2p, while the rank is 2
    assert ex.verify_bridge(ex.LucasSpec(T, Q), 2000).passed


@pytest.mark.parametrize("T, Q", [(1, -1), (2, -1), (3, 2), (4, 3), (5, 6), (1, 3)])
def test_rank_certificate_matches_scan(T, Q):
    # the law-of-apparition certificate accepts the scanned rank, and it
    # alone among its multiples and its divisors by one prime
    spec = ex.LucasSpec(T, Q)
    skip = 2 * abs(T * Q * spec.delta)
    checked = 0
    for p in iter_primes(3000, start=3):
        if skip % p == 0:
            continue
        rank = ex.lucas_index(spec, p)
        assert ex.ring.chi_with_primes(residue(spec.t, p), p) == (rank, sorted(factorize(rank)))
        assert ex._rank_failure(T, Q, rank, sorted(factorize(rank)), p) is None, p
        for k in (2 * rank, 3 * rank):
            assert ex._rank_failure(T, Q, k, sorted(factorize(k)), p) == f"L_{rank}=0", p
        for q in factorize(rank):
            k = rank // q
            assert ex._rank_failure(T, Q, k, sorted(factorize(k)), p) == f"L_{k}!=0", p
        checked += 1
    assert ex.verify_bridge(spec, 3000).primes_checked == checked


def test_verify_bridge_scans_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(ex, "lucas_index", lambda *args: calls.append(args))
    assert ex.verify_bridge(FIB, 10**4).passed
    assert calls == []


def test_verify_bridge_factors_each_group_order_once(monkeypatch):
    # the primes of chi are those of p -+ 1 that ring.chi_with_primes keeps,
    # so the rank certificate factors nothing again
    factored = []
    factorize = primes.factorize

    def spy(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(primes, "factorize", spy)
    rep = ex.verify_bridge(FIB, 10**4)
    assert rep.passed and len(factored) == rep.primes_checked > 1000


@pytest.mark.parametrize("wrong", [lambda chi: 1, lambda chi: 2 * chi])
def test_verify_bridge_catches_a_wrong_chi(wrong, monkeypatch):
    # 1 is never the rank (L_1 = 1), and at 2 * chi the certificate finds
    # L_chi = 0, so every prime checked is a violation
    chi_with_primes = ex.ring.chi_with_primes

    def wrong_with_primes(tm, p):
        k = wrong(chi_with_primes(tm, p)[0])
        return k, sorted(factorize(k))

    monkeypatch.setattr(ex.ring, "chi_with_primes", wrong_with_primes)
    rep = ex.verify_bridge(FIB, 10**4)
    assert rep.violation_count == rep.primes_checked > ex.VIOLATION_CAP
    assert len(rep.violations) == ex.VIOLATION_CAP


@pytest.mark.parametrize("T, Q", [(2, 1), (0, -1), (1, 1), (2, 2), (3, 3)])
def test_verify_bridge_rejects_excluded_t(T, Q):
    # t = (T**2 - 2Q)/Q in {2, -2, -1, 0, 1}: no index to compare
    assert ex.LucasSpec(T, Q).t in EXCLUDED
    with pytest.raises(ExcludedParameter, match="is excluded"):
        ex.verify_bridge(ex.LucasSpec(T, Q), 100)


# a Lucas spec (T, Q) for each excluded t = T**2/Q - 2
_EXCLUDED_SPECS = {F(0): (2, 2), F(1): (3, 3), F(-1): (1, 1), F(2): (2, 1), F(-2): (0, 1)}

# each suite whose subject is the paper's t, called on t
_SUITES_ON_T = {
    "prop11": lambda t: ex.verify_prop11(t, 3, 100),
    "twin": lambda t: ex.verify_twin(t, 100),
    "ballot": lambda t: ex.ballot_check(ex.LucasSpec(*_EXCLUDED_SPECS[t]), 2, 100),
    "sequences": lambda t: ex.sequence_divisor_check(t, "W", 100),
    "splitting": lambda t: ex.verify_splitting_theorems(t, 3, 100),
    "quadmap": lambda t: ex.quadmap_divisor_check(t, 100),
    "nondivisor": lambda t: ex.nondivisor_density(t, 1, 1, 3, 100),
}


@pytest.mark.parametrize("suite", sorted(_SUITES_ON_T))
@pytest.mark.parametrize("t", sorted(EXCLUDED))
def test_suites_refuse_excluded_t(suite, t):
    assert ex.LucasSpec(*_EXCLUDED_SPECS[t]).t == t
    with pytest.raises(ExcludedParameter, match="is excluded"):
        _SUITES_ON_T[suite](t)


def test_ballot_values():
    # B_k = F_2k/F_k = 1, 3, 4, 7, 11, 18, ...
    lucas = [0, 1]
    for _ in range(60):
        lucas.append(lucas[-1] + lucas[-2])
    bs = [lucas[2 * k] // lucas[k] for k in range(1, 7)]
    assert bs == [1, 3, 4, 7, 11, 18]
    rep = ex.ballot_check(FIB, 2, 2000, k_max=20)
    assert rep.passed, rep.violations[:3]
    # certificate: chi(-3,11) = 10, B_5 = 11
    assert index(-3, 11) == 10 and bs[4] == 11


def test_ballot_closed_form_failure_is_not_a_prime(monkeypatch):
    # broken closed forms fail for every k; the sequence index k belongs in
    # the expected text, never in the prime column
    monkeypatch.setattr(ex, "cheb_v_exact", lambda m, x: F(0))
    monkeypatch.setattr(ex, "cheb_c_exact", lambda n, x: F(0))
    ks = range(1, 13)
    rep = ex.ballot_check(FIB, 2, 50, k_max=len(ks))
    assert rep.violation_count == len(ks)
    assert {p for p, _, _ in rep.violations} == {0}
    for k in ks:
        assert any(f"(k={k})" in expected for _, expected, _ in rep.violations)


def test_ballot_r3():
    rep = ex.ballot_check(FIB, 3, 1000, k_max=15)
    assert rep.passed, rep.violations[:3]
    # B_1 = F_3/F_1 = 2
    assert ex.ballot_check(FIB, 3, 10, k_max=1).passed


@pytest.mark.parametrize("T, Q", [(1, -1), (2, -1), (3, 2), (-1, -1), (4, 3)])
def test_ballot_r2_for_any_lucas_pair(T, Q):
    # B_k = T Q^((k-1)/2) V_k(t) for odd k: the factor T shows once T != 1
    rep = ex.ballot_check(ex.LucasSpec(T, Q), 2, 2000)
    assert rep.passed, rep.violations[:3]


@pytest.mark.parametrize("r", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("t", [F(3), F(2, 7)])
def test_subsequence_family_for_any_r(t, r):
    # U_{rk+1} = 0 mod p for some k iff r does not divide z, the step of the
    # zeros of U: z = chi/2 for even chi, else chi
    rep = ex.sequence_divisor_check(t, "subsequence", 2000, subseq_r=r)
    assert rep.passed, rep.violations[:3]


def test_growing_work_caps_admit_their_edges():
    # the largest prime r each cap admits still runs, and the next is refused
    assert ex.sequence_divisor_check(3, "subsequence", 2000, subseq_r=47).passed
    with pytest.raises(PrimeTooLarge, match="for subsequence scans"):
        ex.sequence_divisor_check(3, "subsequence", 2000, subseq_r=53)
    fib = ex.LucasSpec(1, -1)  # t = 3, 2 height bits, so r * k_max <= 24000
    assert ex.ballot_check(fib, 397, 100, k_max=60).passed
    with pytest.raises(ValueError, match="capped at 48000, got 24060 \\* 2"):
        ex.ballot_check(fib, 401, 100, k_max=60)


def test_sequence_families():
    for fam in ("W", "V", "C"):
        assert ex.sequence_divisor_check(3, fam, 2000).passed
    assert ex.sequence_divisor_check(F(2, 7), "S", 2000).passed
    assert ex.sequence_divisor_check(3, "subsequence", 2000, subseq_r=3).passed
    with pytest.raises(NotCubic):
        ex.sequence_divisor_check(3, "S", 100)
    with pytest.raises(PrimeTooLarge):
        ex.sequence_divisor_check(3, "W", 10**5)
    with pytest.raises(ValueError):
        ex.sequence_divisor_check(3, "X", 100)


def test_w_family_spot():
    # W_5(3) = U_3 + U_2 = 11: p = 11 divides the W family; chi(3,11) = 5 odd
    rep = ex.sequence_divisor_check(3, "W", 12)
    assert rep.passed and rep.primes_checked == 4


def _verdicts(t, r: int, p: int, n_max: int, j_max: int):
    """`_splitting_verdicts` at p, in the variant and with the C_m that
    `verify_splitting_theorems` selects for t and r."""
    variant = "reducible" if is_square(t * t - 4) else ("two" if r == 2 else "odd")
    ms = {r**n for n in range(1, n_max + 1)}
    if variant == "two":
        ms |= {2**i for i in range(j_max - 1)}
    return ex._splitting_verdicts(
        residue(t, p), r, p, n_max, j_max, variant, {m: cheb_c_coeffs(m) for m in ms}
    )


def test_splitting_verdicts_spot():
    # p = 7: x**2 - 3x + 1 has no root but Phi_3 splits linearly (3 | 6), a
    # mixed split: 7 is not in K_1, and 3 does not divide p + 1 = 8
    assert not ex._splits([1, -3 % 7, 1], 7)
    assert _verdicts(F(3), 3, 7, 0, 1)[0][1] is False
    # p = 5: x**2 - x + 1 has no root and Phi_3 none either, but 3 | 5**2 - 1
    assert not ex._splits([1, -1 % 5, 1], 5)
    assert ex._splitting_verdicts(1, 3, 5, 0, 1, "odd", {})[0][1] is True
    # C_3(x) - 3 = x**3 - 3x - 3 has one root at 11 and at 10**5 + 3, so it
    # does not split linearly; the split is tested by x**p mod f, so a prime
    # past the enumeration cap answers as fast
    for p in (11, 10**5 + 3):
        assert not ex._splits([-3 % p, -3 % p, 0, 1], p)
        assert _enumerated_roots(lambda x: x**3 - 3 * x - 3, p) == 1
        assert _verdicts(F(3), 3, p, 1, 1)[1][1] is False


def test_splitting_theorems():
    assert ex.verify_splitting_theorems(3, 3, 600).passed
    assert ex.verify_splitting_theorems(3, 2, 600).passed
    assert ex.verify_splitting_theorems(F(10, 3), 3, 600).passed
    with pytest.raises(PrimeTooLarge):
        ex.verify_splitting_theorems(3, 3, ex.SPLITTING_LIMIT_CAP + 1)
    with pytest.raises(ValueError):
        ex.verify_splitting_theorems(3, 3, 100, n_max=5)  # C_243 is past DEGREE_CAP
    with pytest.raises(ValueError):
        ex.verify_splitting_theorems(3, 2, 100, j_max=10)  # so is C_256
    # past j = 17, r^j > p + 1 for every p <= SPLITTING_LIMIT_CAP: K_j is empty
    with pytest.raises(ValueError, match="j_max <= 17"):
        ex.verify_splitting_theorems(3, 3, 100, j_max=18)
    assert ex.verify_splitting_theorems(3, 3, 100, j_max=17).passed


@pytest.mark.parametrize(
    "t, r", [(F(3), 3), (F(3), 2), (F(10, 3), 3), (F(2, 7), 3), (F(6), 2)]
)
def test_splitting_verdicts_match_group_side(t, r):
    # every verdict of the theorem side, at every admissible prime and over
    # the (n, j) the suite checks, against the group computed by `ring`
    n_max, j_max = 2, 3
    delta = t * t - 4
    two = r == 2 and not is_square(delta)
    for p in primes.iter_primes(999, start=5):
        if p == r or (t.denominator * delta.numerator) % p == 0:
            continue
        m = ring.reduce_param(t, p)
        phat = ring.group_order(m)
        v = primes.valuation(phat, r)
        k, lin = _verdicts(t, r, p, n_max, j_max)
        for j in range(1, j_max + 1):
            assert k[j] == (phat % r**j == 0), (p, j)
        for n in range(1, n_max + 1):
            in_m = (ring.d_elem(m) ** (phat // r ** min(n, v))).is_identity
            for j in range(max(n, 2 if two else 1), j_max + 1):
                assert (k[j] and lin[n]) == (phat % r**j == 0 and in_m), (p, n, j)
    assert ex.verify_splitting_theorems(t, r, 999).passed


ROOT_TS = (F(3), F(10, 3), F(2, 7), F(6))
ROOT_RS = (2, 3, 5, 7)


def _enumerated_roots(f, p: int) -> int:
    """Roots of f over F_p by evaluation at every residue (f a callable)."""
    return sum(1 for x in range(p) if f(x) % p == 0)


def _horner(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def test_splits_matches_enumeration():
    # every polynomial whose split the splitting suite tests, for every prime
    # 5 <= p < 1000: it splits exactly when its distinct roots number deg f
    ms = {r**n for r in ROOT_RS for n in (1, 2)} | {2**i for i in range(4)}
    coeffs = {m: cheb_c_coeffs(m) for m in ms}
    for p in iter_primes(999, start=5):
        tms = [residue(t, p) for t in ROOT_TS if t.denominator % p]
        for tm in tms:
            f = [1, -tm % p, 1]
            assert ex._splits(f, p) == (_enumerated_roots(lambda x: x * x - tm * x + 1, p) == 2)
            delta = (tm * tm - 4) % p
            f = [delta, 0, 1]
            assert ex._splits(f, p) == (_enumerated_roots(lambda x: x * x + delta, p) == 2)
        for m in ms:
            # C_m at every residue by the fast-doubling ladder, not the coefficients;
            # the roots of C_m(x) - shift are the residues where it takes the value shift
            values = [cheb_c_mod(m, x, p) for x in range(p)]
            for shift in [0, *tms]:
                f = [c % p for c in coeffs[m]]
                f[0] = (f[0] - shift) % p
                assert ex._splits(f, p) == (values.count(shift) == m), (m, shift, p)


def _phi_roots(p: int, r: int, j_max: int):
    """Roots of Phi_{r^j}, the elements of order r^j, in F_p and in F_{p^2}
    for j <= j_max, found by trying every element of F_{p^2} = F_p[s],
    s**2 = nu a non-square."""
    nu = next(a for a in range(2, p) if ring.legendre(a, p) == -1)
    in_p, in_p2 = [0] * (j_max + 1), [0] * (j_max + 1)
    for x0 in range(p):
        for x1 in range(p):
            y, j = (x0, x1), 0
            while y != (1, 0) and j <= j_max:
                a, b = 1, 0
                for _ in range(r):  # y**r
                    a, b = (a * y[0] + nu * b * y[1]) % p, (a * y[1] + b * y[0]) % p
                y, j = (a, b), j + 1
            if j <= j_max and (x0, x1) != (0, 0):  # order r**j
                in_p2[j] += 1
                in_p[j] += x1 == 0
    return in_p, in_p2


@pytest.mark.parametrize("r", ROOT_RS)
def test_phi_verdicts_match_brute_force(r):
    # Phi_{r^j} splits linearly when all its roots are in F_p, quadratically
    # when none is but all are in F_{p^2}; K_j reads the linear split when
    # x**2 - t*x + 1 splits (t**2 - 4 a nonzero square mod p, the suite's
    # primes divide no num(t**2 - 4)) or t**2 - 4 is a rational square, else
    # the quadratic one
    for p in iter_primes(60, start=5):
        if p == r:
            continue
        in_p, in_p2 = _phi_roots(p, r, 3)
        root = next(tm for tm in range(p) if ring.legendre(tm * tm - 4, p) == 1)
        no_root = next(tm for tm in range(p) if ring.legendre(tm * tm - 4, p) == -1)
        k_root = ex._splitting_verdicts(root, r, p, 0, 3, "odd", {})[0]
        k_no_root = ex._splitting_verdicts(no_root, r, p, 0, 3, "odd", {})[0]
        k_reducible = ex._splitting_verdicts(0, r, p, 0, 3, "reducible", {})[0]
        for j in (1, 2, 3):
            deg = r**j - r ** (j - 1)
            linear = in_p[j] == deg
            quadratic = in_p[j] == 0 and in_p2[j] == deg
            assert k_root[j] == k_reducible[j] == linear, (p, j)
            assert k_no_root[j] == quadratic, (p, j)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 13, 31, 97, 101, 199]),
    st.lists(st.tuples(st.integers(0, 198), st.integers(1, 4)), min_size=0, max_size=4),
    st.lists(st.integers(0, 198), min_size=1, max_size=6),
)
def test_splits_repeated_roots(p, roots, tail):
    # f = prod (x - a)**e * (a monic cofactor of degree >= 1): f splits exactly
    # when its distinct roots number deg f, so a repeated root never splits
    f = tail[:] + [1]
    for a, e in roots:
        for _ in range(e):
            f = [(shifted - a * c) % p for shifted, c in zip([0] + f, f + [0])]  # f * (x - a)
    f = [c % p for c in f]
    distinct = _enumerated_roots(lambda x: _horner(f, x, p), p)
    assert ex._splits(f, p) == (distinct == len(f) - 1)


@pytest.mark.parametrize("t, r", [(F(3), 3), (F(3), 2), (F(5, 2), 3)])
def test_splitting_theorems_catch_a_miscounting_counter(monkeypatch, t, r):
    # a split test that answers wrong must show as violations in every variant
    splits = ex._splits
    monkeypatch.setattr(ex, "_splits", lambda f, p: not splits(f, p))
    rep = ex.verify_splitting_theorems(t, r, 300)
    assert rep.violation_count > 0


def test_cubic_tower_relations():
    # t' = C_3(2/7) is cubic but not 3-primitive; its associate triple
    # (t', a1, a2) still satisfies the rotation laws, and the index shift
    # glues the partitions of t and t' together.
    t = F(2, 7)
    t3 = F(-286, 343)
    from apparition.chebyshev import cheb_c_exact
    from apparition.classify import classify

    assert cheb_c_exact(3, t) == t3
    a1, a2 = classify(t3).cubic_associates
    assert a1 == F(683, 343)
    assert ex.verify_cubic_associates(t3, 1500).passed
    assert ex.verify_prop11(t, 3, 1500).passed


def test_orbit_divisors():
    rep = ex.chebyshev_orbit_divisors(3, 2, 15, 5000)
    assert rep.passed
    found = dict(rep.divisors)
    assert found[7] == 1 and found[47] == 2 and found[2207] == 3
    assert found[1087] == 4 and found[4481] == 4  # C_16(3) = 1087 * 4481
    # non-divisor spot: orbit mod 11 cycles 3 -> 7 -> 3 without zero
    assert 11 not in found
    assert all(p >= 4 * 2**n - 1 for p, n in rep.divisors)


def test_quadmap():
    rep = ex.quadmap_divisor_check(5, 2000)
    assert rep.passed
    assert 3 in rep.divisors  # t = 2 mod 3: chi = 3 odd
    assert 11 not in rep.divisors  # chi(5, 11) = 12 even
    assert index(5, 11) == 12


def test_quadmap_reducible_oracle():
    # t = 5/2 has xi = 2: divisor set is exactly {p : ord_p(2) odd}
    rep = ex.quadmap_divisor_check(F(5, 2), 2000)
    assert rep.passed
    odd_order = set()
    for p in iter_primes(2000, start=3):
        if _order_mod(2, p) % 2 == 1:
            odd_order.add(p)
    assert set(rep.divisors) == odd_order


def test_admissible_counts_each_prime_after_its_body():
    rep = ex.CheckReport(name="count")
    seen = [(p, rep.primes_checked) for p in ex._admissible(rep, 30, 5, 3)]
    assert seen == [(7, 0), (11, 1), (13, 2), (17, 3), (19, 4), (23, 5), (29, 6)]
    assert rep.primes_checked == 7


def test_suites_do_not_revalidate_their_primes(monkeypatch):
    # the sieve vouches for every prime a suite visits: chi comes from
    # chi_from_residue, never through the validating ring.index
    def refuse(*args):
        raise AssertionError("a suite re-validated a sieve prime")

    monkeypatch.setattr(ring, "index", refuse)
    monkeypatch.setattr(ring, "reduce_param", refuse)
    reports = list(ex.all_suites(300))
    assert len(reports) == 21
    assert all(rep.passed for rep in reports), [rep.summary() for rep in reports]


def test_identity_suite_records_failures_at_p0(monkeypatch):
    monkeypatch.setattr(ex, "cheb_u_exact", lambda n, x: 0)  # breaks composition only
    rep = ex.identity_suite(3)
    assert rep.name == "identity(t=3, n_max=30)" and rep.primes_checked == 0
    assert rep.violation_count == 30 * 30 and rep.metrics["identities"] == 4 * 30 + 30 * 30
    assert rep.violations[0] == (0, "composition(1, 1): 0", "1")


def _quadmap_by_full_scan(t, limit):
    """Frozen copy of the suite before the cycle stop: p + 1 steps per prime."""
    t = F(t)
    rep = ex.CheckReport(name=f"quadmap(t={t})")
    for p in ex._admissible(rep, limit, t.denominator):
        tm = residue(t, p)
        chi = ring.chi_from_residue(tm, p)
        y = tm
        found = False
        for _ in range(p + 1):
            y = (y * y - 2) % p
            if y == tm:
                found = True
                break
        if found:
            rep.divisors.append(p)
        if found != (chi % 2 == 1):
            rep.record(p, f"divisor iff chi odd (chi={chi})", found)
    rep.metrics = {"t": t, "density": ex._ratio(len(rep.divisors), rep.primes_checked)}
    return rep


def test_quadmap_cycle_stop_matches_full_scan():
    ts = {F(a, b) for a in range(-12, 13) for b in range(1, 5)} - EXCLUDED
    for t in sorted(ts):
        rep, ref = ex.quadmap_divisor_check(t, 2000), _quadmap_by_full_scan(t, 2000)
        assert rep.divisors == ref.divisors, t
        assert rep.summary() == ref.summary(), t


def test_quadmap_pinned_at_enumeration_cap():
    rep = ex.quadmap_divisor_check(5, 10**4)
    assert rep.summary() == (
        "PASS quadmap(t=5): 1228 primes checked, 0 violations; t 5, density 0.337948"
    )
    with pytest.raises(PrimeTooLarge):
        ex.quadmap_divisor_check(5, ex.ENUMERATION_CAP + 1)


def test_nondivisor():
    rep = ex.nondivisor_density(3, F(-8, 19), F(-33, 19), 7, 10**4)
    assert rep.passed
    assert rep.trace == F(-42, 19)
    assert rep.expected == F(6, 343)
    assert rep.target_count > 0
    # the literal ord | 2chi criterion does disagree with the subgroup one
    assert rep.criterion_disagreements


def test_nondivisor_summary_pinned():
    rep = ex.nondivisor_density(3, F(-8, 19), F(-33, 19), 7, 10**5)
    assert rep.summary() == (
        "PASS nondivisor(t=3, Y=[-8/19, -33/19], r=7): 9590 primes checked, 0 violations; "
        "target_count 160, pi_limit 9592, ratio 0.016681, expected 6/343, trace -42/19, "
        "criterion_disagreements 70"
    )


# summaries at 3*10**4, as the factoring implementation printed them; the
# Y = [-7/11, -24/11] rows pass p = 7 and the t = 3/2 rows p = 3, where
# p | num(y0) and Y = I mod p
NONDIVISOR_3E4 = {
    (3, F(-8, 19), F(-33, 19), 7): (57, "0.017565", "-42/19", 70),
    (3, F(-7, 11), F(-24, 11), 3): (233, "0.071803", "-27/11", 67),
    (3, F(-7, 11), F(-24, 11), 5): (95, "0.029276", "-27/11", 67),
    (F(3, 2), F(-9, 11), F(-16, 11), 3): (233, "0.071803", "-37/22", 80),
    (F(3, 2), F(-9, 11), F(-16, 11), 7): (112, "0.034515", "-37/22", 80),
}


def test_nondivisor_factors_only_below_enumeration_cap(monkeypatch):
    # membership in T comes from the v_r(chi) kernel: no factor table, and
    # factoring only of the group orders p -+ 1 (or 2p) of the full-order
    # block below ENUMERATION_CAP
    factorize = primes.factorize

    def refuse_table(bound):
        raise AssertionError("the non-divisor suite read the factor table")

    def small_only(n):
        assert n <= 2 * ex.ENUMERATION_CAP + 2, f"the non-divisor suite factored {n}"
        return factorize(n)

    monkeypatch.setattr(primes, "spf_table", refuse_table)
    monkeypatch.setattr(primes, "factorize", small_only)
    for (t, y0, y1, r), (count, ratio, trace, disagreements) in NONDIVISOR_3E4.items():
        rep = ex.nondivisor_density(t, y0, y1, r, 3 * 10**4)
        assert rep.summary() == (
            f"PASS nondivisor(t={F(t)}, Y=[{y0}, {y1}], r={r}): 3243 primes checked, "
            f"0 violations; target_count {count}, pi_limit 3245, ratio {ratio}, "
            f"expected {F(r - 1, r**3)}, trace {trace}, criterion_disagreements {disagreements}"
        )


def test_nondivisor_reads_one_character_per_prime(monkeypatch):
    # above ENUMERATION_CAP, ((t**2 - 4)/p) is read once per prime: v_r(chi)
    # of t and of the trace of Y reuse it, since b**2 - 4 = y0**2 (t**2 - 4)
    read = []
    legendre = ring.legendre

    def spy(x, p):
        read.append(p)
        return legendre(x, p)

    monkeypatch.setattr(ring, "legendre", spy)
    rep = ex.nondivisor_density(3, F(-8, 19), F(-33, 19), 7, 3 * 10**4)
    above = [p for p in read if p > ex.ENUMERATION_CAP]
    assert rep.passed and above == list(iter_primes(3 * 10**4, start=ex.ENUMERATION_CAP))


@pytest.mark.parametrize("y0, y1", [(F(-32, 13), F(-3, 13)), (F(-75, 17), F(-8, 17))])
def test_nondivisor_t_two_mod_p(y0, y1):
    # t = 9 = 2 mod 7: D = I + N has order 7, but Y = -(I + cN) has order 14
    rep = ex.nondivisor_density(9, y0, y1, 3, 200)
    assert rep.passed and rep.primes_checked == 44


def test_nondivisor_rejects():
    with pytest.raises(TorsionTimesPower):
        ex.nondivisor_density(3, 1, 3, 7, 100)  # Y = D
    with pytest.raises(TorsionTimesPower):
        ex.nondivisor_density(3, 0, 1, 7, 100)  # Y = I (zero element behind)
    with pytest.raises(NotUnitDeterminant):
        ex.nondivisor_density(3, 1, 1, 7, 100)
    with pytest.raises(ValueError):
        ex.nondivisor_density(3, F(-8, 19), F(-33, 19), 2, 100)


def _torsion_forms(t, k):
    """Y = D**k, -D**k, D**-k and -D**-k as (y0, y1), with D**n = [U_n, U_(n+1)]."""
    u = {n: cheb_u_exact(n, t) for n in (k - 1, k, k + 1)}
    return [(u[k], u[k + 1]), (-u[k], -u[k + 1]), (-u[k], -u[k - 1]), (u[k], u[k - 1])]


@pytest.mark.parametrize("k", [1, 65, 66, 200])
@pytest.mark.parametrize("t", [F(3), F(6, 5), F(-7, 2)], ids=str)
def test_nondivisor_refuses_every_torsion_power(t, k):
    # a zero at index +-k means y0 = +-U_k(t), and the scan for one runs
    # 2 + the bit length of max(|num(y0)|, den(y0)) terms each way
    for y0, y1 in _torsion_forms(t, k):
        with pytest.raises(TorsionTimesPower, match="is zero: Y = \\+-D\\^k"):
            ex.nondivisor_density(t, y0, y1, 7, 100)


def test_nondivisor_divisor_spot():
    # p = 7: Y = [4, 6] has order 4 and the scan finds a zero at step 2
    from apparition.ring import RingElem, elem_from_rationals, reduce_param

    m = reduce_param(3, 7)
    y = elem_from_rationals(m, F(-8, 19), F(-33, 19))
    assert y == RingElem(m, 4, 6)
    seq = [y.x0, y.x1]
    for _ in range(4):
        seq.append((3 * seq[-1] - seq[-2]) % 7)
    assert seq[2] == 0  # divisor certificate


def test_report_caps_violations_but_counts_all():
    rep = ex.CheckReport(name="cap")
    for p in range(150):
        rep.record(p, "x", "y")
    assert len(rep.violations) == ex.VIOLATION_CAP == 100
    assert rep.violation_count == 150 and not rep.passed
    assert rep.violations[-1] == (99, "x", "y")


def test_report_metrics_read_as_attributes():
    rep = ex.CheckReport(name="m", metrics={"fraction": 0.25, "t": F(5)})
    assert rep.fraction == 0.25 and rep.t == F(5)
    assert rep.divisors == []  # a field, not a metric
    with pytest.raises(AttributeError):
        rep.density
    assert not hasattr(ex.CheckReport(name="bare"), "fraction")


def test_report_copy_and_pickle():
    import copy
    import pickle

    rep = ex.quadmap_divisor_check(5, 200)
    rep.record(7, "e", "a")
    for clone in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert clone == rep and clone.metrics is not rep.metrics
        assert clone.density == rep.density and clone.summary() == rep.summary()


def test_report_summary_without_metrics_is_unchanged():
    rep = ex.CheckReport(name="twin(t=3)", primes_checked=5)
    assert rep.summary() == "PASS twin(t=3): 5 primes checked, 0 violations"


def test_report_summary_appends_metrics():
    rep = ex.quadmap_divisor_check(5, 100)
    assert rep.summary() == (
        f"PASS quadmap(t=5): {rep.primes_checked} primes checked, 0 violations; "
        f"t 5, density {rep.density:.6f}"
    )


def test_valuation_suites_factor_nothing(monkeypatch):
    # the cubic, circular, quadmap and splitting suites need v_r(chi) alone,
    # and read it from a ring.ChiValuation reader, which factors nothing
    factored = []
    factorize = primes.factorize

    def spy(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(primes, "factorize", spy)
    reports = [
        ex.verify_cubic_associates(F(2, 7), 3000),
        ex.verify_circular(F(6, 5), 3000),
        ex.quadmap_divisor_check(5, 3000),
        ex.verify_splitting_theorems(3, 3, 2000),
    ]
    assert all(rep.passed and rep.primes_checked > 250 for rep in reports)
    assert factored == []


def test_reducible_suites_run_no_trace_ladder(monkeypatch):
    # 10/3 = 3 + 1/3 and 5/2 = 2 + 1/2: the readers of the splitting and
    # quadmap suites take builtin pow on xi mod p, never the trace ladder
    ladders = []
    cheb_c_mod = ring.cheb_c_mod

    def counting(n, x, p):
        ladders.append(p)
        return cheb_c_mod(n, x, p)

    monkeypatch.setattr(ring, "cheb_c_mod", counting)
    assert ex.verify_splitting_theorems(F(10, 3), 3, 2000).summary() == (
        "PASS splitting(t=10/3, r=3): 301 primes checked, 0 violations"
    )
    assert ex.quadmap_divisor_check(F(5, 2), 3000).summary() == (
        "PASS quadmap(t=5/2): 429 primes checked, 0 violations; t 5/2, density 0.293706"
    )
    assert ladders == []


def test_dynamics_failures_go_through_record(monkeypatch):
    # an odd chi for every prime makes each non-divisor a violation
    monkeypatch.setattr(ex.ring, "ChiValuation", lambda t, r: lambda p: 0)
    rep = ex.quadmap_divisor_check(5, 2000)
    assert rep.violation_count > ex.VIOLATION_CAP
    assert len(rep.violations) == ex.VIOLATION_CAP



@pytest.mark.parametrize(
    "call",
    [
        lambda: partition.compute_partition(3, 4, 100),
        lambda: predicted_densities(classify(F(3)), 4, 4),
        lambda: ex.verify_prop11(3, 4, 100),
        lambda: ex.ballot_check(FIB, 4, 100),
        lambda: ex.sequence_divisor_check(3, "subsequence", 100, subseq_r=4),
        lambda: ex.verify_splitting_theorems(3, 4, 100),
    ],
    ids=["partition", "classify", "prop11", "ballot", "subsequence", "splitting"],
)
def test_every_r_is_refused_by_one_gate(call):
    # classify.prime_r is the one check that r is prime
    with pytest.raises(ValueError, match=r"^r must be prime, got 4$"):
        call()
