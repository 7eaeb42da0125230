from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apparition import experiments as ex
from apparition import primes, ring
from apparition.chebyshev import cheb_c_mod, lucas_pair_mod
from apparition.classify import EXCLUDED
from apparition.errors import (
    BadPrime,
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
    with pytest.raises(ValueError):
        ex.verify_prop11(0, 2, 100)  # U_2(0) = 0
    # spot: chi(3,7) = 8; t_2 = 7 = 0 mod 7 and chi(0 mod 7) = 4 = 8/2
    assert index(3, 7) == 8 and index(7, 7) == 4


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
    with pytest.raises(ValueError):
        ex.verify_bridge(ex.LucasSpec(2, 1), 100)  # T**2 = 4Q


@pytest.mark.parametrize("T, Q", [(2, 1), (0, -1), (1, 1), (2, 2), (3, 3)])
def test_verify_bridge_rejects_excluded_t(T, Q):
    # t = (T**2 - 2Q)/Q in {2, -2, -1, 0, 1}: no index to compare
    assert ex.LucasSpec(T, Q).t in EXCLUDED
    with pytest.raises(ValueError, match="is excluded"):
        ex.verify_bridge(ex.LucasSpec(T, Q), 100)


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


def test_splitting_oracle():
    rep = ex.splitting_oracle(3, 3, 0, 1, 7)
    assert rep.polys["phi_1"] == (2, 2, "linear")  # roots {2, 4}
    assert rep.polys["f"][2] == "quadratic"
    assert not rep.k_j_theorem  # mixed split: 7 not in K_1, and 3 does not divide 8
    rep = ex.splitting_oracle(3, 3, 0, 1, 5)
    assert rep.polys["phi_1"][2] == "quadratic"  # discriminant -3 nonsquare mod 5
    rep = ex.splitting_oracle(3, 3, 1, 1, 11)
    assert rep.polys["g_1"][1] == 3
    # roots are counted by gcd, so a prime past any enumeration answers too
    rep = ex.splitting_oracle(3, 3, 1, 1, 10**5 + 3)
    assert rep.p == 10**5 + 3 and rep.polys["g_1"][1] == 3
    with pytest.raises(BadPrime):
        ex.splitting_oracle(3, 3, 1, 1, 3)
    with pytest.raises(ValueError):
        ex.splitting_oracle(3, 3, 0, 0, 7)  # j = 0 names no K_j


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
def test_splitting_oracle_matches_group_side(t, r):
    # every verdict the oracle reports, at every admissible prime and over
    # the (n, j) the suite checks, against the group computed by `ring`
    n_max, j_max = 2, 3
    delta = t * t - 4
    two = r == 2 and not is_square(delta)
    for p in primes.iter_primes(999, start=5):
        if p == r or (t.denominator * delta.numerator) % p == 0:
            continue
        m = ring.reduce_param(t, p)
        phat = ring.group_order(m).value
        v = primes.valuation(phat, r)
        for n in range(n_max + 1):
            in_m = (ring.d_elem(m) ** (phat // r ** min(n, v))).is_identity
            for j in range(max(n, 2 if two and n else 1), j_max + 1):
                rep = ex.splitting_oracle(t, r, n, j, p)
                assert rep.k_j_theorem == (phat % r**j == 0), (p, n, j)
                assert rep.m_n_k_j_theorem == (phat % r**j == 0 and in_m), (p, n, j)


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


def test_root_count_matches_enumeration():
    # every polynomial family of the splitting suite, for every prime 5 <= p < 1000
    ms = {r**n for r in ROOT_RS for n in (1, 2)} | {2**i for i in range(4)}
    coeffs = ex._cheb_c_coeffs(ms)
    for p in iter_primes(999, start=5):
        tms = [residue(t, p) for t in ROOT_TS if t.denominator % p]
        for tm in tms:
            f = [1, -tm % p, 1]
            assert ex._root_count(f, p) == _enumerated_roots(lambda x: x * x - tm * x + 1, p)
            delta = (tm * tm - 4) % p
            f = [delta, 0, 1]
            assert ex._root_count(f, p) == _enumerated_roots(lambda x: x * x + delta, p)
        for m in ms:
            # C_m at every residue by the fast-doubling ladder, not the coefficients;
            # the roots of C_m(x) - shift are the residues where it takes the value shift
            values = [cheb_c_mod(m, x, p) for x in range(p)]
            for shift in [0, *tms]:
                f = [c % p for c in coeffs[m]]
                f[0] = (f[0] - shift) % p
                assert ex._root_count(f, p) == values.count(shift), (m, shift, p)
        for r in ROOT_RS:
            if p == r:
                continue
            for j in (1, 2, 3):
                n, n_prev = r**j, r ** (j - 1)
                want = _enumerated_roots(
                    lambda x: 0 if pow(x, n, p) == 1 and pow(x, n_prev, p) != 1 else 1, p
                )
                assert ex._binomial_roots(n, p) - ex._binomial_roots(n_prev, p) == want


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([5, 7, 11, 13, 31, 97, 101, 199]),
    st.lists(st.tuples(st.integers(0, 198), st.integers(1, 4)), min_size=0, max_size=4),
    st.lists(st.integers(0, 198), min_size=1, max_size=6),
)
def test_root_count_repeated_roots(p, roots, tail):
    # f = prod (x - a)**e * (a monic cofactor of degree >= 1): repeated roots count once
    f = tail[:] + [1]
    for a, e in roots:
        for _ in range(e):
            f = [(shifted - a * c) % p for shifted, c in zip([0] + f, f + [0])]  # f * (x - a)
    f = [c % p for c in f]
    want = _enumerated_roots(lambda x: _horner(f, x, p), p)
    assert ex._root_count(f, p) == want


@pytest.mark.parametrize("t, r", [(F(3), 3), (F(3), 2), (F(5, 2), 3)])
def test_splitting_theorems_catch_a_miscounting_counter(monkeypatch, t, r):
    # one root too many must show as violations in every variant
    count = ex._root_count
    monkeypatch.setattr(ex, "_root_count", lambda f, p: count(f, p) + 1)
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


def test_identity_suite_records_failures_at_p0(monkeypatch):
    monkeypatch.setattr(ex, "cheb_u_exact", lambda n, x: 0)  # breaks composition only
    rep = ex.identity_suite(3, 4)
    assert rep.name == "identity(t=3, n_max=4)" and rep.primes_checked == 0
    assert rep.violation_count == 16 and rep.metrics["identities"] == 4 * 4 + 4 * 4
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


def test_dynamics_failures_go_through_record(monkeypatch):
    # an odd chi for every prime makes each non-divisor a violation
    monkeypatch.setattr(ex.ring, "chi_from_residue", lambda tm, p: 1)
    rep = ex.quadmap_divisor_check(5, 2000)
    assert rep.violation_count > ex.VIOLATION_CAP
    assert len(rep.violations) == ex.VIOLATION_CAP

