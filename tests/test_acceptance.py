"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The exact-relation suites must report zero violations;
the density criteria are statistical with the stated tolerances.
"""

import time
from fractions import Fraction as F

from apparition import experiments as ex
from apparition.classify import classify, predicted_densities
from apparition.partition import compare, compute_partition
from apparition.primes import factorize, iter_primes
from apparition.ring import (
    d_elem,
    group_order,
    index,
    index_by_scan,
    reduce_param,
)

FIB = ex.LucasSpec(1, -1)
PELL = ex.LucasSpec(2, -1)


def _order_mod(x: int, p: int) -> int:
    """ord_p(x) for a prime p not dividing x: strip primes of p - 1 while x**o stays 1."""
    o = p - 1
    for q in factorize(p - 1):
        while o % q == 0 and pow(x, o // q, p) == 1:
            o //= q
    return o


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sweep_and_check(num, t, r, tol_pairs, limit=10**6, time_cap=None):
    """Partition sweep and |empirical_j - predicted_j| < tol for given js."""
    t0 = time.perf_counter()
    rep = compute_partition(t, r, limit, j_max=8)
    elapsed = time.perf_counter() - t0
    pred = predicted_densities(classify(t), r, 8)
    rows = compare(rep, pred)
    errs = {row.j: row.abs_error for row in rows}
    ok = all(errs[j] < tol for j, tol in tol_pairs)
    if time_cap is not None:
        ok = ok and elapsed < time_cap
    detail = (
        f"t={t} r={r} N={limit} "
        + " ".join(f"|e{j}-{rows[j].predicted}|={errs[j]:.5f}" for j, _ in tol_pairs)
        + f" ({elapsed:.1f}s)"
    )
    _report(num, ok, detail)
    return rep


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    ts = [F(3), F(-3), F(2, 7), F(6, 5), F(2, 3), F(6), F(5, 2), F(10, 3)]
    mismatches = 0
    checked = 0
    for t in ts:
        for p in iter_primes(2000, start=3):
            if t.denominator % p == 0:
                continue
            checked += 1
            if index(t, p) != index_by_scan(t, p):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        mismatches == 0 and elapsed < 5.0,
        f"index == index_by_scan on {checked} (t,p) pairs, "
        f"{mismatches} mismatches ({elapsed:.2f}s < 5s)",
    )


def test_criterion_02_group_order_formula():
    mismatches = 0
    checked = 0
    for p in iter_primes(10**4, start=3):
        m = reduce_param(3, p)
        go = group_order(m)
        checked += 1
        if m.delta_mod == 0:
            # t = 3 = -2 mod 5 is the only delta divisor: order 2p
            want = p if m.t_mod == 2 else 2 * p
            if go != want:
                mismatches += 1
            continue
        sign = 1 if pow(m.delta_mod, (p - 1) // 2, p) == 1 else -1
        if go != p - sign:
            mismatches += 1
        if not (d_elem(m) ** go).is_identity:  # Lagrange: chi | phat
            mismatches += 1
    _report(2, mismatches == 0, f"group order formula on {checked} primes, {mismatches} mismatches")


def test_criterion_03_lucas_bridge():
    reps = [ex.verify_bridge(FIB, 5000), ex.verify_bridge(PELL, 5000)]
    ok = all(r.passed for r in reps)
    _report(3, ok, "; ".join(r.summary() for r in reps))


def test_criterion_04_identity_suite():
    reps = [ex.identity_suite(t) for t in (F(3), F(-3), F(2, 7))]
    ok = all(r.passed and r.metrics["identities"] > 100 for r in reps)
    _report(4, ok, "; ".join(r.summary() for r in reps))


def test_criterion_05_generic_r2_density():
    _sweep_and_check(
        5, F(3), 2, [(0, 0.01), (1, 0.01), (2, 0.01)], time_cap=120.0
    )


def test_criterion_06_cubic_primitive_density():
    _sweep_and_check(6, F(2, 7), 3, [(0, 0.01), (1, 0.01), (2, 0.01)])


def test_criterion_07_minus_square_r7_density():
    _sweep_and_check(7, F(3, 2), 7, [(0, 0.01), (1, 0.01)])


def test_criterion_08_type_b_density():
    _sweep_and_check(8, F(2, 3), 2, [(0, 0.01), (1, 0.01), (2, 0.01)])


def test_criterion_09_type_a_density():
    _sweep_and_check(9, F(6), 2, [(0, 0.01), (1, 0.01), (2, 0.01)])


def test_criterion_10_circular_primitive_density():
    _sweep_and_check(10, F(6, 5), 2, [(0, 0.01), (1, 0.01), (2, 0.01)])


def test_criterion_11_plus_square_density_and_congruence():
    rep = _sweep_and_check(11, F(3), 5, [(0, 0.01), (1, 0.01), (2, 0.01)])
    # Exact part: 5 | phat forces p = 1 mod 5 (plus-square congruence).
    exceptions = 0
    members = 0
    for p in iter_primes(10**6, start=3):
        if p == 5:
            continue
        m = reduce_param(3, p)
        if m.delta_mod == 0:
            continue
        if group_order(m) % 5 == 0:
            members += 1
            if p % 5 != 1:
                exceptions += 1
    _report(
        11,
        exceptions == 0,
        f"all {members} primes with 5 | phat satisfy p = 1 mod 5 ({exceptions} exceptions)",
    )
    assert rep.total > 0


def test_criterion_12_exact_symmetry_suites():
    reps = [
        ex.verify_prop11(F(3), 2, 10**4),
        ex.verify_prop11(F(3), 3, 10**4),
        ex.verify_twin(F(3), 10**4),
        ex.verify_twin(F(2, 7), 10**4),
        ex.verify_cubic_associates(F(2, 7), 10**4),
        ex.verify_circular(F(6, 5), 10**4),
    ]
    ok = all(r.passed for r in reps)
    _report(12, ok, "; ".join(r.summary() for r in reps))


def test_criterion_13_splitting_theorems():
    reps = [
        ex.verify_splitting_theorems(F(3), 3, 2000, n_max=2, j_max=3),
        ex.verify_splitting_theorems(F(3), 2, 2000, n_max=2, j_max=3),
        ex.verify_splitting_theorems(F(10, 3), 3, 2000, n_max=2, j_max=3),
    ]
    ok = all(r.passed for r in reps)
    _report(13, ok, "; ".join(r.summary() for r in reps))


def test_criterion_14_ballot():
    rep = ex.ballot_check(FIB, 2, 10**4, k_max=30)
    _report(14, rep.passed, rep.summary())


def test_criterion_15_sequence_divisor_sets():
    reps = [
        ex.sequence_divisor_check(F(3), "W", 2000),
        ex.sequence_divisor_check(F(3), "V", 2000),
        ex.sequence_divisor_check(F(3), "C", 2000),
        ex.sequence_divisor_check(F(3), "subsequence", 2000, subseq_r=3),
        ex.sequence_divisor_check(F(2, 7), "S", 2000),
    ]
    ok = all(r.passed for r in reps)
    _report(15, ok, "; ".join(r.summary() for r in reps))


def test_criterion_16_quadratic_map():
    rep5 = ex.quadmap_divisor_check(F(5), 10**4)
    # independent oracle for t = 5/2 (xi = 2): p divides iff ord_p(2) is odd
    rep52 = ex.quadmap_divisor_check(F(5, 2), 10**4)
    odd_order = set()
    for p in iter_primes(10**4, start=3):
        if _order_mod(2, p) % 2 == 1:
            odd_order.add(p)
    oracle_ok = set(rep52.divisors) == odd_order
    density_ok = abs(rep52.density - 7 / 24) < 0.02
    ok = rep5.passed and rep52.passed and oracle_ok and density_ok
    _report(
        16,
        ok,
        f"t=5: {len(rep5.violations)} violations; t=5/2: {len(rep52.violations)} violations, "
        f"oracle match {oracle_ok}, |density-7/24| = {abs(rep52.density - 7/24):.4f} < 0.02",
    )


def test_criterion_17_chebyshev_orbit():
    rep = ex.chebyshev_orbit_divisors(F(3), 2, 20, 10**5)
    ok = rep.passed and rep.fraction < 0.01
    _report(
        17,
        ok,
        f"{len(rep.divisors)} orbit divisors of {rep.primes_checked} primes "
        f"(fraction {rep.fraction:.5f} < 0.01), {len(rep.violations)} bound/order violations",
    )


def test_criterion_18_nondivisor_density():
    t0 = time.perf_counter()
    rep = ex.nondivisor_density(F(3), F(-8, 19), F(-33, 19), 7, 10**6)
    elapsed = time.perf_counter() - t0
    delta = abs(rep.ratio - float(rep.expected))
    ok = rep.passed and delta < 0.005
    _report(
        18,
        ok,
        f"|T|/pi(N) = {rep.ratio:.6f} vs (r-1)/r^3 = {float(rep.expected):.6f} "
        f"(|diff| = {delta:.6f} < 0.005); scan conflicts and order mismatches "
        f"{rep.violation_count} ({elapsed:.1f}s)",
    )
