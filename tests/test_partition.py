import json
import multiprocessing
import random
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache
from math import isqrt

import pytest

from apparition.classify import classify, predicted_densities
from apparition.errors import ExcludedParameter, UnsupportedPrediction
from apparition.partition import (
    ComparisonRow,
    compare,
    compute_partition,
    counts_rows,
    merge_reports,
    report_to_json,
    rows_to_csv,
)
from apparition import partition, primes, ring
from apparition.primes import iter_primes, sieve, valuation
from apparition.ring import chi_valuation, index, index_by_scan, legendre, residue


def test_example_t3_r2():
    # chi over p = 3..19: 4, 10, 8, 5, 14, 18, 9  ->  v_2: 2,1,3,0,1,1,0
    rep = compute_partition(3, 2, 20, j_max=3)
    assert rep.j_counts == [2, 3, 1, 1]
    assert rep.overflow == 0 and rep.total == 7
    assert rep.excluded == {2: "is_two"}
    rep.check_conservation(pi_range=len(sieve(20)))


def test_example_t3_r3():
    # same chi list; v_3 buckets with p = 3 excluded as equals_r
    rep = compute_partition(3, 3, 20, j_max=3)
    assert rep.j_counts == [4, 0, 2, 0]
    assert rep.total == 6
    assert rep.excluded == {2: "is_two", 3: "equals_r"}


def test_denominator_exclusion():
    rep = compute_partition(F(2, 7), 3, 20, j_max=2)
    assert rep.excluded[7] == "divides_denominator"
    assert rep.total == 5


def test_delta_divisors_included():
    # p = 5 divides num(t**2-4) for t = 3; chi = 2p = 10
    assert index(3, 5) == 10
    rep = compute_partition(3, 2, 5, j_max=2)
    assert rep.total == 2  # p = 3 and p = 5 both bucketed


def test_empty_report():
    rep = compute_partition(3, 2, 2, j_max=2)
    assert rep.total == 0 and rep.j_counts == [0, 0, 0]
    assert rep.excluded == {2: "is_two"}
    for threads in (1, 2, 3):  # a range that starts past its limit holds no prime
        rep = compute_partition(3, 2, 100, threads=threads, start=200)
        assert (rep.total, rep.limit, rep.start, rep.j_counts) == (0, 100, 200, [0] * 9)
        assert rep.excluded == {}


def test_excluded_parameter():
    with pytest.raises(ExcludedParameter):
        compute_partition(2, 2, 100)


def test_overflow_bucket():
    # j_max = 0 pushes every even-chi prime into overflow
    rep = compute_partition(3, 2, 20, j_max=0)
    assert rep.j_counts == [2] and rep.overflow == 5
    rep.check_conservation()


def test_merge_split_halves():
    full = compute_partition(3, 2, 2000, j_max=5)
    lo = compute_partition(3, 2, 1000, j_max=5)
    hi = compute_partition(3, 2, 2000, j_max=5, start=1001)
    merged = merge_reports(lo, hi)
    assert merged.j_counts == full.j_counts
    assert merged.total == full.total
    assert merged.excluded == full.excluded
    with pytest.raises(ValueError):
        merge_reports(lo, full)  # overlapping ranges
    gap_lo = compute_partition(3, 2, 100, j_max=5)
    gap_hi = compute_partition(3, 2, 300, j_max=5, start=200)
    with pytest.raises(ValueError, match="not adjacent"):
        merge_reports(gap_lo, gap_hi)
    with pytest.raises(ValueError, match="not adjacent"):
        merge_reports(gap_hi, gap_lo)


@pytest.mark.parametrize("r", [0, 1, 4])
def test_rejects_non_prime_r(r):
    with pytest.raises(ValueError, match="r must be prime"):
        compute_partition(3, r, 100)


def test_threads_deterministic():
    one = compute_partition(F(2, 7), 3, 3000, j_max=4, threads=1)
    two = compute_partition(F(2, 7), 3, 3000, j_max=4, threads=2)
    assert one == two


def test_spawn_matches_fork(monkeypatch):
    # a spawned worker starts with empty module caches; a forked one inherits
    # the parent's, so this fails if a cache changes a result
    def run(method):
        # partition imports multiprocessing only to fan out, so the start
        # method is forced on the Pool it reads from the module
        context, used = multiprocessing.get_context(method), []

        def pool(*args, **kwargs):
            used.append(method)
            return context.Pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", pool)
        out = report_to_json(compute_partition(3, 2, 300000, threads=2))
        assert used == [method]
        return out

    one = report_to_json(compute_partition(3, 2, 300000, threads=1))
    assert run("fork") == one
    assert run("spawn") == one


def test_sweep_never_factors(monkeypatch):
    # the sweep needs only v_r(chi): no factor table, no trial division,
    # below the old table bound and just above 2**22
    def sweeps():
        return [
            compute_partition(3, 2, limit, start=start, threads=1)
            for start, limit in ((2, 10**4), (2**22 + 1, 2**22 + 2 * 10**4))
        ]

    before = sweeps()

    def refuse(*args, **kwargs):
        raise AssertionError("the partition sweep factored")

    for name in ("factorize", "distinct_prime_factors", "spf_table"):
        monkeypatch.setattr(primes, name, refuse)
    assert sweeps() == before


def test_sweep_is_segmented(monkeypatch):
    # the sweep sieves, counts its fixed classes and caches characters one
    # segment at a time; over several segments it agrees with the
    # single-prime kernel
    start, limit = 10**6, 10**6 + 3 * primes._SEGMENT + 17
    widths = []
    segment_masks = primes.segment_masks

    def recording(lo, hi):
        for first, mask in segment_masks(lo, hi):
            if lo > 2:  # a segment of the sweep, not the sieve of its base primes
                # start is even and every segment ends on an odd number, so
                # a segment spans twice the odd numbers of its mask
                widths.append(2 * len(mask))
            yield first, mask

    monkeypatch.setattr(primes, "segment_masks", recording)
    for t, r in ((F(-7, 2), 2), (F(2, 7), 3)):
        widths.clear()
        rep = compute_partition(t, r, limit, start=start, j_max=6)
        assert len(widths) == 4 and sum(widths) == limit - start + 1
        assert max(widths) <= primes._SEGMENT
        counts = [0] * 8
        for p in iter_primes(limit, start=start):
            if t.denominator % p:
                counts[min(chi_valuation(residue(t, p), p, r), 7)] += 1
        assert rep.j_counts + [rep.overflow] == counts, (t, r)


def test_window_below_the_cap_streams():
    # the window just below the CLI cap spans four segments; streamed, the
    # sweep holds its base primes (up to 10**4) and one segment's odd-only
    # mask, never a list of a segment's primes
    tracemalloc.start()
    try:
        rep = compute_partition(3, 2, 10**8 - 1, start=10**8 - 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rep.check_conservation(108459)
    assert peak < 1 << 20, peak


def test_class_cache_skipped_when_it_cannot_hit(monkeypatch):
    # the character periods 4|disc| and 4|plus2| are 20 and 20 for t = 3 and
    # 768 and 448 for t = 2/7; with segments narrower than that, the sweep
    # calls legendre once per character per prime, and reports as before
    calls = []

    def counting(x, p):
        calls.append(p)
        return legendre(x, p)

    monkeypatch.setattr(partition, "legendre", counting)
    cases = ((3, 2), (F(2, 7), 3))
    cached = [compute_partition(t, r, 20000) for t, r in cases]
    cached_calls = len(calls)
    monkeypatch.setattr(primes, "_SEGMENT", 16)
    calls.clear()
    assert [compute_partition(t, r, 20000) for t, r in cases] == cached
    # r = 2 reads both characters, r = 3 only that of disc
    assert len(calls) == 2 * cached[0].total + cached[1].total > cached_calls


def _per_prime_counts(t, r, j_max, lo, hi):
    """Buckets plus overflow from one `chi_valuation` per admissible prime."""
    counts = [0] * (j_max + 2)
    for p in iter_primes(hi, start=lo):
        if p != 2 and p != r and t.denominator % p:
            counts[min(chi_valuation(residue(t, p), p, r), j_max + 1)] += 1
    return counts


def _fixed_classes(t, r, j_max):
    a, b = t.numerator, t.denominator
    return partition._FixedClasses(r, j_max, b, a * a - 4 * b * b, (a + 2 * b) * b)


def _record_class_verdicts(monkeypatch):
    """The argument tuples of every call the class pass makes to its rule."""
    judged = []
    by_order = partition.chi_valuation_by_order

    def spy(*args):
        judged.append(args)
        return by_order(*args)

    monkeypatch.setattr(partition, "chi_valuation_by_order", spy)
    return judged


def _grid():
    ts = {F(a, b) for a in range(-30, 31) for b in range(1, 31)}
    return sorted(t for t in ts if t not in partition.EXCLUDED)


def _class_pass_cases():
    # a seeded sample of the grid |a| <= 30, 1 <= b <= 30 with L <= 2048, so
    # that segments 16 * L wide stay small, plus the named showcase cases:
    # 48/25 (5 | b and 7**2 | disc), 7 (t + 2 = 9) and 10/3 (disc = 64)
    rng = random.Random(20261019)
    cases = [(t, r, j_max) for t in _grid() for r in (2, 3, 5, 7) for j_max in (0, 1, 5, 6, 8, 40)]
    cases = [c for c in cases if _fixed_classes(*c).modulus <= 2048]
    named = [(t, r, j) for t in (F(48, 25), F(7), F(10, 3)) for r in (2, 3) for j in (0, 5, 8)]
    return named + rng.sample(cases, 24)


@pytest.mark.parametrize("t,r,j_max", _class_pass_cases(), ids=str)
def test_class_pass_matches_per_prime_kernel(monkeypatch, t, r, j_max):
    # segments 16 * L wide: each full one runs the class pass and the short
    # last one does not; windows start at 2, at r, at each special prime and
    # just below a segment edge, and each straddles two edges
    fixed = _fixed_classes(t, r, j_max)
    segment = 16 * fixed.modulus
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    judged = _record_class_verdicts(monkeypatch)
    for lo in (2, r, *fixed.specials, segment - 5):
        hi = lo + 2 * segment + segment // 3
        rep = compute_partition(t, r, hi, j_max=j_max, start=lo)
        assert rep.j_counts + [rep.overflow] == _per_prime_counts(t, r, j_max, lo, hi), lo
    assert judged  # the class pass ran


def test_class_pass_leaves_large_denominator_primes_excluded(monkeypatch):
    # t = 1018082/1009 has disc = (1008 * 1010)**2, so its characters are
    # periodic mod 4 alone, and 1009 is past the trial primes: only the
    # factor 1009 of L = 4 * 1009 * 3 keeps it out of every counted class
    t = F(1018082, 1009)
    assert _fixed_classes(t, 3, 8).modulus == 4 * 1009 * 3
    judged = _record_class_verdicts(monkeypatch)
    rep = compute_partition(t, 3, 200000)
    assert judged  # the class pass ran
    assert rep.excluded == {2: "is_two", 3: "equals_r", 1009: "divides_denominator"}
    assert rep.j_counts + [rep.overflow] == _per_prime_counts(t, 3, 8, 2, 200000)


def test_class_pass_judges_each_class_once(monkeypatch):
    # t = 48/25: disc = -196 = -4 * 7**2 and plus2 = 2 * 5**2 * 7**2, so
    # L = 32 for r = 2, j_max = 4, and the character periods 784 and 9800
    # exceed a 512-wide segment, where the per-prime loop caches nothing.
    # Each of the 16 classes prime to 32 is judged once in the whole sweep,
    # with one Euler test per character, and every other Euler test is the
    # per-prime loop's, two per prime it visits.  (2/p) = 1 with
    # 4 | p - (-1/p) leaves half the primes to a ladder
    t, limit = F(48, 25), 20000
    monkeypatch.setattr(primes, "_SEGMENT", 512)
    calls = {"legendre": 0, "class": 0, "kernel": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(partition, fn.__name__, wrapper)

    counting("legendre", partition.legendre)
    counting("class", partition.chi_valuation_by_order)
    counting("kernel", partition.chi_valuation_from_characters)
    rep = compute_partition(t, 2, limit, j_max=4)
    assert _fixed_classes(t, 2, 4).modulus == 32
    assert calls["class"] == 16
    assert calls["legendre"] == 2 * (calls["class"] + calls["kernel"])
    assert 0.4 * rep.total < calls["kernel"] < 0.6 * rep.total
    assert rep.j_counts + [rep.overflow] == _per_prime_counts(t, 2, 4, 2, limit)


@pytest.mark.parametrize("r", [2, 5, 7])
def test_ladder_only_where_group_order_leaves_v_open(monkeypatch, r):
    # chi divides n = p - (disc/p), so the kernel runs its C_m ladder only
    # when r | n, and for r = 2 only when t + 2 is a square and 4 | n; the
    # steps y -> C_r(y) call cheb_c_mod with index r, which the r-free m
    # never equals
    t, limit = 3, 3000
    ladders = []
    cheb_c_mod = ring.cheb_c_mod

    def counting(n, x, p):
        if n != r:
            ladders.append(p)
        return cheb_c_mod(n, x, p)

    monkeypatch.setattr(ring, "cheb_c_mod", counting)
    rep = compute_partition(t, r, limit)
    needed = []
    for p in iter_primes(limit, start=3):
        delta_char = legendre(t * t - 4, p)
        if p == r or delta_char == 0:
            continue
        n = p - delta_char
        if r == 2:
            if legendre(t + 2, p) == 1 and n % 4 == 0:
                needed.append(p)
        elif n % r == 0:
            needed.append(p)
    assert ladders == needed
    assert 0 < len(needed) < rep.total


# the ts of acceptance criterion 1 (with the square-disc cases 5/2 and 10/3),
# a further negative t, a t of large height whose character caches never
# hit below 3000, and the showcase ts 7 (t + 2 = 9 a square), 3/2 and 48/25
KERNEL_TS = [
    F(3), F(-3), F(2, 7), F(6, 5), F(2, 3), F(6), F(5, 2), F(10, 3),
    F(-7, 2), F(123456789, 1000003), F(7), F(3, 2), F(48, 25),
]


@lru_cache(maxsize=None)
def _scan_chis(t):
    return {p: index_by_scan(t, p) for p in iter_primes(3000, start=3) if t.denominator % p}


@pytest.mark.parametrize("t", KERNEL_TS, ids=str)
def test_sweep_matches_scan_oracle(t):
    chis = _scan_chis(t)
    for r in (2, 3, 5, 7):
        rep = compute_partition(t, r, 3000)
        counts = [0] * (rep.j_max + 2)
        for p, chi in chis.items():
            if p != r:
                counts[min(valuation(chi, r), rep.j_max + 1)] += 1
        assert rep.j_counts + [rep.overflow] == counts, r
        assert rep.total == sum(counts)


def _is_rational_square(q):
    return q >= 0 and all(isqrt(x) ** 2 == x for x in (q.numerator, q.denominator))


@pytest.mark.parametrize("t", KERNEL_TS, ids=str)
def test_r2_square_lemma(t):
    # ((t + 2)/p) = -1 makes xi a non-square in its cyclic group of order
    # p - ((t**2 - 4)/p), so v_2(chi) is the whole 2-part of that order
    nonsquare = 0
    for p, chi in _scan_chis(t).items():
        tm = residue(t, p)
        if legendre(tm + 2, p) == -1:
            nonsquare += 1
            assert valuation(chi, 2) == valuation(p - legendre(tm * tm - 4, p), 2), p
    if _is_rational_square(t + 2):
        assert nonsquare == 0
    else:
        assert nonsquare > 100


@pytest.mark.parametrize("t", KERNEL_TS, ids=str)
def test_r2_square_lemma_odd_order(t):
    # ((t + 2)/p) = 1 makes xi a square in its cyclic group of order
    # n = p - ((t**2 - 4)/p); when v_2(n) = 1 the squares have odd order,
    # so v_2(chi) = 0.  When 4 - t**2 is a rational square, (delta/p) is
    # (-1/p) and 4 | n for every p, so the case never arises
    hits = 0
    for p, chi in _scan_chis(t).items():
        tm = residue(t, p)
        n = p - legendre(tm * tm - 4, p)
        if n != p and legendre(tm + 2, p) == 1 and valuation(n, 2) == 1:
            hits += 1
            assert valuation(chi, 2) == 0, p
    if _is_rational_square(4 - t * t):
        assert hits == 0
    else:
        assert hits > 100


def test_compare_exact_match_is_zero():
    pred = predicted_densities(classify(3), 2, 1)
    # craft counts equal to expectation: total 36, predicted 1/3 each
    rep = compute_partition(3, 2, 20, j_max=1)
    rep.j_counts = [12, 12]
    rep.overflow = 12
    rep.total = 36
    rows = compare(rep, pred)
    assert rows[0].abs_error == 0.0 and rows[0].z_score == 0.0
    assert rows[0].predicted == F(1, 3)


def test_compare_requires_support():
    rep = compute_partition(-7, 2, 100, j_max=2)
    pred = predicted_densities(classify(-7), 2, 2)
    with pytest.raises(UnsupportedPrediction):
        compare(rep, pred)


def test_csv_format():
    rep = compute_partition(3, 2, 20, j_max=3)
    rows = compare(rep, predicted_densities(classify(3), 2, 3))
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "j,count,empirical,predicted,abs_error,z_score"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2"
    assert first[3] == "1/3"
    assert len(first[2].split(".")[1]) == 6  # six decimal places


def test_json_round_trip():
    rep = compute_partition(3, 2, 20, j_max=3)
    rows = compare(rep, predicted_densities(classify(3), 2, 3))
    doc = json.loads(report_to_json(rep, rows))
    assert doc["t"] == "3" and doc["r"] == 2 and doc["total"] == 7
    assert doc["j_counts"] == [2, 3, 1, 1]
    assert doc["rows"][0]["predicted"] == "1/3"
    assert doc["rows"][0]["count"] == 2
    assert doc["excluded"] == {"2": "is_two"}


def test_counts_rows_without_prediction():
    rep = compute_partition(-7, 2, 100, j_max=2)
    rows = counts_rows(rep)
    assert all(r.predicted is None for r in rows)
    text = rows_to_csv(rows)
    assert ",,," in text.split("\n")[1]
