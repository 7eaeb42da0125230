import json
import multiprocessing
import os
import random
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apparition.classify import EXCLUDED, classify, predicted_densities
from apparition.errors import ExcludedParameter
from apparition.partition import (
    ComparisonRow,
    compare,
    compute_partition,
    merge_reports,
    report_to_dict,
    rows_to_csv,
)
from apparition import partition, primes, ring
from apparition.primes import iter_primes, sieve, valuation
from apparition.ring import (
    ChiValuation,
    chi_valuation_by_order,
    index,
    index_by_scan,
    legendre,
    residue,
)


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


def test_j_max_capped():
    # v_r(chi) < 64 for every p a sweep can reach; past that a bucket is empty
    assert compute_partition(3, 2, 100, j_max=64).j_counts[9:] == [0] * 56
    with pytest.raises(ValueError, match="j_max capped at 64"):
        compute_partition(3, 2, 100, j_max=65)


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


def test_fan_out_bounded_by_cpu_count(monkeypatch):
    # a huge threads asks for no more workers than CPUs; the fake pool maps
    # in-process, so an unbounded request fails here without starting any
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    rep = compute_partition(3, 2, 10**4, threads=10**6)
    assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)
    assert rep == compute_partition(3, 2, 10**4, threads=1)


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
        out = report_to_dict(compute_partition(3, 2, 300000, threads=2))
        assert used == [method]
        return out

    one = report_to_dict(compute_partition(3, 2, 300000, threads=1))
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
                counts[min(ChiValuation(residue(t, p), r)(p), 7)] += 1
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
    # the character periods 4|k| (k with the small squares divided out) are
    # 20 and 20 for t = 3 and 12 and 28 for t = 2/7; with segments narrower
    # than that, the sweep calls legendre once per character per prime, save
    # at p = 5, which divides disc = 5 for t = 3 and reads no character, and
    # reports as before
    calls = []

    def counting(x, p):
        calls.append(p)
        return legendre(x, p)

    monkeypatch.setattr(partition, "legendre", counting)
    cases = ((3, 2), (F(2, 7), 3))
    assert [_fixed_classes(t, r, 8).char_periods for t, r in cases] == [[20, 20], [12, 28]]
    cached = [compute_partition(t, r, 20000) for t, r in cases]
    cached_calls = len(calls)
    monkeypatch.setattr(primes, "_SEGMENT", 8)
    calls.clear()
    assert [compute_partition(t, r, 20000) for t, r in cases] == cached
    # r = 2 reads both characters, r = 3 only that of disc
    assert len(calls) == 2 * (cached[0].total - 1) + cached[1].total > cached_calls


def _per_prime_counts(t, r, j_max, lo, hi):
    """Buckets plus overflow from one reader of t mod p per admissible prime."""
    counts = [0] * (j_max + 2)
    for p in iter_primes(hi, start=lo):
        if p != 2 and p != r and t.denominator % p:
            counts[min(ChiValuation(residue(t, p), r)(p), j_max + 1)] += 1
    return counts


def test_prime_dividing_disc_reads_no_class_cache(monkeypatch):
    # t = 11: disc = 117 = 3**2 * 13 has the character period 4 * 13 = 52,
    # and 3 and 107 share a class mod 52.  With 4096-wide segments the class
    # pass is skipped (L = 832), so the per-prime loop buckets both; 3, where
    # (disc/3) = 0, must read no cached character and leave none behind
    monkeypatch.setattr(primes, "_SEGMENT", 4096)
    assert _fixed_classes(F(11), 2, 8).char_periods[0] == 52 and 107 % 52 == 3
    rep = compute_partition(11, 2, 20000)
    assert rep.j_counts + [rep.overflow] == _per_prime_counts(F(11), 2, 8, 2, 20000)


def _fixed_classes(t, r, j_max):
    return partition._FixedClasses(F(t), r, j_max)


def _record_class_verdicts(monkeypatch):
    """The primes on which the class pass judges a class."""
    judged = []
    verdict = partition._FixedClasses._verdict

    def spy(self, p):
        judged.append(p)
        return verdict(self, p)

    monkeypatch.setattr(partition._FixedClasses, "_verdict", spy)
    return judged


def _grid():
    ts = {F(a, b) for a in range(-30, 31) for b in range(1, 31)}
    return sorted(t for t in ts if t not in EXCLUDED)


def _class_pass_cases():
    # a seeded sample of the grid |a| <= 30, 1 <= b <= 30 with L <= 2048, so
    # that segments 16 * L wide stay small, plus the named showcase cases:
    # 48/25 (5 | b and 7**2 | disc), 7 (t + 2 = 9), 10/3 (disc = 64) and
    # 843 (13**2 and 29**2 divide disc, and both exceed L = 20)
    rng = random.Random(20261019)
    cases = [(t, r, j_max) for t in _grid() for r in (2, 3, 5, 7) for j_max in (0, 1, 5, 6, 8, 40)]
    cases = [c for c in cases if _fixed_classes(*c).modulus <= 2048]
    named = [(t, r, j) for t in (F(48, 25), F(7), F(10, 3)) for r in (2, 3) for j in (0, 5, 8)]
    named += [(F(843), 2, 1), (F(843), 5, 8)]
    return named + rng.sample(cases, 24)


def _special_primes(fixed):
    """The odd primes dividing L * b * disc, by trial division up to
    max(L, 999) and a primality test: an oracle for the primes the class
    pass must leave to the per-prime loop."""
    held = fixed.modulus * fixed.b * fixed.reader.disc
    odd = range(3, max(fixed.modulus, 999) + 1, 2)
    return [q for q in odd if held % q == 0 and primes.is_prime(q)]


@pytest.mark.parametrize("t,r,j_max", _class_pass_cases(), ids=str)
def test_class_pass_matches_per_prime_kernel(monkeypatch, t, r, j_max):
    # segments 16 * L wide: each full one runs the class pass on its primes
    # above H = max(L, 1000) and the short last one does not; windows start
    # at 2, at r, at each special prime, just below a segment edge and just
    # below and above H, and each straddles two edges
    fixed = _fixed_classes(t, r, j_max)
    segment = 16 * fixed.modulus
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    judged = _record_class_verdicts(monkeypatch)
    for lo in (2, r, *_special_primes(fixed), segment - 5, fixed.head - 1, fixed.head + 1):
        hi = lo + 2 * segment + segment // 3
        rep = compute_partition(t, r, hi, j_max=j_max, start=lo)
        assert rep.j_counts + [rep.overflow] == _per_prime_counts(t, r, j_max, lo, hi), lo
    assert judged  # the class pass ran


def test_class_pass_leaves_large_denominator_primes_excluded(monkeypatch):
    # t = 1018082/1009 has disc = (1008 * 1010)**2, so its characters are
    # periodic mod 4 alone, and 1009 is past the trial primes: only the
    # factor 1009 of L = 4 * 1009 * 3 = H keeps it out of every counted
    # class and in the head the class pass hands to the per-prime loop
    t = F(1018082, 1009)
    assert _fixed_classes(t, 3, 8).modulus == _fixed_classes(t, 3, 8).head == 4 * 1009 * 3
    judged = _record_class_verdicts(monkeypatch)
    rep = compute_partition(t, 3, 200000)
    assert judged  # the class pass ran
    assert rep.excluded == {2: "is_two", 3: "equals_r", 1009: "divides_denominator"}
    assert rep.j_counts + [rep.overflow] == _per_prime_counts(t, 3, 8, 2, 200000)


def _assert_head_holds_special_primes(t, r, j_max):
    """Every odd prime dividing L * b * disc is at most H = max(L, 1000),
    so the class pass counts none of them.  A prime of L is at most L;
    those of b and of disc = (a - 2b)(a + 2b) come from `primes.factorize`."""
    fixed = _fixed_classes(t, r, j_max)
    a, b = t.numerator, t.denominator
    assert fixed.reader.disc == (a - 2 * b) * (a + 2 * b)
    held = {q for n in (b, a - 2 * b, a + 2 * b) for q in primes.factorize(abs(n))}
    assert all(q <= fixed.head for q in held if q != 2), (t, r, j_max, fixed.head)


@pytest.mark.parametrize("r,j_max", [(r, j) for r in (2, 3, 5, 7) for j in (4, 8)])
def test_head_holds_every_special_prime_on_the_grid(r, j_max):
    for t in _grid():
        _assert_head_holds_special_primes(t, r, j_max)


@pytest.mark.parametrize(
    "t,r,modulus,head", [(F(1018082, 1009), 3, 12108, 12108), (F(843), 5, 20, 1000)], ids=str
)
def test_head_holds_special_primes_past_the_modulus_or_the_trial_primes(t, r, modulus, head):
    # 1009 divides b and is no trial prime, so it divides L = 12108 = H;
    # 843 = 29**2 + 2 has disc = 5 * 13**2 * 29**2 and L = 20, so its
    # special primes 13 and 29 lie above L and below H = 1000
    fixed = _fixed_classes(t, r, 8)
    assert (fixed.modulus, fixed.head) == (modulus, head)
    _assert_head_holds_special_primes(t, r, 8)


_PRIMES_TO_1E5 = primes.primes_in_range(2, 10**5)
_prime_powers = st.lists(
    st.tuples(st.sampled_from(_PRIMES_TO_1E5), st.integers(1, 2)), min_size=1, max_size=2
)


@settings(max_examples=200, deadline=None)
@given(_prime_powers, _prime_powers, st.booleans(), st.sampled_from([2, 3, 5, 7]),
       st.sampled_from([4, 8]))
def test_head_holds_every_special_prime_of_large_factors(den, shift, negative, r, j_max):
    # t = 2 + s/b with b and s products of prime powers up to 10**5, squares
    # included, so that a - 2b = s puts them in disc too
    b = s = 1
    for q, e in den:
        b *= q**e
    for q, e in shift:
        s *= q**e
    t = 2 + F(-s if negative else s, b)
    assume(t not in EXCLUDED)
    _assert_head_holds_special_primes(t, r, j_max)


def test_class_pass_judges_each_class_once(monkeypatch):
    # t = 48/25: disc = -196 = -4 * 7**2 and plus2 = 2 * 5**2 * 7**2, so
    # L = 32 for r = 2, j_max = 4.  Each of the 16 classes prime to 32 is
    # judged once in the whole sweep, with one Euler test per character;
    # every other Euler test is the per-prime loop's, at most two per prime
    # it judges, and the loop judges only the primes up to H = 1000 but 5
    # (which divides b) and 7 (which divides disc), and the primes of the
    # short last segment.  (2/p) = 1 with 4 | p - (-1/p) leaves half the
    # primes to a ladder, which the kernel runs, class by class for the
    # primes the class pass counts and by character pair for the loop's
    t, limit = F(48, 25), 20000
    monkeypatch.setattr(primes, "_SEGMENT", 512)
    calls = {"legendre": 0, "rule": 0, "ladder": 0}

    def counting(name, module, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, fn.__name__, wrapper)

    counting("legendre", partition, partition.legendre)
    counting("rule", partition, partition.chi_valuation_by_order)
    counting("rule", ring, ring.chi_valuation_by_order)
    kernel = ring.chi_valuations_by_ladder

    def laddering(ps, r, delta_char, plus2_char, *rest):
        ps = list(ps)
        if plus2_char != -1:  # -1 buckets v_2(p - delta) with no ladder
            calls["ladder"] += len(ps)
        return kernel(ps, r, delta_char, plus2_char, *rest)

    monkeypatch.setattr(ring, "chi_valuations_by_ladder", laddering)
    judged = _record_class_verdicts(monkeypatch)
    rep = compute_partition(t, 2, limit, j_max=4)
    assert _fixed_classes(t, 2, 4).modulus == 32
    assert len(judged) == 16
    loop = calls["rule"] - len(judged)
    last = 2 + (limit - 2) // 512 * 512  # where the short last segment starts
    head = [p for p in primes.primes_in_range(3, 1000) if p not in (5, 7)]
    assert _fixed_classes(t, 2, 4).head == 1000
    assert loop == len(head) + len(primes.primes_in_range(last, limit)) == 165 + 5
    assert 2 * len(judged) < calls["legendre"] <= 2 * (len(judged) + loop)
    assert 0.4 * rep.total < calls["ladder"] < 0.6 * rep.total
    assert rep.j_counts + [rep.overflow] == _per_prime_counts(t, 2, 4, 2, limit)


@pytest.mark.parametrize(
    "t,r,j_max",
    [(F(3), 2, 8), (F(48, 25), 2, 4), (F(2, 7), 3, 4), (F(7), 2, 8), (F(6, 5), 2, 4),
     (F(10, 3), 3, 8), (F(3, 2), 7, 4)],
    ids=str,
)
def test_class_pass_walks_every_ordinary_prime(monkeypatch, t, r, j_max):
    # a window of three segments 16 * L wide, all full and all above H =
    # max(L, 1000), so that the class pass hands no prime to the per-prime
    # loop: it buckets every prime of them, with one kernel call for each
    # class it walks in a segment, and no mask is read by prime, so the
    # no-ladder rule sees only the prime each class is judged on.  A walked
    # class with a non-square t + 2 (r = 2, v_2(L) <= j_max) reaches the
    # kernel, which buckets each prime by v_2(p - delta) with no ladder and
    # no rule call
    fixed = _fixed_classes(t, r, j_max)
    segment = 16 * fixed.modulus
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    seen = []
    by_order = partition.chi_valuation_by_order

    def spy(p, *args):
        seen.append(p)
        return by_order(p, *args)

    walks = []  # (primes, plus2_char) of each kernel call
    kernel = ring.chi_valuations_by_ladder

    def walking(ps, r, delta_char, plus2_char, *rest):
        ps = list(ps)
        walks.append((ps, plus2_char))
        return kernel(ps, r, delta_char, plus2_char, *rest)

    read = []  # the mask lengths _segment_primes reads
    segment_primes = primes._segment_primes

    def reading(first, mask):
        read.append(len(mask))
        return segment_primes(first, mask)

    class_walks = []
    walk = ring.ChiValuation.walk

    def counting(self, ps, p0, *args):
        class_walks.append(p0)
        return walk(self, ps, p0, *args)

    lo = fixed.head + 1
    hi = lo + 3 * segment - 1
    want = _per_prime_counts(t, r, j_max, lo, hi)
    monkeypatch.setattr(partition, "chi_valuation_by_order", spy)
    monkeypatch.setattr(ring, "chi_valuation_by_order", spy)
    monkeypatch.setattr(ring, "chi_valuations_by_ladder", walking)
    monkeypatch.setattr(primes, "_segment_primes", reading)
    monkeypatch.setattr(ring.ChiValuation, "walk", counting)
    verdict = partition._FixedClasses._verdict
    judged = _record_class_verdicts(monkeypatch)
    rep = compute_partition(t, r, hi, j_max=j_max, start=lo)
    # only the base sieve up to isqrt(hi) reads its masks by prime
    assert all(n < segment // 2 for n in read), t
    assert rep.j_counts + [rep.overflow] == want
    swept = sorted(seen)  # before the verdicts below call the spy again
    # one kernel call per class walk, each on primes of that one class
    assert len(walks) == len(class_walks), t
    for (ps, _), p0 in zip(walks, class_walks):
        assert all(p % fixed.modulus == p0 % fixed.modulus for p in ps), t
    by_rule = {q % fixed.modulus for q in judged if verdict(fixed, q) in ((1, -1), (-1, -1))}
    walked = [p for p in iter_primes(hi, start=lo) if p % fixed.modulus in by_rule]
    assert swept == sorted(judged), t
    assert sorted(p for ps, plus2_char in walks if plus2_char == -1 for p in ps) == walked, t
    assert bool(walked) == ((t, r, j_max) == (3, 2, 8)), t


@pytest.mark.parametrize("segment", [None, 4096], ids=["class-pass", "per-prime-loop"])
def test_table_start_below_the_cli_cap(monkeypatch, segment):
    # t = 3 below 10**8: every C_m(3) ladder starts from the reader's table
    # of C_0(3), ..., C_258(3), in the class walks of default segments, and
    # in the per-prime loop of segments 4096 wide, too short for the class
    # pass (8L = 2560 for L = 320 exceeds their 2048-byte masks); the
    # reference factors p -+ 1 and reads chi itself, with no table
    if segment is not None:
        monkeypatch.setattr(primes, "_SEGMENT", segment)
        assert 8 * _fixed_classes(3, 2, 8).modulus > segment // 2
    lo, hi = 10**8 - 2 * 10**4, 10**8 - 1
    rep = compute_partition(3, 2, hi, start=lo)
    counts = [0] * (rep.j_max + 2)
    for p in iter_primes(hi, start=lo):
        counts[min(valuation(index(3, p), 2), rep.j_max + 1)] += 1
    assert rep.j_counts + [rep.overflow] == counts
    assert rep.total == sum(counts) > 1000


def test_per_prime_loop_where_no_class_count_pays(monkeypatch):
    # L = 45632 for -27/2 (r = 2) and 49476 for -25/3 (r = 7): 8L exceeds
    # a default segment's mask, so the class pass judges no class and the
    # per-prime loop buckets every prime of the three segments, with the
    # same no-ladder rule and ladder
    judged = _record_class_verdicts(monkeypatch)
    lo = 10**6
    hi = lo + 2 * primes._SEGMENT + 17
    for t, r, modulus in ((F(-27, 2), 2, 45632), (F(-25, 3), 7, 49476)):
        assert _fixed_classes(t, r, 8).modulus == modulus
        rep = compute_partition(t, r, hi, start=lo)
        assert rep.j_counts + [rep.overflow] == _per_prime_counts(t, r, 8, lo, hi), t
    assert judged == []


@pytest.mark.parametrize("t,r", [(F(-27, 2), 2), (F(-25, 3), 7)], ids=str)
def test_per_prime_loop_walks_each_character_pair_once_per_segment(monkeypatch, t, r):
    # the per-prime loop keeps each prime the no-ladder rule leaves open
    # until its segment ends, then walks each character pair's primes in
    # one call: every walk holds primes of one segment with the characters
    # it is given, none that the rule fixes, and every such prime once
    lo = 10**6
    hi = lo + 2 * primes._SEGMENT + 17
    reader = ChiValuation(t, r)
    want = _per_prime_counts(t, r, 8, lo, hi)
    walks = []  # (segment, delta_char, plus2_char) of each walk
    walked = []
    walk = ring.ChiValuation.walk

    def walking(self, ps, p0, modulus, delta_char, plus2_char, counts):
        ps = list(ps)
        (segment,) = {(p - lo) // primes._SEGMENT for p in ps}
        walks.append((segment, delta_char, plus2_char))
        for p in ps:
            assert legendre(reader.disc, p) == delta_char, p
            assert (legendre(reader.plus2, p) if r == 2 else 0) == plus2_char, p
            assert chi_valuation_by_order(p, r, delta_char, plus2_char) is None, p
        walked.extend(ps)
        return walk(self, ps, p0, modulus, delta_char, plus2_char, counts)

    monkeypatch.setattr(ring.ChiValuation, "walk", walking)
    rep = compute_partition(t, r, hi, start=lo)
    assert rep.j_counts + [rep.overflow] == want
    assert len(walks) == len(set(walks)) <= 3 * 4  # segments times character pairs
    open_primes = [
        p for p in iter_primes(hi, start=lo)
        if reader.disc % p and chi_valuation_by_order(
            p, r, legendre(reader.disc, p), legendre(reader.plus2, p) if r == 2 else 0
        ) is None
    ]
    assert sorted(walked) == open_primes and len(walks) >= 4


@pytest.mark.parametrize("r", [2, 5, 7])
def test_ladder_only_where_group_order_leaves_v_open(monkeypatch, r):
    # chi divides n = p - (disc/p), so the sweep runs a C_m ladder only
    # when r | n, and for r = 2 only when t + 2 is a square and 4 | n; the
    # steps y -> C_r(y) call cheb_c_mod with index r, which the r-free m
    # never equals.  The class pass walks its ladder primes class by
    # class, so they are compared in ascending order
    t, limit = 3, 3000
    ladders = []
    cheb_c_mod = ring.cheb_c_mod

    def counting(n, x, p, table=None):
        if n != r:
            ladders.append(p)
        return cheb_c_mod(n, x, p, table)

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
    assert sorted(ladders) == needed
    assert 0 < len(needed) < rep.total


@pytest.mark.parametrize("t", [F(5, 2), F(10, 3), F(-5, 2), F(17, 4), F(13, 6)], ids=str)
def test_reducible_sweep_runs_no_trace_ladder(monkeypatch, t):
    # t = xi + 1/xi with xi rational: where the no-ladder rule leaves
    # v_r(chi) open, the sweep reads v_r(ord_p xi) by builtin pow, in the
    # per-prime loop (below 3000) and in the class pass (to 3 * 10**5), and
    # never calls cheb_c_mod, the trace ladder.  Both reach the kernel
    # through the reader's `walk`: the loop once per segment and character
    # pair, the class pass once per class walk
    ladders, powers = [], []
    cheb_c_mod = ring.cheb_c_mod
    kernel = ring.chi_valuations_by_ladder

    def counting(n, x, p):
        ladders.append(p)
        return cheb_c_mod(n, x, p)

    def spy(ps, r, delta_char, plus2_char, reducible, *rest):
        assert reducible
        ps = list(ps)
        if plus2_char != -1:  # -1 buckets v_2(p - delta) with no ladder
            powers.extend(ps)
        return kernel(ps, r, delta_char, plus2_char, reducible, *rest)

    monkeypatch.setattr(ring, "cheb_c_mod", counting)
    monkeypatch.setattr(ring, "chi_valuations_by_ladder", spy)
    judged = _record_class_verdicts(monkeypatch)
    for r in (2, 3, 5, 7):
        for limit in (3000, 3 * 10**5):
            compute_partition(t, r, limit)
    assert judged and powers and ladders == []


def test_per_prime_loop_reads_the_order_of_xi(monkeypatch):
    # t = 4099 + 1/4099 has L = 4 * 4099 * 3 = 49188 for r = 3: 8L exceeds a
    # default segment's mask, so the per-prime loop buckets every prime by
    # the order of 4099 mod p, and agrees with the trace ladder of a reader
    # of t mod p.  disc is a square, so every ladder prime has the
    # characters (1, 0), and the loop walks a segment's in one kernel call
    t = F(4099) + F(1, 4099)
    assert _fixed_classes(t, 3, 8).modulus == 49188 > primes._SEGMENT // 16
    judged = _record_class_verdicts(monkeypatch)
    lo = 10**6
    hi = lo + 2 * primes._SEGMENT + 17
    # the reference reads residues, so it takes the trace ladder: it runs
    # before the spy that asserts the pow path
    want = _per_prime_counts(t, 3, 8, lo, hi)
    powers = []
    segments = []  # the segment of each kernel call
    kernel = ring.chi_valuations_by_ladder

    def spy(ps, r, delta_char, plus2_char, reducible, num, den, lift, counts, table):
        # x = 4099 with nothing to invert, on primes of one segment
        assert reducible and (num, den, lift) == (4099, 1, 0)
        assert (delta_char, plus2_char) == (1, 0)
        (segment,) = {(p - lo) // primes._SEGMENT for p in ps}
        segments.append(segment)
        powers.extend(ps)
        return kernel(ps, r, delta_char, plus2_char, reducible, num, den, lift, counts, table)

    monkeypatch.setattr(ring, "chi_valuations_by_ladder", spy)
    rep = compute_partition(t, 3, hi, start=lo)
    assert rep.j_counts + [rep.overflow] == want
    assert segments == sorted(set(segments)) and len(segments) >= 2
    assert judged == [] and 0.4 * rep.total < len(powers) < 0.6 * rep.total


# the ts of acceptance criterion 1 (with the square-disc cases 5/2 and 10/3),
# a further negative t, a t of large height whose character caches never
# hit below 3000, the showcase ts 7 (t + 2 = 9 a square), 3/2 and 48/25, and
# the reducible -5/2 = -2 - 1/2 and 13/6 = 2/3 + 3/2 (xi a negative integer,
# and no integer)
KERNEL_TS = [
    F(3), F(-3), F(2, 7), F(6, 5), F(2, 3), F(6), F(5, 2), F(10, 3),
    F(-7, 2), F(123456789, 1000003), F(7), F(3, 2), F(48, 25), F(-5, 2), F(13, 6),
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


@pytest.mark.parametrize(
    "t,r,j_max,hoisted",
    [(F(2, 7), 3, 8, True), (F(6, 5), 2, 1, True), (F(48, 25), 2, 1, False)],
    ids=str,
)
def test_class_walk_inverse_matches_scan_oracle(monkeypatch, t, r, j_max, hoisted):
    # den(t) divides L for 2/7 (L = 84) and 6/5 (L = 20 at j_max = 1), so
    # each walked class fixes p mod den and the kernel reads x = t mod p as
    # (num + lift*p)/den; 48/25 has L = 8 at j_max = 1, prime to 25, and
    # takes pow(25, -1, p) per prime.  Segments 16 * L wide put every
    # ladder prime below 3000 but the short last segment's in a class walk;
    # the per-prime loop walks the rest with modulus 1, which fixes no p
    # mod den > 1, so it never hoists
    fixed = _fixed_classes(t, r, j_max)
    assert (fixed.modulus % t.denominator == 0) == hoisted
    monkeypatch.setattr(primes, "_SEGMENT", 16 * fixed.modulus)
    walks = []  # [modulus, lift] of each walk
    walk = ring.ChiValuation.walk
    kernel = ring.chi_valuations_by_ladder

    def walking(self, ps, p0, modulus, *args):
        walks.append([modulus, None])
        return walk(self, ps, p0, modulus, *args)

    def spy(ps, r, delta_char, plus2_char, reducible, num, den, lift, counts, table):
        walks[-1][1] = lift
        return kernel(ps, r, delta_char, plus2_char, reducible, num, den, lift, counts, table)

    monkeypatch.setattr(ring.ChiValuation, "walk", walking)
    monkeypatch.setattr(ring, "chi_valuations_by_ladder", spy)
    rep = compute_partition(t, r, 3000, j_max=j_max)
    counts = [0] * (j_max + 2)
    for p, chi in _scan_chis(t).items():
        if p != r:
            counts[min(valuation(chi, r), j_max + 1)] += 1
    assert rep.j_counts + [rep.overflow] == counts
    lifts = [lift for modulus, lift in walks if modulus == fixed.modulus]
    loop = [lift for modulus, lift in walks if modulus == 1]
    assert len(lifts) + len(loop) == len(walks)
    assert len(lifts) > 10 and all((lift is not None) == hoisted for lift in lifts)
    assert loop and all(lift is None for lift in loop)


@pytest.mark.parametrize("t", KERNEL_TS, ids=str)
def test_ladder_part_matches_scan_oracle(t):
    # the ladder gives v_r(chi) at every prime off delta = 0, also where the
    # group order alone would decide
    for p, chi in _scan_chis(t).items():
        tm = residue(t, p)
        delta_char = legendre(tm * tm - 4, p)
        if delta_char:
            for r in (2, 3, 5, 7):
                counts = [0] * 13  # v_r(p -+ 1) <= 11 below 3000
                ring.chi_valuations_by_ladder((p,), r, delta_char, 0, False, tm, 1, 0, counts)
                assert counts.index(1) == valuation(chi, r), (p, r)


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


def test_compare_without_support_gives_bare_counts():
    # -7 is in the r = 2 gap: 2 - t is a square and no rule applies, so no
    # row has a prediction, an error or a z-score (an exact fit reads 0.0)
    rep = compute_partition(-7, 2, 100, j_max=2)
    pred = predicted_densities(classify(-7), 2, 2)
    assert not pred.supported
    assert compare(rep, pred) == [
        ComparisonRow(
            j=j, count=c, empirical=c / rep.total, predicted=None, abs_error=None, z_score=None
        )
        for j, c in enumerate(rep.j_counts)
    ]
    with pytest.raises(ValueError, match="prediction r does not match report"):
        compare(compute_partition(-7, 3, 100, j_max=2), pred)


def test_compare_guards_a_supported_prediction():
    rep = compute_partition(3, 2, 20, j_max=3)
    with pytest.raises(ValueError, match="prediction r does not match report"):
        compare(rep, predicted_densities(classify(3), 3, 3))
    with pytest.raises(ValueError, match="prediction too short for report j_max"):
        compare(rep, predicted_densities(classify(3), 2, 2))


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
    doc = json.loads(json.dumps(report_to_dict(rep, rows)))
    assert doc["t"] == "3" and doc["r"] == 2 and doc["total"] == 7
    assert doc["j_counts"] == [2, 3, 1, 1]
    assert doc["rows"][0]["predicted"] == "1/3"
    assert doc["rows"][0]["count"] == 2
    assert doc["excluded"] == {"2": "is_two"}


def test_compare_rows_without_prediction():
    rep = compute_partition(-7, 2, 100, j_max=2)
    rows = compare(rep, predicted_densities(classify(-7), 2, 2))
    assert all(r.predicted is None for r in rows)
    text = rows_to_csv(rows)
    assert ",,," in text.split("\n")[1]
