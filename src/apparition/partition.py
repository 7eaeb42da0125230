"""Empirical valuation partition of the index over all primes up to N.

For each admissible odd prime p <= N (p != r, p not dividing den(t)) the
sweep finds the r-adic valuation of chi(t, p) with no factoring and
buckets p by it; primes dividing the numerator of t**2 - 4 stay in the
count (their index is p or 2p).  v_r(chi) is read off the cyclic group of
order n = p - delta, delta = ((t**2 - 4)/p), and for r = 2 the character
((t + 2)/p): `ring.chi_valuation_by_order` gives it whenever n alone does
(r does not divide n; for r = 2, t + 2 a non-square, or v_2(n) = 1), and
otherwise the ladder kernel `ring.chi_valuations_by_ladder` does: the
trace ladder on t mod p, or, for a reducible t = xi + 1/xi (chi(t, p) is
then the order of xi mod p), builtin pow on xi mod p.  The sweep applies
the rule to characters it has read and composes nothing else: one
`ring.ChiValuation` reader of t, built once per sweep, holds disc,
plus2, the ladder's x and, for an integer t, the table of exact C_k(t)
every trace ladder starts from, and its `walk` hands the kernel, in one
call, primes that share their characters: a residue class of the class
pass, or one character pair's ladder primes from a segment of the
per-prime loop.

With t = a/b, both characters are characters of integers:
((t**2 - 4)/p) = (disc/p) for disc = a**2 - 4b**2 and
((t + 2)/p) = (plus2/p) for plus2 = (a + 2b)*b.  By quadratic
reciprocity (N/p) depends only on p mod 4|k| for p not dividing 2N, where
k is N with the squares of the primes below 1000 divided out.  So the
sweep works in two passes over each segment's odd-only sieve mask
(`primes.segment_masks`):

- The class pass.  L is the lcm of 4|k| for disc and (r = 2) plus2, of
  k for b, and of r (odd r) or 2**min(j_max + 1, 6) (r = 2).  In a residue
  class c mod L prime to L, every prime has the same characters, the same
  p mod r and the same p mod 2**v_2(L), so one call of
  `chi_valuation_by_order` on the class's first prime judges the whole
  class, once per sweep.  A class whose verdict is a bucket has its
  primes counted with one `bytes.count` on its strided slice of the mask.
  Any other class keeps its characters as its verdict, and its slice is
  walked: `itertools.compress` pairs the slice with the numbers p0 + k*L
  it stands for, as `primes._segment_primes` does for a whole mask, and
  the reader's `walk` hands them all to the ladder kernel in one call,
  with the class's characters, no character lookup and no repeat of the
  group-order test.  What the class fixes is settled once per call, not
  per prime; where den of the ladder's x divides L, that includes the
  inverse of den mod p, read as (1 + k*p)/den for k = -p0**-1 mod den.
  For r = 2 with t + 2 a non-square the bucket v_2(n) holds for the
  whole class only below v_2(L); at or above it the class overflows when
  v_2(L) > j_max and is otherwise walked, and the kernel then buckets
  each prime by v_2(n), the per-prime verdict of
  `chi_valuation_by_order`, with no ladder.  The pass leaves every
  prime up to H = max(L, 1000) to the per-prime loop, clearing that head
  of the mask with one slice assignment before it counts: every odd
  prime dividing L * b * disc is at most H, since k keeps every prime
  factor of b and disc from 1000 on, so no prime above H is excluded or
  has a character 0.  The pass is skipped for a segment whose classes
  would hold fewer than 16 odd numbers each (8L above its mask length),
  where a count could not pay.
- The per-prime loop visits the primes the pass hands back, those up to
  H, or every prime of a segment the pass skips; it excludes p = r and
  the divisors of b.  A prime dividing disc has t = +-2 mod p, so both its
  characters are 0 and the reader's `at` buckets it by chi = p or 2p.
  A prime p < 1000 with p**2 | disc shares its class mod 4|k| with
  other primes, so this comes before any cache is read.  For every
  other prime the loop reads the characters from per-segment dicts
  keyed by p mod 4|k|, the periods the class pass puts into L (or, when
  a period is at least the segment width, where a cache could never
  hit, from Euler's criterion), and applies the same two rules as the
  class pass.  Where `chi_valuation_by_order` fixes v_r(chi) it buckets
  p; otherwise p joins the segment's list for its character pair, and
  when the segment ends each list goes to the reader's `walk` in one
  kernel call.  That walk has modulus 1, which fixes no class mod den,
  so x takes pow(den, -1, p) per prime unless den = 1.  So each
  segment's mask is read once, by the class pass or by the loop.

The sweep walks its range one `primes._SEGMENT`-wide piece at a time, so
memory stays bounded by one segment's mask, its class caches and its
ladder lists however wide the range or large L.  Work is sharded over
contiguous prime ranges, so reports merge by exact addition and any
worker count gives identical output; `multiprocessing` is imported only
when the work fans out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress
from math import gcd, lcm, sqrt
from typing import Iterator, Optional

from . import primes
from .classify import Prediction, parameter
from .ring import chi_from_residue  # noqa: F401  unused; perfbench/tracer.py patches it here
from .ring import ChiValuation, chi_valuation_by_order, legendre

DEFAULT_J_MAX = 8
# v_r(chi) <= log2(2p) < 64 for every p a sweep can reach, so a larger j_max
# only adds empty buckets (and a prediction of j_max + 1 Fractions)
J_MAX_CAP = 64


@dataclass
class PartitionReport:
    t: Fraction
    r: int
    limit: int
    j_max: int
    j_counts: list
    overflow: int
    total: int
    excluded: dict  # prime -> reason
    start: int = 2

    def check_conservation(self, pi_range: Optional[int] = None) -> None:
        """Bucket conservation; optionally against the prime count of the range."""
        if sum(self.j_counts) + self.overflow != self.total:
            raise AssertionError("bucket counts do not sum to total")
        if pi_range is not None and self.total + len(self.excluded) != pi_range:
            raise AssertionError("total + excluded != pi(range)")


@dataclass
class ComparisonRow:
    j: int
    count: int
    empirical: float
    # all three None where the prediction is unsupported
    predicted: Optional[Fraction]
    abs_error: Optional[float]
    z_score: Optional[float]


def _strip_trial_squares(n: int) -> int:
    """n with the squares of the primes below 1000 divided out: for a prime
    p not dividing 2n, (n/p) equals the character of the result, which
    depends only on p mod 4 times its absolute value."""
    for q in primes._SMALL_PRIMES:
        while n % (q * q) == 0:
            n //= q * q
    return n


class _FixedClasses:
    """The residue classes mod L prime to L (the class pass of the module
    docstring), with their verdicts."""

    def __init__(self, t: Fraction, r: int, j_max: int):
        self.reader = reader = ChiValuation(t, r)
        b = t.denominator
        self.b, self.r, self.j_max = b, r, j_max
        # ((t**2 - 4)/p) = (disc/p) and ((t + 2)/p) = (plus2/p) for p not
        # dividing b; each depends only on p mod its period (quadratic reciprocity)
        self.char_periods = [4 * abs(_strip_trial_squares(n)) for n in (reader.disc, reader.plus2)]
        periods = [self.char_periods[0], _strip_trial_squares(b)]
        if r == 2:
            periods += [self.char_periods[1], 2 ** min(j_max + 1, 6)]
        else:
            periods.append(r)
        self.modulus = lcm(*periods)
        self.exact_below = (self.modulus & -self.modulus).bit_length() - 1
        # H: _strip_trial_squares divides out only squares of primes below
        # _TRIAL_LIMIT, so each prime from there on that divides b * disc
        # divides L, and every odd prime dividing L * b * disc is at most H
        self.head = max(self.modulus, primes._TRIAL_LIMIT)
        self.verdicts: dict = {}  # class -> bucket (j_max + 1 is overflow), or characters

    @cached_property
    def classes(self) -> list:
        """The odd c < L prime to L."""
        return [c for c in range(1, self.modulus, 2) if gcd(c, self.modulus) == 1]

    def count(self, first: int, mask: bytearray, counts: list) -> Iterator[int]:
        """The primes of the piece (mask[i] stands for first + 2*i) that
        the per-prime loop must visit: those up to H, after each class's
        primes above H are added to their buckets, a class with a bucket by
        one count and any other prime by prime; or, for a piece too short
        to pay, all of them, with nothing counted."""
        if 8 * self.modulus > len(mask):  # a class of under 16 odd numbers: no count pays
            return primes._segment_primes(first, mask)
        head = mask[: max((self.head - first) // 2 + 1, 0)]  # a copy, for the odd numbers up to H
        mask[: len(head)] = bytes(len(head))
        modulus, verdicts = self.modulus, self.verdicts
        for c in self.classes:
            p0 = first + (c - first) % modulus  # the first number of the piece in c
            members = mask[(p0 - first) >> 1 :: modulus >> 1]  # p0 + k*L for each k
            verdict = verdicts.get(c)
            if verdict is None:  # judged on the first prime the sweep meets in c
                k = members.find(1)
                if k < 0:
                    continue
                verdict = verdicts[c] = self._verdict(p0 + k * modulus)
            if isinstance(verdict, int):
                counts[verdict] += members.count(1)
            else:  # the primes members marks, in one kernel call
                walked = compress(range(p0, p0 + modulus * len(members), modulus), members)
                self.reader.walk(walked, p0, modulus, *verdict, counts)
        return primes._segment_primes(first, head)

    def _verdict(self, p: int):
        """The bucket of every prime in p's class, or, where the bucket
        varies within the class, the class's characters (delta_char, plus2_char)."""
        delta_char = legendre(self.reader.disc, p)
        plus2_char = legendre(self.reader.plus2, p) if self.r == 2 else 0
        j = chi_valuation_by_order(p, self.r, delta_char, plus2_char)
        if j is None:
            return delta_char, plus2_char
        if j >= self.exact_below:  # v_2(p - delta) >= v_2(L)
            return self.j_max + 1 if self.exact_below > self.j_max else (delta_char, plus2_char)
        return min(j, self.j_max + 1)


def _sweep_range(args) -> PartitionReport:
    t, r, j_max, lo, hi = args
    fixed = _FixedClasses(t, r, j_max)
    b, disc, plus2, reader = fixed.b, fixed.reader.disc, fixed.reader.plus2, fixed.reader
    disc_period, plus2_period = fixed.char_periods
    # a period at least the segment width puts each prime of a segment in a
    # class of its own, where a cache could never hit
    cache_disc = disc_period < primes._SEGMENT
    cache_plus2 = plus2_period < primes._SEGMENT
    barred = 2 * r * b  # p is excluded exactly when it divides this
    top = j_max + 1
    counts = [0] * (top + 1)  # counts[top] is the overflow
    excluded = {2: "is_two"} if lo <= 2 <= hi else {}
    for first, mask in primes.segment_masks(lo, hi):
        # residue class -> character, for this segment's primes only
        disc_chars: dict = {}
        plus2_chars: dict = {}
        pending: dict = {}  # (delta_char, plus2_char) -> this segment's ladder primes
        for p in fixed.count(first, mask, counts):
            if barred % p == 0:
                excluded[p] = "equals_r" if p == r else "divides_denominator"
                continue
            if disc % p == 0:
                # t = +-2 mod p; such a p can share its class with other
                # primes, so it reads no cache
                j = reader.at(p, 0, 0)
            else:
                # each character is now +-1, so only a cache miss (None) reads false
                if cache_disc:
                    c = p % disc_period
                    delta_char = disc_chars.get(c) or disc_chars.setdefault(c, legendre(disc, p))
                else:
                    delta_char = legendre(disc, p)
                if r != 2:
                    plus2_char = 0
                elif cache_plus2:
                    c = p % plus2_period
                    plus2_char = plus2_chars.get(c) or plus2_chars.setdefault(c, legendre(plus2, p))
                else:
                    plus2_char = legendre(plus2, p)
                j = chi_valuation_by_order(p, r, delta_char, plus2_char)
                if j is None:  # a ladder prime, walked when the segment ends
                    pending.setdefault((delta_char, plus2_char), []).append(p)
                    continue
            counts[j if j < top else top] += 1
        for chars, ps in pending.items():
            reader.walk(ps, 1, 1, *chars, counts)
    return PartitionReport(
        t=t, r=r, limit=hi, j_max=j_max, j_counts=counts[:-1],
        overflow=counts[-1], total=sum(counts), excluded=excluded, start=lo,
    )


def check_partition_args(t, r: int, limit: int, j_max: int, threads: int) -> Fraction:
    """t as a Fraction, or the error `compute_partition` would raise."""
    t = parameter(t)
    if limit < 2 or threads < 1 or j_max < 0:
        raise ValueError("need limit >= 2, threads >= 1, j_max >= 0")
    if j_max > J_MAX_CAP:
        raise ValueError(f"j_max capped at {J_MAX_CAP}")
    if not primes.is_prime(r):
        raise ValueError(f"r must be prime, got {r}")
    return t


def compute_partition(
    t, r: int, limit: int, j_max: int = DEFAULT_J_MAX, threads: int = 1, start: int = 2
) -> PartitionReport:
    """Valuation partition of chi(t, p) over primes in [start, limit].

    threads > 1 fans out to min(threads, os.cpu_count()) worker processes,
    with four shards each; the report is the same for every threads.
    """
    t = check_partition_args(t, r, limit, j_max, threads)
    if threads == 1 or start > limit:
        shards = [_sweep_range((t, r, j_max, start, limit))]
    else:
        workers = min(threads, os.cpu_count() or 1)
        span = max((limit - start + 1) // (workers * 4), 1)
        bounds = [
            (t, r, j_max, lo, min(lo + span - 1, limit)) for lo in range(start, limit + 1, span)
        ]
        import multiprocessing  # only a fan-out pays for the import

        with multiprocessing.Pool(workers) as pool:
            shards = pool.map(_sweep_range, bounds)
    report = reduce(merge_reports, shards)
    report.check_conservation()
    return report


def merge_reports(a: PartitionReport, b: PartitionReport) -> PartitionReport:
    """Exact union of two reports over adjacent prime ranges."""
    if (a.t, a.r, a.j_max) != (b.t, b.r, b.j_max):
        raise ValueError("reports are not compatible")
    if a.start > b.start:
        a, b = b, a
    if b.start != a.limit + 1:
        raise ValueError(f"ranges are not adjacent: ends at {a.limit}, next starts at {b.start}")
    return PartitionReport(
        t=a.t, r=a.r, limit=b.limit, j_max=a.j_max,
        j_counts=[x + y for x, y in zip(a.j_counts, b.j_counts)],
        overflow=a.overflow + b.overflow,
        total=a.total + b.total,
        excluded={**a.excluded, **b.excluded},
        start=a.start,
    )


def compare(report: PartitionReport, pred: Prediction) -> list:
    """Per-level comparison rows against the prediction; an unsupported
    one leaves each row's predicted, abs_error and z_score None."""
    if pred.r != report.r:
        raise ValueError("prediction r does not match report")
    if pred.supported and len(pred.densities) < report.j_max + 1:
        raise ValueError("prediction too short for report j_max")
    rows = []
    n = report.total
    for j in range(report.j_max + 1):
        count = report.j_counts[j]
        emp = count / n if n else 0.0
        row = ComparisonRow(
            j=j, count=count, empirical=emp, predicted=None, abs_error=None, z_score=None
        )
        if pred.supported:
            d = row.predicted = pred.densities[j]
            var = n * float(d) * (1.0 - float(d))
            row.abs_error = abs(emp - float(d))
            row.z_score = (count - n * float(d)) / sqrt(var) if var > 0 else 0.0
        rows.append(row)
    return rows


CSV_HEADER = "j,count,empirical,predicted,abs_error,z_score"


def rows_to_csv(rows) -> str:
    """CSV text; decimals fixed at 6 places, predicted exact as "a/b"."""
    lines = [CSV_HEADER]
    for row in rows:
        if row.predicted is None:
            lines.append(f"{row.j},{row.count},{row.empirical:.6f},,,")
        else:
            lines.append(
                f"{row.j},{row.count},{row.empirical:.6f},{Fraction(row.predicted)},"
                f"{row.abs_error:.6f},{row.z_score:.6f}"
            )
    return "\n".join(lines) + "\n"


def report_to_dict(report: PartitionReport, rows=None) -> dict:
    """The JSON document of the report and its rows, before it is dumped."""
    doc = {
        "t": str(report.t),
        "r": report.r,
        "limit": report.limit,
        "j_max": report.j_max,
        "total": report.total,
        "overflow": report.overflow,
        "excluded": {str(p): reason for p, reason in sorted(report.excluded.items())},
        "j_counts": report.j_counts,
    }
    if rows is not None:
        doc["rows"] = [
            {
                "j": row.j,
                "count": row.count,
                "empirical": round(row.empirical, 6),
                "predicted": None if row.predicted is None else str(Fraction(row.predicted)),
                "abs_error": None if row.abs_error is None else round(row.abs_error, 6),
                "z_score": None if row.z_score is None else round(row.z_score, 6),
            }
            for row in rows
        ]
    return doc
