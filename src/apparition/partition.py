"""Empirical valuation partition of the index over all primes up to N.

For each admissible odd prime p <= N (p != r, p not dividing den(t)) the
sweep finds the r-adic valuation of chi(t, p) with no factoring and
buckets p by it; primes dividing the numerator of t**2 - 4 stay in the
count (their index is p or 2p).  v_r(chi) is read off the cyclic group of
order n = p - delta, delta = ((t**2 - 4)/p), and for r = 2 the character
((t + 2)/p): `ring.chi_valuation_by_order` gives it whenever n alone does
(r does not divide n; for r = 2, t + 2 a non-square, or v_2(n) = 1), and
otherwise `ring.chi_valuation_from_characters` runs one trace ladder.

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
  class, once per sweep.  A class with a verdict has its primes counted
  with one `bytes.count` on its strided slice of the mask, added to its
  bucket, and cleared from the mask.  For r = 2 the verdict v_2(n) holds
  for the class only below v_2(L); at or above it the class overflows
  when v_2(L) > j_max and otherwise has no verdict.  The special primes,
  the primes below 1000 dividing b * disc (their characters are 0 or
  they are excluded), are held out of the count.  The pass is skipped for
  a segment whose classes would hold fewer than 16 odd numbers each
  (8L above its mask length), where a count could not pay.
- The per-prime loop visits what is left: primes that need a ladder,
  primes of classes with no verdict, the special primes, and p = r and
  the divisors of b, which it excludes.  It reads the characters from
  per-segment dicts keyed by p mod 4|N| (or, when that period is at least
  the segment width, where a cache could never hit, from Euler's
  criterion) and calls `chi_valuation_from_characters`.

The sweep walks its range one `primes._SEGMENT`-wide piece at a time, so
memory stays bounded by one segment's mask and its class caches however
wide the range or large L.  Work is sharded over contiguous prime
ranges, so reports merge by exact addition and any worker count gives
identical output; `multiprocessing` is imported only when the work fans
out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, sqrt
from typing import Optional

from . import primes
from .classify import EXCLUDED, Prediction
from .errors import ExcludedParameter, UnsupportedPrediction
from .ring import chi_from_residue  # noqa: F401  unused; perfbench/tracer.py patches it here
from .ring import chi_valuation_by_order, chi_valuation_from_characters, legendre

DEFAULT_J_MAX = 8


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
    predicted: Fraction
    abs_error: float
    z_score: float


def _strip_trial_squares(n: int) -> int:
    """n with the squares of the primes below 1000 divided out: for a prime
    p not dividing 2n, (n/p) equals the character of the result, which
    depends only on p mod 4 times its absolute value."""
    for q in primes._SMALL_PRIMES:
        while n % (q * q) == 0:
            n //= q * q
    return n


class _FixedClasses:
    """The residue classes mod L in which the group order fixes v_r(chi)
    (the class pass of the module docstring), with their verdicts."""

    def __init__(self, r: int, j_max: int, b: int, disc: int, plus2: int):
        self.r, self.j_max, self.disc, self.plus2 = r, j_max, disc, plus2
        periods = [4 * abs(_strip_trial_squares(disc)), _strip_trial_squares(b)]
        if r == 2:
            periods += [4 * abs(_strip_trial_squares(plus2)), 2 ** min(j_max + 1, 6)]
        else:
            periods.append(r)
        self.modulus = lcm(*periods)
        self.exact_below = (self.modulus & -self.modulus).bit_length() - 1
        self.specials = [q for q in primes._SMALL_PRIMES[1:] if b * disc % q == 0]
        self.classes = None  # the odd c < L prime to L, less those found to have no verdict
        self.verdicts: dict = {}  # class -> bucket (j_max + 1 is overflow), or None

    def count(self, first: int, mask: bytearray, counts: list) -> None:
        """Add the primes of each class with a verdict to its bucket and
        clear them from the mask (mask[i] stands for first + 2*i); the
        special primes stay in the mask."""
        if 8 * self.modulus > len(mask):  # a class of under 16 odd numbers: no count pays
            return
        if self.classes is None:
            self.classes = [c for c in range(1, self.modulus, 2) if gcd(c, self.modulus) == 1]
        size, step = len(mask), self.modulus >> 1
        held = [(q - first) >> 1 for q in self.specials if first <= q < first + 2 * size]
        for i in held:
            mask[i] = 0
        zeros = memoryview(bytes(-(-size // step)))
        verdicts, still_open = self.verdicts, []
        for c in self.classes:
            i = ((c - first) % self.modulus) >> 1  # the first odd number of the piece in c
            members = mask[i::step]
            if c not in verdicts:  # judged on the first prime the sweep meets in c
                k = members.find(1)
                if k < 0:
                    still_open.append(c)
                    continue
                verdicts[c] = self._verdict(first + 2 * (i + k * step))
            if verdicts[c] is None:
                continue  # left to the per-prime loop, and never sliced again
            counts[verdicts[c]] += members.count(1)
            mask[i::step] = zeros[: len(members)]
            still_open.append(c)
        self.classes = still_open
        for i in held:
            mask[i] = 1

    def _verdict(self, p: int) -> Optional[int]:
        """The bucket of every prime in p's class, or None."""
        plus2_char = legendre(self.plus2, p) if self.r == 2 else 0
        j = chi_valuation_by_order(p, self.r, legendre(self.disc, p), plus2_char)
        if j is not None and j >= self.exact_below:  # v_2(p - delta) >= v_2(L)
            return self.j_max + 1 if self.exact_below > self.j_max else None
        return None if j is None else min(j, self.j_max + 1)


def _sweep_range(args) -> PartitionReport:
    t, r, j_max, lo, hi = args
    a, b = t.numerator, t.denominator
    t_arg = a if b == 1 else t  # the kernel reduces an int t without inverting b
    # ((t**2 - 4)/p) = (disc/p) and ((t + 2)/p) = (plus2/p) for p not dividing
    # b; each depends only on p mod its period (quadratic reciprocity)
    disc = a * a - 4 * b * b
    plus2 = (a + 2 * b) * b
    disc_period, plus2_period = 4 * abs(disc), 4 * abs(plus2)
    # a period at least the segment width puts each prime of a segment in a
    # class of its own, where a cache could never hit
    cache_disc = disc_period < primes._SEGMENT
    cache_plus2 = plus2_period < primes._SEGMENT
    barred = 2 * r * b  # p is excluded exactly when it divides this
    fixed = _FixedClasses(r, j_max, b, disc, plus2)
    top = j_max + 1
    counts = [0] * (top + 1)  # counts[top] is the overflow
    excluded = {2: "is_two"} if lo <= 2 <= hi else {}
    for first, mask in primes.segment_masks(lo, hi):
        fixed.count(first, mask, counts)
        # residue class -> character, for this segment's primes only; a
        # class holding a prime dividing 2 * disc or plus2 holds no other
        disc_chars: dict = {}
        plus2_chars: dict = {}
        for p in primes._segment_primes(first, mask):
            if barred % p == 0:
                excluded[p] = "equals_r" if p == r else "divides_denominator"
                continue
            if cache_disc:
                key = p % disc_period
                delta_char = disc_chars.get(key)
                if delta_char is None:
                    delta_char = disc_chars[key] = legendre(disc, p)
            else:
                delta_char = legendre(disc, p)
            plus2_char = 0
            if r == 2:
                if cache_plus2:
                    key = p % plus2_period
                    plus2_char = plus2_chars.get(key)
                    if plus2_char is None:
                        plus2_char = plus2_chars[key] = legendre(plus2, p)
                else:
                    plus2_char = legendre(plus2, p)
            j = chi_valuation_from_characters(t_arg, p, r, delta_char, plus2_char)
            counts[j if j < top else top] += 1
    return PartitionReport(
        t=t, r=r, limit=hi, j_max=j_max, j_counts=counts[:-1],
        overflow=counts[-1], total=sum(counts), excluded=excluded, start=lo,
    )


def check_partition_args(t, r: int, limit: int, j_max: int, threads: int) -> Fraction:
    """t as a Fraction, or the error `compute_partition` would raise."""
    t = Fraction(t)
    if t in EXCLUDED:
        raise ExcludedParameter(f"t = {t} is excluded")
    if limit < 2 or threads < 1 or j_max < 0:
        raise ValueError("need limit >= 2, threads >= 1, j_max >= 0")
    if not primes.is_prime(r):
        raise ValueError(f"r must be prime, got {r}")
    return t


def compute_partition(
    t, r: int, limit: int, j_max: int = DEFAULT_J_MAX, threads: int = 1, start: int = 2
) -> PartitionReport:
    """Valuation partition of chi(t, p) over primes in [start, limit]."""
    t = check_partition_args(t, r, limit, j_max, threads)
    if threads == 1 or start > limit:
        shards = [_sweep_range((t, r, j_max, start, limit))]
    else:
        span = max((limit - start + 1) // (threads * 4), 1)
        bounds = [
            (t, r, j_max, lo, min(lo + span - 1, limit)) for lo in range(start, limit + 1, span)
        ]
        import multiprocessing  # only a fan-out pays for the import

        with multiprocessing.Pool(threads) as pool:
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
    """Per-level comparison rows against a supported prediction."""
    if not pred.supported:
        raise UnsupportedPrediction(pred.source)
    if pred.r != report.r:
        raise ValueError("prediction r does not match report")
    if len(pred.densities) < report.j_max + 1:
        raise ValueError("prediction too short for report j_max")
    rows = []
    n = report.total
    for j in range(report.j_max + 1):
        count = report.j_counts[j]
        d = pred.densities[j]
        emp = count / n if n else 0.0
        var = n * float(d) * (1.0 - float(d))
        z = (count - n * float(d)) / sqrt(var) if var > 0 else 0.0
        rows.append(
            ComparisonRow(
                j=j, count=count, empirical=emp, predicted=d,
                abs_error=abs(emp - float(d)), z_score=z,
            )
        )
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


def counts_rows(report: PartitionReport) -> list:
    """Comparison-shaped rows with no prediction attached."""
    n = report.total
    return [
        ComparisonRow(
            j=j, count=report.j_counts[j],
            empirical=report.j_counts[j] / n if n else 0.0,
            predicted=None, abs_error=0.0, z_score=0.0,
        )
        for j in range(report.j_max + 1)
    ]


def report_to_json(report: PartitionReport, rows=None) -> str:
    """JSON mirror of the report and comparison rows."""
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
                "abs_error": round(row.abs_error, 6),
                "z_score": round(row.z_score, 6),
            }
            for row in rows
        ]
    return json.dumps(doc, indent=2)
