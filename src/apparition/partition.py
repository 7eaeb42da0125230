"""Empirical valuation partition of the index over all primes up to N.

For each admissible odd prime p <= N (p != r, p not dividing den(t)) the
sweep computes the r-adic valuation of chi(t, p) directly, with the
factor-free kernel `ring.chi_valuation_from_characters`, and buckets p by
it; primes dividing the numerator of t**2 - 4 stay in the count (their
index is p or 2p).  The kernel runs a trace ladder only where the group
order p -+ 1 leaves v_r(chi) open: not when r does not divide it, and for
r = 2 not when t + 2 is a non-square or the 2-part of p -+ 1 is 2.

The kernel needs two quadratic characters.  With t = a/b, both are
characters of integers: ((t**2 - 4)/p) = (disc/p) for disc = a**2 - 4b**2
(split, p - 1, or inert, p + 1), and ((t + 2)/p) = (plus2/p) for
plus2 = (a + 2b)*b (for r = 2, whether D_t is a square in its group).  By
quadratic reciprocity (N/p) depends only on p mod 4|N| for p not dividing
2N, so the sweep reads them from dicts keyed by that residue class instead
of running Euler's criterion per prime.  A class that holds a prime
dividing 2N holds that prime alone, so its entry is right too.  When a
period is at least the segment width, no two primes of a segment share a
class, so that character comes from Euler's criterion with no cache.

The sweep walks its range one `primes._SEGMENT`-wide piece at a time
(`primes.prime_segments`), reading each piece's primes from a stream, and
starts the caches afresh in each, so memory stays bounded by one
segment's odd-only mask and its class caches however wide the range or
large the periods.  Work is sharded over contiguous prime ranges, so
reports merge by exact addition and any worker count gives identical
output; `multiprocessing` is imported only when the work fans out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import sqrt
from typing import Optional

from . import primes
from .classify import EXCLUDED, Prediction
from .errors import ExcludedParameter, UnsupportedPrediction
from .ring import chi_from_residue  # noqa: F401  unused; perfbench/tracer.py patches it here
from .ring import chi_valuation_from_characters, legendre

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
    counts = [0] * (j_max + 1)
    overflow = 0
    total = 0
    excluded = {}
    for segment in primes.prime_segments(lo, hi):
        # residue class -> character, for this segment's primes only; a
        # class holding a prime dividing 2 * disc or plus2 holds no other
        disc_chars: dict = {}
        plus2_chars: dict = {}
        for p in segment:
            if barred % p == 0:
                excluded[p] = (
                    "is_two" if p == 2 else "equals_r" if p == r else "divides_denominator"
                )
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
            if j <= j_max:
                counts[j] += 1
            else:
                overflow += 1
            total += 1
    return PartitionReport(
        t=t, r=r, limit=hi, j_max=j_max, j_counts=counts,
        overflow=overflow, total=total, excluded=excluded, start=lo,
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
