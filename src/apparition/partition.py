"""Empirical valuation partition of the index over all primes up to N.

For each admissible odd prime p <= N (p != r, p not dividing den(t)) the
sweep computes the r-adic valuation of chi(t, p) directly, with
`ring.chi_valuation`, which factors nothing, and buckets p by it; primes
dividing the numerator of t**2 - 4 stay in the count (their index is p
or 2p).  Work is sharded over contiguous prime ranges, so reports
merge by exact addition and any worker count gives identical output.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Optional

from . import primes
from .classify import EXCLUDED, Prediction
from .errors import ExcludedParameter, UnsupportedPrediction
from .ring import chi_from_residue  # noqa: F401  unused; perfbench/tracer.py patches it here
from .ring import chi_valuation, residue

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


def _sweep_range(args) -> tuple:
    t, r, j_max, lo, hi = args
    td = t.denominator
    counts = [0] * (j_max + 1)
    overflow = 0
    total = 0
    excluded = {}
    for p in primes.primes_in_range(lo, hi):
        if p == 2:
            excluded[p] = "is_two"
            continue
        if p == r:
            excluded[p] = "equals_r"
            continue
        if td % p == 0:
            excluded[p] = "divides_denominator"
            continue
        j = chi_valuation(residue(t, p), p, r)
        if j <= j_max:
            counts[j] += 1
        else:
            overflow += 1
        total += 1
    return counts, overflow, total, excluded


def compute_partition(
    t, r: int, limit: int, j_max: int = DEFAULT_J_MAX, threads: int = 1, start: int = 2
) -> PartitionReport:
    """Valuation partition of chi(t, p) over primes in [start, limit]."""
    t = Fraction(t)
    if t in EXCLUDED:
        raise ExcludedParameter(f"t = {t} is excluded")
    if limit < 2 or threads < 1 or j_max < 0:
        raise ValueError("need limit >= 2, threads >= 1, j_max >= 0")
    if not primes.is_prime(r):
        raise ValueError(f"r must be prime, got {r}")

    if threads == 1:
        results = [_sweep_range((t, r, j_max, start, limit))]
    else:
        bounds = []
        span = max((limit - start + 1) // (threads * 4), 1)
        lo = start
        while lo <= limit:
            hi = min(lo + span - 1, limit)
            bounds.append((t, r, j_max, lo, hi))
            lo = hi + 1
        with multiprocessing.Pool(threads) as pool:
            results = pool.map(_sweep_range, bounds)

    counts = [0] * (j_max + 1)
    overflow = 0
    total = 0
    excluded: dict = {}
    for c, o, n, e in results:
        for j in range(j_max + 1):
            counts[j] += c[j]
        overflow += o
        total += n
        excluded.update(e)
    report = PartitionReport(
        t=t, r=r, limit=limit, j_max=j_max, j_counts=counts,
        overflow=overflow, total=total, excluded=excluded, start=start,
    )
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
