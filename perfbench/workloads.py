"""The four benchmark workloads: frozen inputs and one callable per operation.

An operation is one sweep (a density-table row or the window sweep), one
verification suite, or one CLI index query.  Each operation returns a
`Result`: the text whose SHA-256 is compared with the reference, the
number of primes it handled, and the violations it reported.

The sweep and suite inputs are fixed; only `index-queries` draws its
measured queries, from the frozen pool in references.json, using the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

WORKLOADS = ("density-table", "sweep-window", "verify-suites", "index-queries")
MODULES = ("primes", "ring", "chebyshev", "classify", "partition", "experiments", "cli")
REFERENCES = Path(__file__).resolve().parent / "references.json"

# Frozen copy of SHOWCASE in scripts/density_table.py: (t, r).
SHOWCASE = [
    (F(3), 2),
    (F(3), 5),
    (F(2, 7), 3),
    (F(3, 2), 7),
    (F(2, 3), 2),
    (F(6), 2),
    (F(6, 5), 2),
    (F(48, 25), 2),
    (F(5, 2), 2),
    (F(10, 3), 3),
    (F(7), 2),
]
DENSITY_JMAX = 4

# "full" is the measured size; "tiny" is the self-check size.
SIZES = {
    "full": {
        "density_limit": 10**6,
        "window": (10**8 - 2 * 10**6, 10**8 - 1),
        "suite_limit": 10**4,
        "queries": 200,
    },
    "tiny": {
        "density_limit": 10**4,
        "window": (10**8 - 2 * 10**4, 10**8 - 1),
        "suite_limit": 300,
        "queries": 10,
    },
}


@dataclass
class Result:
    text: str
    primes: int
    primes_checked: int = 0
    violations: int = 0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def sweep_text(rep, csv: str = "") -> str:
    """Every deterministic output of a partition report, as one string."""
    excluded = ",".join(f"{p}:{why}" for p, why in sorted(rep.excluded.items()))
    return (
        f"j_counts={rep.j_counts}\noverflow={rep.overflow}\ntotal={rep.total}\n"
        f"excluded={excluded}\n{csv}"
    )


def density_ops(mods, size):
    partition, classify = mods["partition"], mods["classify"]
    limit = SIZES[size]["density_limit"]

    def row(t, r):
        rep = partition.compute_partition(t, r, limit, j_max=DENSITY_JMAX)
        pred = classify.predicted_densities(classify.classify(t), r, DENSITY_JMAX)
        csv = partition.rows_to_csv(partition.compare(rep, pred))
        return Result(sweep_text(rep, csv), rep.total + len(rep.excluded))

    return [(f"density(t={t},r={r})", lambda t=t, r=r: row(t, r)) for t, r in SHOWCASE]


def window_op(mods, size, threads: int = 1):
    partition = mods["partition"]
    lo, hi = SIZES[size]["window"]

    def sweep():
        rep = partition.compute_partition(3, 2, hi, start=lo, threads=threads)
        return Result(sweep_text(rep), rep.total + len(rep.excluded))

    return ("window(t=3,r=2)", sweep)


def suite_ops(mods, size):
    """Frozen copy of the 20 suite calls that scripts/verify_all.py makes."""
    ex = mods["experiments"]
    n = SIZES[size]["suite_limit"]
    fib, pell = ex.LucasSpec(1, -1), ex.LucasSpec(2, -1)
    cap = min(n, 2000)

    def check(call):
        def run():
            rep = call()
            return Result(rep.summary(), rep.primes_checked, rep.primes_checked,
                          rep.violation_count)
        return run

    def quadmap():
        rep = ex.quadmap_divisor_check(F(5), n)
        line = f"quadmap(t={rep.t}): {len(rep.violations)} violations"
        return Result(line, rep.primes_checked, rep.primes_checked, len(rep.violations))

    def orbit():
        rep = ex.chebyshev_orbit_divisors(F(3), 2, 20, n)
        line = (f"chebyshev-orbit(x0=3, k=2): {len(rep.divisors)} divisors, "
                f"fraction {rep.fraction:.5f}")
        return Result(line, rep.primes_checked, rep.primes_checked, len(rep.violations))

    calls = [
        ("prop11(3,2)", lambda: ex.verify_prop11(F(3), 2, n)),
        ("prop11(3,3)", lambda: ex.verify_prop11(F(3), 3, n)),
        ("twin(3)", lambda: ex.verify_twin(F(3), n)),
        ("twin(2/7)", lambda: ex.verify_twin(F(2, 7), n)),
        ("cubic(2/7)", lambda: ex.verify_cubic_associates(F(2, 7), n)),
        ("circular(6/5)", lambda: ex.verify_circular(F(6, 5), n)),
        ("bridge(fib)", lambda: ex.verify_bridge(fib, min(n, 5000))),
        ("bridge(pell)", lambda: ex.verify_bridge(pell, min(n, 5000))),
        ("ballot(fib,2)", lambda: ex.ballot_check(fib, 2, n, k_max=30)),
        ("ballot(fib,3)", lambda: ex.ballot_check(fib, 3, min(n, 2000), k_max=20)),
        ("sequence(3,W)", lambda: ex.sequence_divisor_check(F(3), "W", cap)),
        ("sequence(3,V)", lambda: ex.sequence_divisor_check(F(3), "V", cap)),
        ("sequence(3,C)", lambda: ex.sequence_divisor_check(F(3), "C", cap)),
        ("sequence(3,sub3)", lambda: ex.sequence_divisor_check(F(3), "subsequence", cap, subseq_r=3)),
        ("sequence(2/7,S)", lambda: ex.sequence_divisor_check(F(2, 7), "S", cap)),
        ("splitting(3,3)", lambda: ex.verify_splitting_theorems(F(3), 3, cap)),
        ("splitting(3,2)", lambda: ex.verify_splitting_theorems(F(3), 2, cap)),
        ("splitting(10/3,3)", lambda: ex.verify_splitting_theorems(F(10, 3), 3, cap)),
    ]
    ops = [(name, check(call)) for name, call in calls]
    ops.append(("quadmap(5)", quadmap))
    ops.append(("orbit(3,2)", orbit))
    return ops


def pick_queries(pool, size, seed: int):
    """The warm-up query, then the measured ones.

    The warm-up is always the pool's first query, so that set-up time does
    not depend on the seed.  The measured queries are a stratified draw
    from the rest of the pool: sorted by p and cut into as many equal
    blocks as there are queries, with one query drawn from each block by
    the seed, then shuffled.  Every seed thus gets the same spread of prime
    sizes, which halves how much the latency percentiles depend on the draw.
    """
    rng = random.Random(seed)
    n = SIZES[size]["queries"]
    rest = sorted(range(1, len(pool)), key=lambda i: pool[i][1])
    picks = [rest[rng.randrange(k * len(rest) // n, (k + 1) * len(rest) // n)]
             for k in range(n)]
    rng.shuffle(picks)
    return [tuple(pool[i]) for i in [0, *picks]]


def query_op(mods, t: str, p: int):
    cli = mods["cli"]

    def query():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["index", t, str(p)])
        if code != 0:
            raise RuntimeError(f"index {t} {p} exited {code}")
        return Result(buf.getvalue(), 1)

    return (f"index({t},{p})", query)


def load_modules() -> dict:
    """The package's modules by short name (`apparition.classify` is a function)."""
    return {name: importlib.import_module(f"apparition.{name}") for name in MODULES}


def operations(mods, workload: str, size: str, seed: int, threads: int = 1) -> list:
    """The workload's (name, callable) pairs; index-queries starts with its warm-up."""
    if workload == "density-table":
        return density_ops(mods, size)
    if workload == "sweep-window":
        return [window_op(mods, size, threads)]
    if workload == "verify-suites":
        return suite_ops(mods, size)
    pool = json.loads(REFERENCES.read_text())["queries"]
    return [query_op(mods, t, p) for t, p, _ in pick_queries(pool, size, seed)]
