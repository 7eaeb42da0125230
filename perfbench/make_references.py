#!/usr/bin/env python3
"""Record the reference outputs in references.json and validate them once.

Run from the repository root, at the commit whose outputs are the
reference:  python3 perfbench/make_references.py

It records, for both sizes, the SHA-256 of every operation's output, and
builds the frozen pool of index queries (t from the showcase, p a prime of
30-38 bits).  Before writing, it checks the outputs by paths independent of
the fast `chi_from_residue` kernel:

- every density-table row at limit 10^4 against `ring.index_by_scan`;
- sampled primes of the 10^6 rows and of the window, each swept alone,
  against the order of D computed with `RingElem` powers;
- every query answer by D**chi == I and D**(chi/q) != I through `RingElem`;
- every suite reporting zero violations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402

POOL_SIZE = 600
RNG_SEED = 2410  # fixes the pool and the sampled primes


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases (exact below 3.3e24)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out.append(n)
    return out


def d_matrix(ring, t: F, p: int):
    tm = t.numerator * pow(t.denominator, -1, p) % p
    return ring.RingElem(ring.ModParam(p, tm, (tm * tm - 4) % p), 1, tm)


def chi_by_powers(ring, t: F, p: int) -> int:
    """Order of D by RingElem powers, from the group order p - 1, p + 1, p or 2p."""
    d = d_matrix(ring, t, p)
    delta = d.param.delta_mod
    if delta == 0:
        n = 2 * p
    else:
        n = p - 1 if pow(delta, (p - 1) // 2, p) == 1 else p + 1
    if not (d**n).is_identity:
        raise AssertionError(f"D**{n} != I for t={t}, p={p}")
    o = n
    for q in prime_factors(n):
        while o % q == 0 and (d ** (o // q)).is_identity:
            o //= q
    return o


def check_chi(ring, t: F, p: int, chi: int) -> None:
    d = d_matrix(ring, t, p)
    if not (d**chi).is_identity or any((d ** (chi // q)).is_identity for q in prime_factors(chi)):
        raise AssertionError(f"chi({t},{p}) = {chi} is not the order of D")


def valuation(n: int, r: int) -> int:
    j = 0
    while n % r == 0:
        n //= r
        j += 1
    return j


def check_single_primes(mods, t: F, r: int, j_max: int, ps) -> None:
    """Sweep each prime alone and compare its bucket with chi_by_powers."""
    for p in sorted(ps, reverse=True):  # largest first: one smallest-factor table
        rep = mods["partition"].compute_partition(t, r, p, j_max=j_max, start=p)
        j = valuation(chi_by_powers(mods["ring"], t, p), r)
        want = [1 if i == j else 0 for i in range(j_max + 1)]
        if rep.j_counts != want or rep.overflow != (j > j_max) or rep.excluded:
            raise AssertionError(f"sweep bucket of p={p} for t={t}, r={r}")


def random_primes(rng, lo: int, hi: int, k: int) -> list:
    out = set()
    while len(out) < k:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            out.add(n)
    return sorted(out)


def validate_density(mods, rng) -> None:
    ring, partition = mods["ring"], mods["partition"]
    small = [p for p in range(2, 10**4 + 1) if is_prime(p)]
    for t, r in wl.SHOWCASE:
        counts, overflow, total, excluded = [0] * (wl.DENSITY_JMAX + 1), 0, 0, {}
        for p in small:
            if p == 2:
                excluded[p] = "is_two"
            elif p == r:
                excluded[p] = "equals_r"
            elif t.denominator % p == 0:
                excluded[p] = "divides_denominator"
            else:
                j = valuation(ring.index_by_scan(t, p), r)
                total += 1
                if j <= wl.DENSITY_JMAX:
                    counts[j] += 1
                else:
                    overflow += 1
        rep = partition.compute_partition(t, r, 10**4, j_max=wl.DENSITY_JMAX)
        if (rep.j_counts, rep.overflow, rep.total, rep.excluded) != (counts, overflow, total, excluded):
            raise AssertionError(f"density row t={t}, r={r} disagrees with index_by_scan")
        ps = [p for p in random_primes(rng, 10**4, 10**6, 10) if t.denominator % p and p != r]
        check_single_primes(mods, t, r, wl.DENSITY_JMAX, ps)


def validate_window(mods, rng) -> None:
    for size in wl.SIZES:
        lo, hi = wl.SIZES[size]["window"]
        check_single_primes(mods, F(3), 2, 8, random_primes(rng, lo, hi, 40))


def make_pool(mods, rng) -> list:
    ts = sorted({t for t, _ in wl.SHOWCASE})
    pool = []
    for i in range(POOL_SIZE):
        bits = 30 + i % 9
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        while not is_prime(p):
            p += 2
        t = rng.choice(ts)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].main(["index", str(t), str(p)])
        line = buf.getvalue()
        if code != 0 or not line.startswith(f"chi({t},{p}) = "):
            raise AssertionError(f"index {t} {p}: exit {code}, output {line!r}")
        check_chi(mods["ring"], t, p, int(line.split("=")[-1]))
        pool.append([str(t), p, line])
    return pool


def record_digests(mods) -> dict:
    digests = {}
    for size in wl.SIZES:
        digests[size] = {}
        for workload in ("density-table", "sweep-window", "verify-suites"):
            digests[size][workload] = {}
            for name, fn in wl.operations(mods, workload, size, seed=0):
                res = fn()
                if res.violations:
                    raise AssertionError(f"{name}: {res.violations} violations")
                digests[size][workload][name] = res.digest
    return digests


def main() -> None:
    mods = wl.load_modules()
    rng = random.Random(RNG_SEED)
    validate_density(mods, rng)
    validate_window(mods, rng)
    pool = make_pool(mods, rng)
    refs = {"digests": record_digests(mods), "queries": pool}
    wl.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {wl.REFERENCES}: {len(pool)} queries")


if __name__ == "__main__":
    main()
