#!/usr/bin/env python3
"""Run every exact per-prime verification suite and print one line each.

Exits nonzero if any suite reports a violation (they are theorems: a
single violation means a bug, not noise).
"""

import argparse
import sys
from fractions import Fraction as F

from apparition import experiments as ex


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--limit", type=int, default=10**4)
    args = ap.parse_args()
    n = args.limit

    fib = ex.LucasSpec(1, -1)
    pell = ex.LucasSpec(2, -1)
    cap = min(n, 2000)
    reports = [
        ex.verify_prop11(F(3), 2, n),
        ex.verify_prop11(F(3), 3, n),
        ex.verify_twin(F(3), n),
        ex.verify_twin(F(2, 7), n),
        ex.verify_cubic_associates(F(2, 7), n),
        ex.verify_circular(F(6, 5), n),
        ex.verify_bridge(fib, min(n, 5000)),
        ex.verify_bridge(pell, min(n, 5000)),
        ex.ballot_check(fib, 2, n, k_max=30),
        ex.ballot_check(fib, 3, min(n, 2000), k_max=20),
        ex.sequence_divisor_check(F(3), "W", cap),
        ex.sequence_divisor_check(F(3), "V", cap),
        ex.sequence_divisor_check(F(3), "C", cap),
        ex.sequence_divisor_check(F(3), "subsequence", cap, subseq_r=3),
        ex.sequence_divisor_check(F(2, 7), "S", cap),
        ex.verify_splitting_theorems(F(3), 3, cap),
        ex.verify_splitting_theorems(F(3), 2, cap),
        ex.verify_splitting_theorems(F(10, 3), 3, cap),
        ex.quadmap_divisor_check(F(5), min(n, ex.ENUMERATION_CAP)),
        ex.chebyshev_orbit_divisors(F(3), 2, 20, n),
    ]
    for rep in reports:
        print(rep.summary())
    sys.exit(0 if all(rep.passed for rep in reports) else 2)


if __name__ == "__main__":
    main()
