#!/usr/bin/env python3
"""Run every exact per-prime verification suite and print one line each.

The same run as `apparition verify all --limit N`.  Exits 2 if any suite
reports a violation (they are theorems: a single violation means a bug,
not noise).
"""

import argparse
import sys

from apparition import cli


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--limit", type=int, default=10**4)
    args = ap.parse_args()
    sys.exit(cli.main(["verify", "all", "--limit", str(args.limit)]))


if __name__ == "__main__":
    main()
