"""Command-line surface.

Exit codes: 0 success, 1 invalid input (parse errors, excluded or
inadmissible parameters, a suite that checks no prime) or no stdout to
write to, 2 verification failure (a suite reported violations).  All
configuration is via flags; rationals use the strict "a/b" format and
the p of `index` plain digits, both in ASCII digits alone; decimals are
fixed at six places.

`partition` sweeps one t, or every t of a --batch file (not both, and not
a file with no t; a malformed or excluded t there is refused as
FILE:LINE: ...), and prints the rows of `partition.compare`; for a t
with no supported prediction it first writes a `note:` line on stderr,
and the rows carry no prediction.  A sweep that counts no prime has no
fit to print, and exits 1 naming its t.

Every refusal, argparse's parse errors among them (`_Parser`), reaches
the one handler of `main` and prints one `error:` line.

Every command that prints suite reports is a table row, (call, cap,
reads), run by the one handler `_cmd_verify`: `_VERIFY` holds the
`verify` suites, `verify all` among them, `_DYNAMICS` the `dynamics`
kinds and `_NONDIVISOR` the `nondivisor` suite.  reads names the options
the call reads besides --limit and --out, and for `verify` the positional
t where the call reads it.  The handler refuses a given t or option the
row does not read (`verify bridge 3` exits with "verify bridge takes no
t", rather than running its defaults), checks the limit against
[3, LIMIT_CAP], then against the row's cap, opens --out, and only then
runs the suites and prints their reports, so a refused run prints none.
--out is emptied only as the violations are written: a run refused
inside its suites leaves an existing file as it was, and removes the one
it created.  `verify sequences` refuses --r for any family but
subsequence, the one that reads it.

The classification JSON record has the schema produced by
classify.to_json_dict: scalar flags plus "per_r" keyed by the prime r,
with rationals rendered as "a/b" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Optional

from . import experiments, partition, ring
from .classify import classify, parameter, predicted_densities, to_json_dict
from .errors import ApparitionError, ExcludedParameter
from .exactnum import parse_decimal, parse_rational

LIMIT_CAP = 10**8


def _cmd_classify(args) -> int:
    cls = classify(parse_rational(args.t))
    print(json.dumps(to_json_dict(cls), indent=2))
    return 0


def _cmd_index(args) -> int:
    t = parse_rational(args.t)
    p = parse_decimal(args.p)
    chi = ring.index(t, p)
    print(f"chi({t},{p}) = {chi}")
    return 0


def _prediction(t: Fraction, args):
    """The prediction for t, or the error its sweep would raise."""
    partition.check_partition_args(t, args.r, args.limit, args.jmax, args.threads)
    return predicted_densities(classify(t), args.r, args.jmax)


def _partition_one(t: Fraction, pred, args):
    """The sweep of t and its rows compared with the prediction, if any."""
    report = partition.compute_partition(
        t, args.r, args.limit, j_max=args.jmax, threads=args.threads
    )
    if report.total == 0:  # every prime up to the limit is excluded: no fit to print
        raise ValueError(f"t={t}: no prime counted up to {args.limit}")
    if not pred.supported:
        print(f"note: no supported prediction for t={t} ({pred.source})", file=sys.stderr)
    return report, partition.compare(report, pred)


def _cmd_partition(args) -> int:
    if args.limit > LIMIT_CAP:
        raise ValueError(f"limit capped at {LIMIT_CAP}")
    if args.batch:
        if args.t is not None:
            raise ValueError("give t or --batch, not both")
        with open(args.batch, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        ts = []
        for number, line in enumerate(lines, 1):
            if line and not line.startswith("#"):
                try:
                    ts.append(parameter(parse_rational(line)))
                except (ExcludedParameter, ValueError) as exc:
                    raise ValueError(f"{args.batch}:{number}: {exc}") from None
        if not ts:
            raise ValueError(f"no t in {args.batch}")
    elif args.t is None:
        raise ValueError("either t or --batch is required")
    else:
        ts = [parse_rational(args.t)]
    # every t is checked and predicted before the first sweep, so that a
    # refused t on any line of a batch exits at once, named by file and line
    preds = [_prediction(t, args) for t in ts]
    results = [_partition_one(t, pred, args) for t, pred in zip(ts, preds)]
    if args.format == "json":
        # a batch is one array of the per-t documents, each carrying its "t"
        docs = [partition.report_to_dict(report, rows) for report, rows in results]
        text = json.dumps(docs if args.batch else docs[0], indent=2) + "\n"
    else:
        text = "".join(
            (f"# t={report.t}\n" if args.batch else "") + partition.rows_to_csv(rows)
            for report, rows in results
        )
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        fh.write(text)
    return 0


def _required(text: Optional[str], name: str) -> Fraction:
    # an optional positional left out arrives as None
    if text is None:
        raise ValueError(f"{name} is required")
    return parse_rational(text)


def _report_exit(reports, limit: int, out) -> int:
    """Print each report's summary as it comes; the open --out file, if
    any, gets every violation.

    A report that passed with no prime checked up to limit (its parameters
    exclude them all) passed vacuously, unless it is an identity suite,
    which visits no prime: its line becomes an error on stderr, and the
    run exits 1, or 2 where a suite failed."""
    lines, status = ["p,expected,actual"], 0
    for rep in reports:
        lines += [f"{p},{e},{a}" for p, e, a in rep.violations]
        if not rep.passed:
            status = 2
        elif rep.primes_checked == 0 and "identities" not in rep.metrics:
            print(f"error: {rep.name} checked no prime up to {limit}", file=sys.stderr)
            status = max(status, 1)
            continue
        print(rep.summary())
    if out:
        if os.path.isfile(out.name):  # a device or a pipe has nothing to empty
            out.truncate(0)
        out.write("\n".join(lines) + "\n")
    return status


def _t(args) -> Fraction:
    return _required(args.t, "t")


def _sequences(args):
    # --r is the subsequence family's alone, so another family refuses it
    if "--r" in args.given and args.family != "subsequence":
        raise ValueError("verify sequences reads --r only for --family subsequence")
    return [experiments.sequence_divisor_check(_t(args), args.family, args.limit, subseq_r=args.r)]


def _spec(args):
    return experiments.LucasSpec(args.T, args.Q)


# suite name -> (its call, giving a list of reports, the largest limit it
# takes, and the positional t and the options it reads besides --limit
# and --out);
# experiments.<fn> is looked up at call time, so a patched attribute (a
# test double, the benchmark tracer) is the one called.  The
# suites that compute chi or v_r(chi) at every prime are capped where a run
# ends within about a minute (2 vCPUs, Python 3.11.7, two runs each at
# 10**7: 8-11 s for circular, 15-21 s for cubic, 20-33 s for ballot, prop11
# and twin, 30-40 s for bridge); `all` runs every suite once, both bridges
# to the limit (20-25 s at 10**6); splitting and sequences refuse past their
# own caps in experiments.  The `dynamics` and `nondivisor` rows take
# LIMIT_CAP: their cost is one pass over the primes (two runs each at 10**7:
# 24.1-24.8 s for `dynamics chebyshev 3 --nmax 64`, 12.6-13.1 s for
# `nondivisor 3 -8/19 -33/19 --r 3`), so a run at the cap ends within
# minutes; quadmap refuses past ENUMERATION_CAP in experiments.
_VERIFY = {
    "prop11": (lambda a: [experiments.verify_prop11(_t(a), a.r, a.limit)], 10**7, ("t", "--r")),
    "twin": (lambda a: [experiments.verify_twin(_t(a), a.limit)], 10**7, ("t",)),
    "cubic": (lambda a: [experiments.verify_cubic_associates(_t(a), a.limit)], 10**7, ("t",)),
    "circular": (lambda a: [experiments.verify_circular(_t(a), a.limit)], 10**7, ("t",)),
    "bridge": (lambda a: [experiments.verify_bridge(_spec(a), a.limit)], 10**7, ("--T", "--Q")),
    "splitting": (
        lambda a: [
            experiments.verify_splitting_theorems(_t(a), a.r, a.limit, n_max=a.nmax, j_max=a.jmax)
        ],
        LIMIT_CAP,
        ("t", "--r", "--nmax", "--jmax"),
    ),
    "ballot": (
        lambda a: [experiments.ballot_check(_spec(a), a.r, a.limit, k_max=a.kmax)],
        10**7,
        ("--T", "--Q", "--r", "--kmax"),
    ),
    "sequences": (_sequences, LIMIT_CAP, ("t", "--family", "--r")),
    "all": (lambda a: experiments.all_suites(a.limit), 10**6, ()),
}
_DYNAMICS = {
    "chebyshev": (
        lambda a: [
            experiments.chebyshev_orbit_divisors(_required(a.x0, "x0"), a.k, a.nmax, a.limit)
        ],
        LIMIT_CAP,
        ("--k", "--nmax"),
    ),
    "quadmap": (
        lambda a: [experiments.quadmap_divisor_check(_required(a.x0, "t"), a.limit)],
        LIMIT_CAP,
        (),
    ),
}
_NONDIVISOR = {
    "nondivisor": (
        lambda a: [
            experiments.nondivisor_density(
                parse_rational(a.t), parse_rational(a.y0), parse_rational(a.y1), a.r, a.limit
            )
        ],
        LIMIT_CAP,
        ("--r",),
    ),
}


def _cmd_verify(args) -> int:
    run, cap, reads = args.suites[args.suite]
    for name in args.given:  # a t or flag the call would drop is refused, not ignored
        if name not in reads:
            what = f"does not read {name}" if name.startswith("-") else f"takes no {name}"
            raise ValueError(f"{args.command} {args.suite} {what}")
    # below 3 no odd prime is checked, and the suite would pass vacuously
    if not 3 <= args.limit <= LIMIT_CAP:
        raise ValueError(f"limit must be in [3, {LIMIT_CAP}], got {args.limit}")
    if args.limit > cap:
        raise ValueError(f"limit capped at {cap} for verify {args.suite}")
    # --out is opened before the first suite runs, so an unwritable path
    # prints no report; a run refused after that leaves it as it was
    created = bool(args.out) and not os.path.exists(args.out)
    try:
        with open(args.out, "a", encoding="utf-8") if args.out else nullcontext() as out:
            return _report_exit(run(args), args.limit, out)
    except BaseException:
        if created and os.path.exists(args.out):  # not where the open failed
            os.remove(args.out)
        raise


# let argparse accept negative rationals like -8/19 as positionals
_NEG_RATIONAL = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _allow_negative_rationals(parser: argparse.ArgumentParser) -> None:
    if hasattr(parser, "_negative_number_matcher"):
        parser._negative_number_matcher = _NEG_RATIONAL


class _Parser(argparse.ArgumentParser):
    """A parse error raises ValueError, which `main` prints as it prints
    every refusal, one `error:` line, rather than a usage block."""

    def error(self, message):
        raise ValueError(message)


class _Given(argparse.Action):
    """Store an option's or a positional's value and note its name (the
    option string, or the positional's dest) in the namespace's `given`,
    so that a row can refuse one it does not read.  A positional left out
    arrives as None, and is not noted."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        if values is not None:
            namespace.given = (*namespace.given, (self.option_strings or [self.dest])[0])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse returns a new namespace."""
    ap = _Parser(prog="apparition")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classification record of t as JSON")
    p.add_argument("t")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("index", help="the index of appearance chi(t, p)")
    p.add_argument("t")
    p.add_argument("p")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("partition", help="valuation partition sweep over primes <= N")
    p.add_argument("t", nargs="?")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument(
        "--jmax", type=int, default=partition.DEFAULT_J_MAX,
        help=f"last valuation bucket, 0 to {partition.J_MAX_CAP}; larger v_r(chi) overflow",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--threads", type=int, default=1,
        help="worker processes, at most the CPU count; the output is the same for any value",
    )
    p.add_argument("--out")
    p.add_argument("--batch", help="file with one rational per line (# comments)")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("verify", help="exact per-prime verification suites")
    p.add_argument("suite", choices=tuple(_VERIFY), help="one suite, or all of them")
    p.add_argument("t", nargs="?", action=_Given)
    p.add_argument("--r", type=int, default=2, action=_Given)
    p.add_argument("--limit", type=int, default=10**4)
    p.add_argument("--T", type=int, default=1, action=_Given)
    p.add_argument("--Q", type=int, default=-1, action=_Given)
    p.add_argument("--family", choices=experiments.SEQUENCE_FAMILIES, default="W", action=_Given)
    p.add_argument("--nmax", type=int, default=2, action=_Given)
    p.add_argument("--jmax", type=int, default=3, action=_Given)
    p.add_argument("--kmax", type=int, default=30, action=_Given)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify, suites=_VERIFY, given=())

    p = sub.add_parser("dynamics", help="orbit divisor experiments")
    p.add_argument("suite", choices=tuple(_DYNAMICS))
    p.add_argument("x0", nargs="?", help="initial value (chebyshev) or parameter t (quadmap)")
    p.add_argument("--k", type=int, default=2, action=_Given)
    p.add_argument("--nmax", type=int, default=20, action=_Given)
    p.add_argument("--limit", type=int, default=10**4)
    p.set_defaults(func=_cmd_verify, suites=_DYNAMICS, out=None, given=())

    p = sub.add_parser("nondivisor", help="non-divisor witness density for Y = [y0, y1]")
    p.add_argument("t")
    p.add_argument("y0")
    p.add_argument("y1")
    p.add_argument("--r", type=int, default=7, action=_Given)
    p.add_argument("--limit", type=int, default=10**6)
    p.set_defaults(func=_cmd_verify, suites=_NONDIVISOR, suite="nondivisor", out=None, given=())

    _allow_negative_rationals(ap)
    for action in ap._subparsers._group_actions:
        for sp in action.choices.values():
            _allow_negative_rationals(sp)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if sys.stdout is None and not (args.command == "partition" and args.out):
            # the process started without fd 1, and print would drop every line
            raise OSError("stdout is closed")
        status = args.func(args)
        if sys.stdout is not None:  # None for `partition --out` without fd 1
            sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout (`... | head`): stop quietly, and keep the
        # interpreter's own flush at exit off the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ApparitionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
