"""One pass of one workload in a fresh interpreter; prints one JSON line.

Every pass starts a new interpreter so that the package's grow-only
module caches (`primes._spf`, `primes._base_primes`) start empty, as they
do for every CLI run.  `--t0` is the parent's clock reading just before it
started this process (CLOCK_MONOTONIC is shared between processes), so
`setup_s` covers interpreter start, imports, inputs and the warm-up query.

An untraced single-process pass runs speed.Sampler and reports every
operation's time scaled to the reference speed (see speed.py), with the raw
times beside them; a traced pass and a threads=2 pass report raw times.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--probe", action="store_true", help="set up, then stop")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import apparition
    import workloads as wl
    from speed import MIN_SAMPLES, Sampler, kernel_times
    from tracer import Tracer

    ops = wl.operations(wl.load_modules(), args.workload, args.size, args.seed, args.threads)
    if args.workload == "index-queries":
        ops.pop(0)[1]()  # warm-up query, untimed

    tracer = Tracer()
    span = tracer.span if args.trace else (lambda name: contextlib.nullcontext())
    if args.trace:
        tracer.install()
    first = perf_counter()
    out = {"version": apparition.__version__, "setup_s": first - args.t0,
           "setup_kernel_s": kernel_times(args.workload, MIN_SAMPLES)}
    if args.probe:
        print(json.dumps(out))
        return

    sampler = Sampler(args.workload)
    sampling = not args.trace and args.threads == 1  # no handler beside traced or pool work
    if sampling:
        sampler.start()
    records, times = [], []
    for name, fn in ops:
        error = res = None
        with span(name):
            busy = sampler.busy
            start = perf_counter()
            try:
                res = fn()
            except Exception as exc:  # a failing operation is counted, not fatal
                error = repr(exc)
            end = perf_counter()
        times.append((start, end, end - start - (sampler.busy - busy)))
        if res is None:
            records.append([name, None, None, 0, 0, 0, error])
        else:
            records.append([name, None, res.digest, res.primes, res.primes_checked,
                            res.violations, None])
    out["raw_wall_s"] = perf_counter() - first - sampler.busy
    sampler.stop()
    tracer.uninstall()
    for rec, (start, end, elapsed) in zip(records, times):
        rec[1] = elapsed * sampler.scale(start, end) if sampling else elapsed
    out["wall_s"] = sum(rec[1] for rec in records)
    out["ops"] = records
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        out["stats"] = tracer.stats
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
