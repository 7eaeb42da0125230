#!/usr/bin/env python3
"""Benchmark of the apparition package: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one line each
    python3 perfbench/run.py --self-check        # tiny sizes, checks the metric set

Run it from the repository root; it imports the package from ./src.  Every
pass of a workload runs in a fresh interpreter (child.py), because the
package keeps grow-only caches in module globals.  With --trace 0 the
workload repeats while the next pass still fits in --seconds (at least one
pass) and the end-to-end metrics are medians over the passes, with every
time scaled to a reference CPU speed (speed.py).  With
--trace 1 it makes one untraced and one traced pass (and, on sweep-window,
one pass with threads=2) and reports the per-layer metrics; the trace is
written to .perfbench-out/.  Every operation's output is compared with
references.json; the last line of output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads as wl
from tracer import SUITES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
BUDGET_S = 170  # a run, set-up included, must end within 180 s
PROBES = 15  # extra set-up-only children, so setup_s is a median of several

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "us_per_prime": "us",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "primes.sieve_s": "s",
    "primes.sieve_calls": "count",
    "primes.base_sieve_s": "s",
    "primes.spf_build_s": "s",
    "primes.factor_s": "s",
    "primes.factor_calls": "count",
    "ring.chi_self_s": "s",
    "ring.chi_calls": "count",
    "ring.reduce_param_s": "s",
    "ring.reduce_param_calls": "count",
    "ring.index_self_s": "s",
    "ring.index_calls": "count",
    "partition.sweep_self_s": "s",
    "partition.compare_s": "s",
    "partition.render_s": "s",
    "partition.fanout_speedup": "x",
    "partition.fanout_identical": "bool",
    "classify.classify_s": "s",
    "classify.predict_s": "s",
    "chebyshev.mod_s": "s",
    "chebyshev.mod_calls": "count",
    **{f"experiments.{fam}_s": "s" for fam in SUITES},
    "experiments.self_s": "s",
    "experiments.primes_checked": "count",
    "experiments.violations": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
CHEB_MOD = [f"chebyshev.cheb_{k}_mod" for k in "ucwv"]


class BenchError(RuntimeError):
    pass


def run_child(workload, size, seed, deadline, *, trace=False, threads=1, probe=False):
    """Run one pass (or a set-up probe) in a fresh interpreter; return its JSON."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    before = speed.kernel_times(workload, speed.MIN_SAMPLES)
    t0 = perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), workload, "--size", size,
           "--seed", str(seed), "--t0", repr(t0), "--threads", str(threads)]
    cmd += ["--trace"] * trace + ["--probe"] * probe
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except BaseException as exc:  # timeout, SIGTERM or interrupt: leave nothing running
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers it forked
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} pass exceeded the time budget") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{err[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    # set-up scaled by kernel times taken just before it (here) and just after (in the child)
    res["raw_setup_s"] = res["setup_s"]
    res["setup_s"] *= speed.ref_s(workload) / statistics.median(before + res["setup_kernel_s"])
    return res


def expected_digests(workload, size, seed, refs) -> dict:
    if workload != "index-queries":
        return refs["digests"][size][workload]
    queries = wl.pick_queries(refs["queries"], size, seed)[1:]
    return {f"index({t},{p})": hashlib.sha256(line.encode()).hexdigest()
            for t, p, line in queries}


def count_failures(passes, expected) -> tuple:
    """(attempted, failed): an operation fails if it raised, its output
    differs from the reference, or it reported violations."""
    ops = [op for res in passes for op in res["ops"]]
    failed = sum(1 for name, _, digest, _, _, violations, error in ops
                 if error or violations or digest != expected.get(name))
    return len(ops), failed


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(passes, probes) -> dict:
    lat_ms = [op[1] * 1000 for res in passes for op in res["ops"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in passes + probes),
        "wall_s": statistics.median(res["wall_s"] for res in passes),
        "us_per_prime": statistics.median(
            res["wall_s"] * 1e6 / max(sum(op[3] for op in res["ops"]), 1) for res in passes),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": nearest_rank(lat_ms, 0.95),
        "peak_rss_mb": statistics.median(res["rss_mb"] for res in passes),
    }


def per_layer(traced, base, fanout) -> dict:
    stats = traced["stats"]

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def total(name):
        return stats.get(name, [0, 0, 0])[1] / 1e9

    def own(name):
        return stats.get(name, [0, 0, 0])[2] / 1e9

    factor = ("primes.distinct_prime_factors", "primes.factorize")
    suites = [f"experiments.{fn}" for fn in SUITES.values()]
    m = {
        "primes.sieve_s": own("primes.primes_in_range"),
        "primes.sieve_calls": calls("primes.primes_in_range"),
        "primes.base_sieve_s": total("primes.base_primes"),
        "primes.spf_build_s": total("primes.spf_table"),
        "primes.factor_s": sum(own(n) for n in factor),
        "primes.factor_calls": sum(calls(n) for n in factor),
        "ring.chi_self_s": own("ring.chi_from_residue"),
        "ring.chi_calls": calls("ring.chi_from_residue"),
        "ring.reduce_param_s": total("ring.reduce_param"),
        "ring.reduce_param_calls": calls("ring.reduce_param"),
        "ring.index_self_s": own("ring.index"),
        "ring.index_calls": calls("ring.index"),
        "partition.sweep_self_s": own("partition.compute_partition"),
        "partition.compare_s": total("partition.compare"),
        "partition.render_s": total("partition.rows_to_csv"),
        # 0 on workloads where the fan-out pass is not run
        "partition.fanout_speedup": (base["raw_wall_s"] / fanout["raw_wall_s"]
                                     if fanout else 0.0),
        "partition.fanout_identical": int(bool(fanout) and
                                          [op[2] for op in fanout["ops"]] ==
                                          [op[2] for op in base["ops"]]),
        "classify.classify_s": total("classify.classify"),
        "classify.predict_s": total("classify.predicted_densities"),
        "chebyshev.mod_s": sum(own(n) for n in CHEB_MOD),
        "chebyshev.mod_calls": sum(calls(n) for n in CHEB_MOD),
    }
    for fam, fn in SUITES.items():
        m[f"experiments.{fam}_s"] = total(f"experiments.{fn}")
    m["experiments.self_s"] = sum(own(n) for n in suites)
    m["experiments.primes_checked"] = sum(op[4] for op in traced["ops"])
    m["experiments.violations"] = sum(op[5] for op in traced["ops"])
    m["cli.self_s"] = own("cli.main")
    m["trace.overhead_s"] = traced["raw_wall_s"] - base["raw_wall_s"]
    return m


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "apparition": version,
        "commit": git_commit(),
    }


def run_workload(workload, seed, seconds, trace, size="full") -> tuple:
    """Measure one workload; return (result, trace document or None)."""
    deadline = perf_counter() + BUDGET_S
    refs = json.loads(wl.REFERENCES.read_text())
    expected = expected_digests(workload, size, seed, refs)

    def child(**kw):
        return run_child(workload, size, seed, deadline, **kw)

    if trace:
        base = child()
        traced = child(trace=True)
        fanout = child(threads=2) if workload == "sweep-window" else None
        passes = [res for res in (base, traced, fanout) if res]
        metrics = per_layer(traced, base, fanout)
        units = PER_LAYER
    else:
        probes = [child(probe=True) for _ in range(PROBES)]
        passes, start = [], perf_counter()
        while True:
            began = perf_counter()
            passes.append(child())
            now = perf_counter()
            if now - start + (now - began) > seconds:
                break
        metrics = end_to_end(passes, probes)
        units = END_TO_END
    attempted, failed = count_failures(passes, expected)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = environment(passes[0]["version"])
    doc = None
    if trace:
        doc = {"workload": workload, "size": size, "seed": seed, "env": env,
               "metrics": metrics, "stats": traced["stats"], "spans": traced["spans"]}
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-{size}-seed{seed}.json"
        path.write_text(json.dumps(doc) + "\n")
    raw = {k: statistics.median(res[k] for res in passes) for k in ("raw_setup_s", "raw_wall_s")}
    print("env " + json.dumps({"workload": workload, "passes": len(passes), **raw, **env}))
    return result, doc


def self_check() -> None:
    """Every workload, untraced and traced, at tiny sizes; raises on a mismatch."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in wl.WORKLOADS:
        plain, _ = run_workload(workload, 1, 0, False, size="tiny")
        traced, doc = run_workload(workload, 1, 0, True, size="tiny")
        _, doc2 = run_workload(workload, 1, 0, True, size="tiny")
        for res, want in ((plain, want_e2e), (traced, want_layer)):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                raise BenchError(f"{workload}: metrics {sorted(got)} != BENCHMARK.json")
            if res["failed"] or not res["correct"]:
                raise BenchError(f"{workload}: {res['failed']} of {res['attempted']} failed")
        if any(m["value"] <= 0 for m in plain["metrics"].values()):
            raise BenchError(f"{workload}: an end-to-end metric is not positive")
        if any(not 0 <= own <= total for _, total, own in doc["stats"].values()):
            raise BenchError(f"{workload}: a self time exceeds its total")
        spans = doc["spans"]
        if any(s[1] is not None and not spans[s[1]][3] <= s[3] <= s[4] <= spans[s[1]][4]
               for s in spans):
            raise BenchError(f"{workload}: a span ends outside its parent")
        calls = [{k: v[0] for k, v in d["stats"].items()} for d in (doc, doc2)]
        if calls[0] != calls[1]:
            raise BenchError(f"{workload}: call counts differ between two traced runs")
        print(f"self-check {workload}: ok " + json.dumps(plain["metrics"]))
    print("self-check passed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so run_child stops the pass it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "apparition" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'apparition'}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            self_check()
            return 0
        for workload in wl.WORKLOADS if args.workload == "all" else (args.workload,):
            result, _ = run_workload(workload, args.seed, args.seconds, args.trace)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
