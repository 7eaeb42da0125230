"""Outside-in tracer: wraps the package's public functions where they are called.

Nothing in the package is edited.  A name imported by value (for example
`partition.chi_from_residue`) is patched on the importing module as well,
so every call site sees the same wrapper.  Per-prime functions only update
counters (calls, total ns, self ns); coarse calls (a sweep, a suite, a
query) also record a span with the id of the enclosing coarse span.  All
of it stays in memory until the run ends.

Self time is a call's duration minus the time of the traced calls it made.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter_ns

# (module, attribute, counter name); the module is reached through
# sys.modules because `apparition.classify` names the function, not the module.
SITES = [
    ("primes", "primes_in_range", "primes.primes_in_range"),
    ("primes", "base_primes", "primes.base_primes"),
    ("primes", "spf_table", "primes.spf_table"),
    ("primes", "factorize", "primes.factorize"),
    ("primes", "distinct_prime_factors", "primes.distinct_prime_factors"),
    ("ring", "distinct_prime_factors", "primes.distinct_prime_factors"),
    ("ring", "reduce_param", "ring.reduce_param"),
    ("ring", "chi_from_residue", "ring.chi_from_residue"),
    ("partition", "chi_from_residue", "ring.chi_from_residue"),
    ("ring", "index", "ring.index"),
    ("partition", "compute_partition", "partition.compute_partition"),
    ("partition", "compare", "partition.compare"),
    ("partition", "rows_to_csv", "partition.rows_to_csv"),
    ("classify", "classify", "classify.classify"),
    ("classify", "predicted_densities", "classify.predicted_densities"),
    ("experiments", "classify", "classify.classify"),
    ("chebyshev", "cheb_u_mod", "chebyshev.cheb_u_mod"),
    ("chebyshev", "cheb_c_mod", "chebyshev.cheb_c_mod"),
    ("chebyshev", "cheb_w_mod", "chebyshev.cheb_w_mod"),
    ("chebyshev", "cheb_v_mod", "chebyshev.cheb_v_mod"),
    ("experiments", "cheb_c_mod", "chebyshev.cheb_c_mod"),
    ("cli", "main", "cli.main"),
]

# suite family -> experiments functions
SUITES = {
    "prop11": "verify_prop11",
    "twin": "verify_twin",
    "cubic": "verify_cubic_associates",
    "circular": "verify_circular",
    "bridge": "verify_bridge",
    "ballot": "ballot_check",
    "sequence": "sequence_divisor_check",
    "splitting": "verify_splitting_theorems",
    "quadmap": "quadmap_divisor_check",
    "orbit": "chebyshev_orbit_divisors",
}
SITES += [("experiments", fn, f"experiments.{fn}") for fn in SUITES.values()]

COARSE = {"partition.compute_partition", "cli.main"} | {
    f"experiments.{fn}" for fn in SUITES.values()
}


class Tracer:
    def __init__(self):
        self.stats: dict = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list = []  # [id, parent id, name, start ns, end ns]
        self._stack = [[0, None]]  # frames: [traced child ns, enclosing span id]
        self._patched: list = []

    def _enter(self, coarse_name=None):
        parent = self._stack[-1][1]
        span = None
        if coarse_name is not None:
            span = [len(self.spans), parent, coarse_name, 0, 0]
            self.spans.append(span)
        frame = [0, parent if span is None else span[0]]
        self._stack.append(frame)
        return frame, span

    def _exit(self, name, frame, span, start, end):
        self._stack.pop()
        dt = end - start
        self._stack[-1][0] += dt
        stat = self.stats.setdefault(name, [0, 0, 0])
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - frame[0]
        if span is not None:
            span[3], span[4] = start, end

    def wrap(self, name: str, fn):
        coarse = name if name in COARSE else None

        def traced(*args, **kwargs):
            frame, span = self._enter(coarse)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, span, start, perf_counter_ns())

        return traced

    @contextlib.contextmanager
    def span(self, label: str):
        """A coarse span opened by the benchmark itself: one operation.

        Its span carries the operation's label; its counter is `bench.op`.
        """
        frame, span = self._enter(label)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._exit("bench.op", frame, span, start, perf_counter_ns())

    def install(self) -> None:
        wrappers: dict = {}
        for mod, attr, name in SITES:
            owner = sys.modules[f"apparition.{mod}"]
            orig = getattr(owner, attr)
            if id(orig) not in wrappers:
                wrappers[id(orig)] = self.wrap(name, orig)
            setattr(owner, attr, wrappers[id(orig)])
            self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
