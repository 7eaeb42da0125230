"""Exact per-prime verification suites and dynamics experiments.

Every suite here checks a relation that holds for *all* admissible primes
(isomorphism identities, divisor-set characterizations, polynomial
splitting equivalences), so a passing run has zero violations.  Every
suite returns a `CheckReport`; the only statistical outputs are the
`metrics` of the orbit, quadratic-map and non-divisor suites.  The
splitting suite takes its theorem side from one per-prime function,
`_splitting_verdicts`, which counts roots over F_p as
deg gcd(f, x**p - x) rather than by evaluating at every residue, so its
cost per prime grows with log p, not p.
The suites that need only v_r(chi) (cubic, circular, quadmap,
splitting, and the non-divisor suite's membership test) build one
`ring.ChiValuation` reader per parameter, which factors nothing, and
call it at each prime, or, where the non-divisor suite already holds the
character of t**2 - 4, call its `at` with that character; the others
need chi itself and take it from `ring.chi_from_residue`, or from
`ring.chi_with_primes` when they need its primes too.
`all_suites` is the one run list of `apparition verify all`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from typing import Optional

from . import primes, ring
from .chebyshev import (
    cheb_c_coeffs,
    cheb_c_exact,
    cheb_c_mod,
    cheb_u_exact,
    cheb_v_exact,
    cheb_w_exact,
    lucas_lift,
    lucas_pair_mod,
    u_table_exact,
)
from .classify import EXCLUDED, classify, parameter
from .errors import (
    BadPrime,
    NotCircular,
    NotCubic,
    NotUnitDeterminant,
    PrimeTooLarge,
    TorsionTimesPower,
)
from .exactnum import is_square

ENUMERATION_CAP = 10_000  # full residue scans are O(p)
# exact U_n, C_n and L_n of t have about n * h bits, h the bit length of
# max(|num(t)|, den(t)), and the suites that build them keep n such values
PROP11_BITS_CAP = 8_000  # r * h
BALLOT_BITS_CAP = 48_000  # r * k_max * h
SPLITTING_LIMIT_CAP = 10**5  # the splitting suite counts roots by gcd
DEGREE_CAP = 169  # C_{r^2} for every r <= 13; a dense gcd is O(deg**2 * log p)
VIOLATION_CAP = 100
SEQUENCE_FAMILIES = ("W", "V", "C", "S", "subsequence")


@dataclass
class CheckReport:
    """Violation ledger for a per-prime suite.

    `divisors` lists the primes a dynamics suite found dividing its
    sequence; `metrics` holds its named statistics (densities, counts,
    checkpoints), which also read as attributes: `rep.density` is
    `rep.metrics["density"]`.
    """

    name: str
    primes_checked: int = 0
    violations: list = field(default_factory=list)  # (p, expected, actual)
    violation_count: int = 0
    divisors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        # only reached for names that are not fields; reading __dict__
        # directly keeps copy and pickle (which probe a bare instance) safe
        metrics = self.__dict__.get("metrics", {})
        if name in metrics:
            return metrics[name]
        raise AttributeError(f"{type(self).__name__} has no attribute or metric {name!r}")

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def record(self, p: int, expected, actual) -> None:
        self.violation_count += 1
        if len(self.violations) < VIOLATION_CAP:
            self.violations.append((p, str(expected), str(actual)))

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} {self.name}: {self.primes_checked} primes checked, "
            f"{self.violation_count} violations"
        )
        if self.metrics:
            line += "; " + ", ".join(
                f"{k} {v:.6f}" if isinstance(v, float) else f"{k} {v}"
                for k, v in self.metrics.items()
            )
        return line


def _admissible(rep: CheckReport, limit: int, *dens: int):
    """Odd primes p <= limit dividing none of dens; no factoring, so any size.

    Each p is counted in `rep.primes_checked` once the caller's loop body
    for it has run, so the body reads the count of the earlier primes.
    Every dens is nonzero once the caller's t has passed
    `classify.parameter`: a zero needs U_r(t) = 0 (t in {0, +-1}),
    t**2 - 4 = 0 or T = 0 (t = +-2), or a cubic b = 0 (t = +-2).
    """
    skip = prod(dens)
    for p in primes.iter_primes(limit, start=3):
        if skip % p:
            yield p
            rep.primes_checked += 1


def _chi(t, p: int) -> int:
    """chi(t, p) at an odd prime p from the sieve, not dividing den(t); the
    suites' primes need none of the re-validation in `ring.index`."""
    return ring.chi_from_residue(ring.residue(t, p), p)


def _require_prime(r: int) -> None:
    if not primes.is_prime(r):
        raise ValueError(f"r must be prime, got {r}")


def _require_exact_bits(n_name: str, n: int, t: Fraction, cap: int) -> None:
    """Refuse exact values of t up to index n once n * h, h the bit length
    of max(|num(t)|, den(t)), exceeds cap."""
    h = max(abs(t.numerator), t.denominator).bit_length()
    if n * h > cap:
        raise ValueError(f"{n_name} * height bits of t capped at {cap}, got {n} * {h}")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# index shift, twin, cubic and circular symmetries
# ---------------------------------------------------------------------------


def verify_prop11(t, r: int, limit: int) -> CheckReport:
    """chi(C_r(t), p) equals chi(t, p), or chi(t, p)/r when r divides it.

    Valid away from primes dividing num(U_r(t)), where the conjugation
    between the two rings degenerates.  U_r(t) and C_r(t) are built
    exactly, from a table of r + 2 values of up to about r * h bits, h
    the bit length of max(|num(t)|, den(t)), so r * h is capped at
    PROP11_BITS_CAP.  At the cap a run to 10**4 took at most 0.5 s and
    20 MB (t = 1/3, 2/7, 5/7, 11/13, 3 and 123456789/1000003; 2 vCPUs,
    Python 3.11.7); the time grows about as the cube of r.
    """
    _require_prime(r)
    t = parameter(t)
    _require_exact_bits("r", r, t, PROP11_BITS_CAP)
    t_r = cheb_c_exact(r, t)
    u_r = cheb_u_exact(r, t)
    rep = CheckReport(name=f"prop11(t={t}, r={r})")
    for p in _admissible(rep, limit, t.denominator, abs(u_r.numerator)):
        chi = _chi(t, p)
        got = _chi(t_r, p)
        want = chi // r if chi % r == 0 else chi
        if got != want:
            rep.record(p, f"chi({t_r})={want}", got)
    return rep


def verify_twin(t, limit: int) -> CheckReport:
    """chi(-t) is 2*chi, chi/2, or chi according to v_2(chi) = 0, 1, >=2."""
    t = parameter(t)
    rep = CheckReport(name=f"twin(t={t})")
    for p in _admissible(rep, limit, t.denominator):
        chi = _chi(t, p)
        got = _chi(-t, p)
        v = primes.valuation(chi, 2)
        want = 2 * chi if v == 0 else (chi // 2 if v == 1 else chi)
        if got != want:
            rep.record(p, f"chi(-t)={want}", got)
    return rep


def verify_cubic_associates(t, limit: int) -> CheckReport:
    """Disjointness and the rotation/stability laws for cubic associates.

    With v_i = v_3(chi(a_i, p)) for a_0 = t and its two associates:
    at most one v_i is 0; v_i = 1 exactly when some other v_j is 0;
    and whenever any v_i >= 2 all three valuations agree.
    """
    t = Fraction(t)
    cls = classify(t)
    if not cls.cubic:
        raise NotCubic(f"t = {t} is not cubic")
    a1, a2 = cls.cubic_associates
    readers = [ring.ChiValuation(a, 3) for a in (t, a1, a2)]
    rep = CheckReport(name=f"cubic(t={t})")
    for p in _admissible(rep, limit, t.denominator, 3):
        vs = tuple(read(p) for read in readers)
        if sum(1 for v in vs if v == 0) > 1:
            rep.record(p, "at most one v=0", vs)
            continue
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            if (vs[i] == 1) != (vs[j] == 0 or vs[k] == 0):
                rep.record(p, f"rotation law at i={i}", vs)
                break
        else:
            if max(vs) >= 2 and len(set(vs)) != 1:
                rep.record(p, "equal valuations when >=2", vs)
    return rep


def verify_circular(t, limit: int) -> CheckReport:
    """Valuation exchange between a circular t and its associate w.

    j_t <= 1 iff j_w = 2, symmetrically, and the valuations agree
    (and exceed 2) together.  Also verifies the exact Pythagorean
    propagation C_n(t)**2 + C_n(w)**2 = 4 for odd n <= 29.
    """
    t = Fraction(t)
    cls = classify(t)
    if not cls.circular:
        raise NotCircular(f"t = {t} is not circular")
    w = cls.circular_associate
    rep = CheckReport(name=f"circular(t={t})")
    for n in range(1, 30, 2):
        lhs = cheb_c_exact(n, t) ** 2 + cheb_c_exact(n, w) ** 2
        if lhs != 4:
            rep.record(0, f"C_{n}(t)^2 + C_{n}(w)^2 = 4 (n={n})", lhs)
    read_t, read_w = ring.ChiValuation(t, 2), ring.ChiValuation(w, 2)
    for p in _admissible(rep, limit, t.denominator, w.denominator):
        jt, jw = read_t(p), read_w(p)
        ok = (
            ((jt <= 1) == (jw == 2))
            and ((jw <= 1) == (jt == 2))
            and ((jt >= 3) == (jw >= 3))
            and (jt < 3 or jt == jw)
        )
        if not ok:
            rep.record(p, "valuation exchange", (jt, jw))
    return rep


# ---------------------------------------------------------------------------
# exact Chebyshev identities
# ---------------------------------------------------------------------------


def identity_suite(t) -> CheckReport:
    """Verify the product/square identities of t exactly for indices <= 30.

    Covered: the Lucas-square identity C_n(t) - 2 = (Delta/Q**n) L_n**2
    for the canonical lift (T, Q); the Pell-type identity
    C_s**2 - (t**2-4) U_s**2 = 4; the factorizations U_{2m+1} = W*V and
    U_{2m} = C_m * U_m; and the composition rule U_{mn} = U_m(C_n) * U_n,
    which needs U_k(t) up to k = 30**2 + 1.  No prime is visited: a
    failing identity is recorded at p = 0, and the number checked is the
    `identities` metric, 4 * 30 + 30**2 = 1020.
    """
    n_max = 30
    t = Fraction(t)
    rep = CheckReport(name=f"identity(t={t}, n_max={n_max})", metrics={"identities": 0})

    def check(name: str, where: tuple, lhs, rhs) -> None:
        rep.metrics["identities"] += 1
        if lhs != rhs:
            rep.record(0, f"{name}{where}: {rhs}", lhs)

    u = u_table_exact(t, n_max * n_max + 1)

    def c(k):
        return u[k + 1] - u[k - 1] if k >= 1 else Fraction(2)

    T, Q = lucas_lift(t)
    delta_lift = T * T - 4 * Q
    lucas = [0, 1]
    for _ in range(n_max - 1):
        lucas.append(T * lucas[-1] - Q * lucas[-2])
    for n in range(1, n_max + 1):
        check("lucas-square", (n,), c(n) - 2, Fraction(delta_lift, Q**n) * lucas[n] ** 2)
        check("pell", (n,), c(n) ** 2 - (t * t - 4) * u[n] ** 2, Fraction(4))
        check("odd-split", (n,), u[2 * n + 1], (u[n + 1] + u[n]) * (u[n + 1] - u[n]))
        check("even-split", (n,), u[2 * n], c(n) * u[n])
    for m in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            check("composition", (m, n), u[m * n], cheb_u_exact(m, c(n)) * u[n])
    return rep


# ---------------------------------------------------------------------------
# Lucas sequences: the classical index and the Ballot quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LucasSpec:
    """L_{n+1} = T*L_n - Q*L_{n-1}, L_0 = 0, L_1 = 1, for integer T, Q != 0."""

    T: int
    Q: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("Q must be nonzero")

    @property
    def t(self) -> Fraction:
        return Fraction(self.T * self.T - 2 * self.Q, self.Q)

    @property
    def delta(self) -> int:
        return self.T * self.T - 4 * self.Q


def lucas_index(spec: LucasSpec, p: int) -> int:
    """Smallest k >= 1 with L_k = 0 mod p (linear scan oracle)."""
    if p < 3 or p % 2 == 0:
        raise BadPrime(f"p must be an odd prime, got {p}")
    if spec.Q % p == 0:
        raise BadPrime(f"{p} divides Q")
    T, Q = spec.T % p, spec.Q % p
    a, b = 0, 1
    for k in range(1, p + 2):
        a, b = b, (T * b - Q * a) % p
        if a == 0:
            return k
    raise AssertionError(f"no zero below p+2 for {spec}, p={p}")


def verify_bridge(spec: LucasSpec, limit: int) -> CheckReport:
    """Classical index of appearance (the rank) == chi(t, p) for
    t = (T**2-2Q)/Q.

    An excluded t (T**2 = 4Q gives t = 2; T = 0 gives t = -2) has no
    index to compare, so `classify.parameter` refuses it.  The rank is
    certified by Lucas's law of apparition rather than found by a scan:
    for p not dividing Q*delta, L_k = 0 mod p exactly when the rank
    divides k, so chi is the rank when L_chi = 0 and L_{chi/q} != 0 for
    every prime q | chi.  L comes from the (T, Q) ladder `lucas_pair_mod`,
    chi from the trace ladder of `ring`, so the two sides stay apart, and
    each prime costs a few O(log p) ladders, not a scan.  The primes of
    chi are those of p -+ 1 that `ring.chi_with_primes` keeps, so nothing
    is factored twice.  A violation names the condition that failed.  Odd
    p | T are skipped: there t = -2 mod p, so D_t is not diagonalisable
    and chi = 2p, while xi = alpha/beta = -1 gives rank 2.  `lucas_index`
    is the scan oracle the tests compare with.
    """
    t = parameter(spec.t)
    T, Q = spec.T, spec.Q
    rep = CheckReport(name=f"bridge(T={T}, Q={Q})")
    for p in _admissible(rep, limit, 2 * abs(T * Q * spec.delta) * t.denominator):
        want, qs = ring.chi_with_primes(ring.residue(t, p), p)
        failed = _rank_failure(T, Q, want, qs, p)
        if failed:
            rep.record(p, f"rank={want}", failed)
    return rep


def _rank_failure(T: int, Q: int, k: int, qs: list, p: int) -> Optional[str]:
    """None when k is the rank of L(T, Q) at p (p dividing neither Q nor
    delta), else the condition of the law of apparition that fails there:
    L_k != 0, or L_{k/q} = 0 for a prime q of qs, the primes of k ascending."""
    if lucas_pair_mod(T, Q, k, p)[0]:
        return f"L_{k}!=0"
    for q in qs:
        if not lucas_pair_mod(T, Q, k // q, p)[0]:
            return f"L_{k // q}=0"
    return None


def ballot_check(spec: LucasSpec, r: int, limit: int, k_max: int = 30) -> CheckReport:
    """The quotient sequence B_k = L_{rk}/L_k: integrality, closed forms,
    and the divisor law (p | some B_k iff r | chi).

    Closed forms checked exactly: for odd r, B_k = Q^a W_r(C_k(t)) for odd k
    and B_{2s} = Q^a U_r(C_s(t)); for r = 2, B_k = T Q^((k-1)/2) V_k(t)
    (odd k) and B_{2s} = Q^s C_s(t).  Certificates: r | chi implies
    p | B_{chi/r}, and p | B_k for k <= k_max implies r | chi.  No L_k
    with k >= 1 is 0 once t has passed `classify.parameter`: L_k = 0 makes
    alpha/beta a root of unity of degree <= 2, so t = alpha/beta +
    beta/alpha is one of 0, +-1, -2.

    L_0 ... L_{r*k_max} are built exactly, so r * k_max * h, h the bit
    length of max(|num(t)|, den(t)), is capped at BALLOT_BITS_CAP.  At the
    cap a run to 10**4 took at most 0.95 s and 45 MB ((T, Q) = (1, -1),
    (2, -1), (3, 2), (7, 5), (100, 3) and (1, 1000003), k_max 30 and 60;
    2 vCPUs, Python 3.11.7); the memory grows as the square of r * k_max.
    """
    _require_prime(r)
    if not 1 <= k_max <= 60:
        raise ValueError(f"k_max must be in [1, 60] (exact values), got {k_max}")
    t = parameter(spec.t)
    _require_exact_bits("r * k_max", r * k_max, t, BALLOT_BITS_CAP)
    T, Q = spec.T, spec.Q
    rep = CheckReport(name=f"ballot(T={T}, Q={Q}, r={r})")

    lucas = [0, 1]
    for _ in range(r * k_max):
        lucas.append(T * lucas[-1] - Q * lucas[-2])

    bs = [None]  # 1-indexed
    for k in range(1, k_max + 1):
        q, rem = divmod(lucas[r * k], lucas[k])
        if rem != 0:
            rep.record(0, f"L_{r*k}/L_{k} integer (k={k})", f"remainder {rem}")
            q = Fraction(lucas[r * k], lucas[k])
        bs.append(q)
        if r == 2:
            if k % 2 == 1:
                want = T * Fraction(Q) ** ((k - 1) // 2) * cheb_v_exact((k - 1) // 2, t)
            else:
                s = k // 2
                want = Fraction(Q) ** s * cheb_c_exact(s, t)
        else:
            if k % 2 == 1:
                want = Fraction(Q) ** ((r - 1) * k // 2) * cheb_w_exact((r - 1) // 2, cheb_c_exact(k, t))
            else:
                s = k // 2
                want = Fraction(Q) ** ((r - 1) * s) * cheb_u_exact(r, cheb_c_exact(s, t))
        if Fraction(q) != want:
            rep.record(0, f"closed form {want} (k={k})", q)

    for p in _admissible(rep, limit, 2 * abs(Q), r):
        chi = _chi(t, p)
        if chi % r == 0:
            k = chi // r
            l_rk = lucas_pair_mod(T, Q, r * k, p)[0]
            l_k = lucas_pair_mod(T, Q, k, p)[0]
            if not (l_rk == 0 and l_k != 0):
                rep.record(p, f"p | B_{k}", f"L_rk={l_rk}, L_k={l_k}")
        for k in range(1, k_max + 1):
            if bs[k] % p == 0 and chi % r != 0:
                rep.record(p, f"r | chi since p | B_{k}", f"chi={chi}")
                break
    return rep


# ---------------------------------------------------------------------------
# divisor sets of the W / V / C / S and subsequence families
# ---------------------------------------------------------------------------


def _scan_zero(x0: int, x1: int, tm: int, p: int, bound: int, stride: int = 1, offset: int = 0):
    """First n in [0, bound] with x_n = 0 and n = offset mod stride, else None."""
    a, b = x0, x1
    for n in range(0, bound + 1):
        if a == 0 and n % stride == offset:
            return n
        a, b = b, (tm * b - a) % p
    return None


def sequence_divisor_check(t, family: str, limit: int, subseq_r: int = 3) -> CheckReport:
    """Divisor sets of the odd-W, odd-V, trace, order-3 and subsequence
    families against their valuation characterizations.

    Predicted membership: W <-> v_2(chi) = 0, V <-> v_2 = 1, C <-> v_2 >= 2,
    S <-> 3 | chi, subsequence(r) <-> r does not divide z, where
    U_n = 0 exactly when z | n: z = chi/2 for even chi (D^(chi/2) = -I),
    else z = chi.  The scan side looks for an actual zero of the sequence
    mod p within one period, or for the subsequence U_{rk+1} within
    (r - 1)*chi + 2 steps, which reach every residue class of z*m mod r.
    chi <= p + 1 off delta = 0, so a scan at p takes up to (r - 1)*(p + 1)
    + 2 steps for the subsequence and 2*(p + 1) + 2 for the others; summed
    over p, the subsequence scans do about (r - 1)/2 * (limit/cap)**2
    times the work of the others at the cap, cap = ENUMERATION_CAP, and
    are refused where that exceeds 1: (r - 1)*(limit + 1)**2 may not
    exceed 2*(cap + 1)**2.  `family` is one of SEQUENCE_FAMILIES, spelled
    exactly.
    """
    if limit > ENUMERATION_CAP:
        raise PrimeTooLarge(f"limit capped at {ENUMERATION_CAP} for O(p) scans")
    t = parameter(t)
    if family not in SEQUENCE_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    skip = [t.denominator]
    if family == "subsequence":
        _require_prime(subseq_r)
        if (subseq_r - 1) * (limit + 1) ** 2 > 2 * (ENUMERATION_CAP + 1) ** 2:
            cap = f"2 * {ENUMERATION_CAP + 1}**2"
            raise PrimeTooLarge(f"(r - 1) * (limit + 1)**2 capped at {cap} for subsequence scans")
        skip.append(subseq_r)
    b = None
    if family == "S":
        cls = classify(t)
        if not cls.cubic:
            raise NotCubic(f"t = {t} is not cubic")
        b = cls.cubic_b
        skip += [abs(b.numerator), 3]
    rep = CheckReport(name=f"sequence(t={t}, family={family})")

    for p in _admissible(rep, limit, *skip):
        tm = ring.residue(t, p)
        chi = ring.chi_from_residue(tm, p)
        bound = 2 * chi + 2
        if family == "W":
            # x_n = W_{2n-1}(t) from [W_{-1}, W_1] = [-1, 1]
            found = _scan_zero(p - 1, 1, tm, p, bound) is not None
            predicted = chi % 2 == 1
        elif family == "V":
            found = _scan_zero(1, 1, tm, p, bound) is not None
            predicted = primes.valuation(chi, 2) == 1
        elif family == "C":
            found = _scan_zero(2, tm, tm, p, bound) is not None
            predicted = primes.valuation(chi, 2) >= 2
        elif family == "S":
            bm = ring.residue(b, p)
            inv2b = pow(2 * bm, -1, p)
            s0 = 2 * inv2b % p
            s1 = (tm - bm) * inv2b % p
            found = _scan_zero(s0, s1, tm, p, bound) is not None
            predicted = chi % 3 == 0
        else:  # subsequence
            z = chi // 2 if chi % 2 == 0 else chi
            bound = (subseq_r - 1) * chi + 2
            found = _scan_zero(0, 1, tm, p, bound, stride=subseq_r, offset=1) is not None
            predicted = z % subseq_r != 0
        if found != predicted:
            rep.record(p, f"divisor={predicted}", f"scan={found}")
    return rep


# ---------------------------------------------------------------------------
# polynomial splitting <=> group membership
# ---------------------------------------------------------------------------


def _root_count(f: list, p: int) -> int:
    """Distinct roots in F_p of the monic f of degree >= 1 (coefficients mod p,
    constant first).

    That is deg gcd(f, x**p - x): x**p mod f by square-and-multiply on
    coefficient lists, then Euclid, O(deg**2 * log p) in all.  The
    reduction mod f and the times-x step walk only the nonzero lower
    coefficients of f; the C_m - shift of the splitting suite has about
    m/2 + 1 of them.
    """
    d = len(f) - 1
    neg = [(i, -c % p) for i, c in enumerate(f[:d]) if c]  # x**d = sum(n * x**i) mod f
    h = [1] + [0] * (d - 1)
    for bit in bin(p)[2:]:
        c = [0] * (2 * d - 1)
        for i, hi in enumerate(h):
            if hi:
                c[2 * i] += hi * hi
                hi2 = 2 * hi
                for k, hk in enumerate(h[i + 1:], 2 * i + 1):
                    c[k] += hi2 * hk
        for k in range(2 * d - 2, d - 1, -1):
            top = c[k] % p
            if top:
                for i, ni in neg:
                    c[k - d + i] += top * ni
        h = [ci % p for ci in c[:d]]
        if bit == "1":  # times x
            top = h[-1]
            h = [0] + h[:-1]
            if top:
                for i, ni in neg:
                    h[i] = (h[i] + top * ni) % p
    if d == 1:  # x = -f[0] mod f
        h[0] = (h[0] + f[0]) % p
    else:
        h[1] = (h[1] - 1) % p
    a, b = f, h
    while b and not b[-1]:
        b.pop()
    while b:  # a, b = b, a mod b
        a = a[:]
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        for k in range(len(a) - 1, db - 1, -1):
            q = a[k] * inv % p
            if q:
                for i, bi in enumerate(b, k - db):
                    a[i] = (a[i] - q * bi) % p
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


def _splitting_verdicts(tm: int, r: int, p: int, n_max: int, j_max: int,
                        variant: str, c_polys: dict):
    """Theorem side of the splitting suite at p: k[j] says p is in K_j
    (1 <= j <= j_max) and lin[n] that C_{r^n}(x) - t splits linearly over
    F_p (1 <= n <= n_max), so p is in M_n & K_j when k[j] and lin[n].

    K_j: for "odd", x**2 - t*x + 1 and Phi_{r^j} both split linearly or
    both quadratically; for "two", j < 2, or x**2 + delta and C_{2^(j-2)}
    both split linearly; for "reducible", Phi_{r^j} splits linearly.
    Phi_{r^j} splits linearly when r^j | p - 1, and quadratically when it
    has no root in F_p, gcd(r^j, p - 1) = gcd(r^(j-1), p - 1), but all its
    roots lie in the quadratic extension, r^j | p**2 - 1.  The other
    polynomials' roots are counted by `_root_count`, those of C_{2^i} only
    when x**2 + delta has roots.
    """

    def splits(m, shift):  # C_m(x) - shift has m roots in F_p
        f = [c % p for c in c_polys[m]]
        f[0] = (f[0] - shift) % p
        return _root_count(f, p) == m

    if variant == "two":
        quad = _root_count([(tm * tm - 4) % p, 0, 1], p) > 0
        k = [None, True] + [quad and splits(2 ** (j - 2), 0) for j in range(2, j_max + 1)]
    else:
        quadratic = variant == "odd" and _root_count([1, -tm % p, 1], p) == 0
        k = [None] + [
            gcd(r**j, p - 1) == gcd(r ** (j - 1), p - 1) and (p * p - 1) % r**j == 0
            if quadratic else (p - 1) % r**j == 0
            for j in range(1, j_max + 1)
        ]
    lin = [None] + [splits(r**n, tm) for n in range(1, n_max + 1)]
    return k, lin


def verify_splitting_theorems(
    t, r: int, limit: int, n_max: int = 2, j_max: int = 3
) -> CheckReport:
    """Polynomial splitting <=> group membership, for every admissible prime.

    Group side: r^j | phat for K_j, and existence of an r^n-th root of D
    for M_n (decided by a power test in the cyclic group).  Theorem side:
    `_splitting_verdicts`, in the variant that t and r select: "reducible"
    when t**2 - 4 is a rational square, else "two" for r = 2 and "odd" for
    odd r.  It counts roots by gcd, so the limit goes to
    SPLITTING_LIMIT_CAP, and the degrees of the C_m it needs, r**n_max and
    for "two" 2**(j_max - 2), go to DEGREE_CAP, since one dense gcd costs
    O(deg**2 * log p).  j_max stops at the bit length of
    SPLITTING_LIMIT_CAP + 1: past it r^j > p + 1 for every prime checked,
    so K_j is empty.  Primes dividing num(t**2-4) are exceptional and
    skipped.

    Each prime is also placed in its cell of the inductive table and the
    cell must pin the valuation of chi: members of M_n with r^n || phat
    have r ∤ chi; leaving M at level n with r^{n+m-1} || phat forces
    v_r(chi) = m.
    """
    _require_prime(r)
    j_cap = (SPLITTING_LIMIT_CAP + 1).bit_length()
    if not 1 <= j_max <= j_cap or n_max < 0:
        raise ValueError(
            f"need 1 <= j_max <= {j_cap} and n_max >= 0, got j_max={j_max}, n_max={n_max}"
        )
    t = parameter(t)
    if r**n_max > DEGREE_CAP or (r == 2 and 2 ** (j_max - 2) > DEGREE_CAP):
        raise ValueError(
            f"polynomial degree capped at {DEGREE_CAP}: need r**n_max"
            f" (and for r = 2, 2**(j_max - 2)) <= {DEGREE_CAP},"
            f" got r={r}, n_max={n_max}, j_max={j_max}"
        )
    if limit > SPLITTING_LIMIT_CAP:
        raise PrimeTooLarge(f"limit capped at {SPLITTING_LIMIT_CAP} for the splitting suite")
    delta = t * t - 4
    variant = "reducible" if is_square(delta) else ("two" if r == 2 else "odd")
    ms = {r**n for n in range(1, n_max + 1)}
    if variant == "two":
        ms |= {2**i for i in range(j_max - 1)}
    c_polys = {m: cheb_c_coeffs(m) for m in ms}
    read_v = ring.ChiValuation(t, r)
    rep = CheckReport(name=f"splitting(t={t}, r={r})")
    for p in _admissible(rep, limit, t.denominator, abs(delta.numerator), r):
        tm = ring.residue(t, p)
        m = ring.ModParam.from_residue(tm, p)
        phat = ring.group_order(m)
        k, lin = _splitting_verdicts(tm, r, p, n_max, j_max, variant, c_polys)
        d_elem = ring.d_elem(m)
        v = primes.valuation(phat, r)
        for j in range(1, j_max + 1):
            group = phat % r**j == 0
            if k[j] != group:
                rep.record(p, f"K_{j} group={group}", f"theorem={k[j]}")
        vchi = read_v(p)
        in_m_prev = True  # M_0 is everything
        for n in range(1, n_max + 1):
            in_m = (d_elem ** (phat // r ** min(n, v))).is_identity
            j_lo = max(n, 2) if variant == "two" else n
            for j in range(j_lo, j_max + 1):
                group = (phat % r**j == 0) and in_m
                thm = k[j] and lin[n]
                if thm != group:
                    rep.record(p, f"M_{n}&K_{j} group={group}", f"theorem={thm}")
            # the table cells determine v_r(chi) exactly
            if in_m and v == n and vchi != 0:
                rep.record(p, f"cell B_{n} forces r ∤ chi", f"v_r(chi)={vchi}")
            if in_m_prev and not in_m and v >= n and vchi != v - n + 1:
                rep.record(p, f"cell at M_{n-1}\\M_{n} forces v_r(chi)={v - n + 1}", vchi)
            in_m_prev = in_m
    return rep


# ---------------------------------------------------------------------------
# dynamics: Chebyshev orbits and the shifted quadratic map
# ---------------------------------------------------------------------------


def chebyshev_orbit_divisors(x0, k: int, n_max: int, limit: int) -> CheckReport:
    """Primes dividing the orbit x0 -> C_k(x0) -> C_{k**2}(x0) -> ...

    Any divisor p of the n-th orbit element has chi(x0, p) = 4*k**n, so
    D^{k^n} must have order 4 and p >= 4*k**n - 1; both are checked
    exactly.  n_max is capped at 64: below the CLI limit cap every hit
    has n <= 24, and each further step costs every prime.  `divisors`
    holds (p, n) pairs; the metrics are the divisor `fraction` and its
    running value at each power of ten below the limit ("N=1000": ...),
    the density-zero trend.
    """
    if k < 2 or not 0 <= n_max <= 64:
        raise ValueError(f"need k >= 2 and 0 <= n_max <= 64, got k={k}, n_max={n_max}")
    x0 = Fraction(x0)
    rep = CheckReport(name=f"chebyshev-orbit(x0={x0}, k={k})")
    checkpoints = {}
    next_checkpoint = 1000
    for p in _admissible(rep, limit, x0.denominator):
        while p > next_checkpoint:
            checkpoints[f"N={next_checkpoint}"] = _ratio(len(rep.divisors), rep.primes_checked)
            next_checkpoint *= 10
        xm = ring.residue(x0, p)
        y = xm
        hit: Optional[int] = None
        for n in range(n_max + 1):
            if y == 0:
                hit = n
                break
            y = cheb_c_mod(k, y, p)
        if hit is None:
            continue
        rep.divisors.append((p, hit))
        if p < 4 * k**hit - 1:
            rep.record(p, f"p >= 4*{k}**{hit}-1", p)
        m = ring.ModParam.from_residue(xm, p)
        a = ring.d_elem(m) ** (k**hit)
        if not ((a * a) == -ring.identity(m)):
            rep.record(p, "ord(D^{k^n}) = 4", "(D^e)^2 != -I")
    rep.metrics = {"fraction": _ratio(len(rep.divisors), rep.primes_checked), **checkpoints}
    return rep


def quadmap_divisor_check(t, limit: int) -> CheckReport:
    """Orbit of t under x -> x**2 - 2 returns to t mod p iff chi(t, p) is odd.

    The orbit values are C_{2^n}(t), and a return forces D^(2^n -+ 1) = I.
    The scan stops at the first repeated value, found by Brent's cycle
    detection (BIT 20, 1980): a saved value, replaced after 1, 2, 4, ...
    steps, is met again once the orbit has closed its cycle.  The map is
    a function on F_p, so a t on the cycle returns before any other value
    repeats, and a match with the saved value means t never returns.
    `divisors` holds the primes with a return; the metrics are `t` and
    their `density`.  The limit is capped at ENUMERATION_CAP, like the
    other orbit scans, since a cycle can be O(p) long.
    """
    if limit > ENUMERATION_CAP:
        raise PrimeTooLarge(f"limit capped at {ENUMERATION_CAP} for O(p) scans")
    t = parameter(t)
    read_v2 = ring.ChiValuation(t, 2)
    rep = CheckReport(name=f"quadmap(t={t})")
    for p in _admissible(rep, limit, t.denominator):
        tm = ring.residue(t, p)
        v2 = read_v2(p)
        y = saved = tm
        steps, power = 0, 1
        while True:
            y = (y * y - 2) % p
            if y == tm:
                found = True
                break
            if y == saved:
                found = False
                break
            steps += 1
            if steps == power:
                saved, steps, power = y, 0, 2 * power
        if found:
            rep.divisors.append(p)
        if found != (v2 == 0):
            rep.record(p, f"divisor iff chi odd (v_2(chi)={v2})", found)
    rep.metrics = {"t": t, "density": _ratio(len(rep.divisors), rep.primes_checked)}
    return rep


# ---------------------------------------------------------------------------
# non-divisor density for a determinant-one sequence Y
# ---------------------------------------------------------------------------


def nondivisor_density(t, y0, y1, r: int, limit: int) -> CheckReport:
    """Density of the witness set T = {r || phat, r ∤ chi, r | ord(Y)}.

    Every member of T is a guaranteed non-divisor of the sequence Y
    (its order is not a divisor of chi, nor is -Y's, and the group is
    cyclic); the expected density is (r-1)/r**3.  The metrics are
    `target_count` = |T|, `pi_limit` = pi(limit), their `ratio`, the
    `expected` density and the `trace` of Y.

    Membership in T reads three r-adic valuations, factors nothing, and
    takes one character per prime, ((t**2 - 4)/p) by Euler's criterion.
    It gives v = v_r(phat), and the `at` of a `ring.ChiValuation` reader
    reads v_r(chi(t, p)) and v_r(ord Y) = v_r(chi(b, p)) from it for the
    trace b of Y, whose b**2 - 4 = y0**2 (t**2 - 4) has the same character
    wherever p does not divide num(y0).  When p | num(y0), Y = +-I and
    v_r(ord Y) = 0.

    At every prime with r | phat (and every p <= 10**4), v_r(ord Y) is also
    found from `RingElem` powers, Y**(n/r**v) for n = p -+ 1 (2p when
    p | t**2 - 4) and then r-th powers, and a mismatch with the reader is
    a violation.  For p <= 10**4 the full orders are computed too, by
    factoring n: violations there are primes where ord(Y)
    differs from chi(b, p), where the full orders and the readers place p
    differently in T, or where an honest zero scan contradicts the
    subgroup divisor criterion or finds a member of T dividing Y.  There
    the literal criterion "ord(Y) | 2*chi" is compared against the
    subgroup criterion too, and its disagreements are counted in
    `criterion_disagreements` rather than resolved.

    A Y with torsion trace, or Y = +-D^k, has no such witness and is
    refused with TorsionTimesPower.  A zero of the sequence at index +-k
    means y0 = +-U_k(t), and then 2**(k - 1) <= max(|num(y0)|, den(y0)):
    for t = a/b with b > 1, den(U_k(t)) = b**(k - 1), because the numerator
    is = a**(k - 1) mod b, and for an integer t, |t| >= 3, so
    |U_(k+1)(t)| >= 2*|U_k(t)|.  So the search for a zero stops after
    2 + the bit length of that maximum terms each way.
    """
    t, y0, y1 = parameter(t), Fraction(y0), Fraction(y1)
    det = y1 * y1 - t * y0 * y1 + y0 * y0
    if det != 1:
        hint = "a square" if is_square(det) else "not a square (half the primes are non-divisors)"
        raise NotUnitDeterminant(f"det(Y) = {det} != 1; det is {hint}")
    b = 2 * y1 - t * y0
    if b in EXCLUDED:
        raise TorsionTimesPower(f"trace {b} is a torsion trace")
    terms = 2 + max(abs(y0.numerator), y0.denominator).bit_length()
    for sign, (u, w) in ((1, (y0, y1)), (-1, (y0, t * y0 - y1))):  # y_0, y_(+-1), ...
        for n in range(terms):
            if u == 0:
                raise TorsionTimesPower(f"sequence element {sign * n} is zero: Y = +-D^k")
            u, w = w, t * w - u
    if r == 2 or not primes.is_prime(r):
        raise ValueError("r must be an odd prime")

    rep = CheckReport(name=f"nondivisor(t={t}, Y=[{y0}, {y1}], r={r})")
    pi_limit = target_count = disagreements = 0
    read_t, read_b = ring.ChiValuation(t, r), ring.ChiValuation(b, r)
    dens = t.denominator * y0.denominator * y1.denominator
    for p in primes.iter_primes(limit):
        pi_limit += 1
        if p == 2 or dens % p == 0:
            continue
        rep.primes_checked += 1
        delta_char = ring.legendre(read_t.disc, p)
        n = p - delta_char if delta_char else 2 * p  # a multiple of ord(Y)
        v = primes.valuation(n, r)
        if v == 0 and p > ENUMERATION_CAP:
            continue
        tm = ring.residue(t, p)
        m = ring.ModParam.from_residue(tm, p)
        y_elem = ring.elem_from_rationals(m, y0, y1)
        y_scalar = y0.numerator % p == 0  # Y = +-I mod p
        v_ord = 0 if y_scalar else read_b.at(p, delta_char, 0)
        z, v_pow = y_elem ** (n // r**v), 0
        while not z.is_identity and v_pow <= v:
            z, v_pow = z**r, v_pow + 1
        if v_pow != v_ord:
            rep.record(p, f"v_r(ord Y) = v_r(chi(trace)) = {v_ord}", v_pow)
        in_target = v == 1 and v_ord > 0 and read_t.at(p, delta_char, 0) == 0
        target_count += in_target
        if p <= ENUMERATION_CAP:
            fac = primes.factorize(n)  # not phat: for t = 2 mod p, chi | p but ord(Y) | 2p
            chi = ring.chi_from_residue(tm, p)
            ord_y = ring.element_order(y_elem, fac)
            idx_b = ord_y if y_scalar else _chi(b, p)
            if ord_y != idx_b:
                rep.record(p, f"ord(Y) = chi(trace) = {idx_b}", ord_y)
            # v_r(phat) = v: phat is n, or p where n = 2p, and r is odd
            full_target = v == 1 and chi % r != 0 and ord_y % r == 0
            if full_target != in_target:
                rep.record(p, f"full orders place p in T: {full_target}", in_target)
            scan_div = _scan_zero(y_elem.x0, y_elem.x1, tm, p, 2 * chi + 2) is not None
            subgroup_div = chi % ord_y == 0 or chi % ring.element_order(-y_elem, fac) == 0
            if scan_div != subgroup_div:
                rep.record(p, f"scan agrees with subgroup criterion ({subgroup_div})", scan_div)
            elif in_target and scan_div:
                rep.record(p, "target member divides no element", "scan found a zero")
            disagreements += ((2 * chi) % ord_y == 0) != subgroup_div
    rep.metrics = {
        "target_count": target_count,
        "pi_limit": pi_limit,
        "ratio": _ratio(target_count, pi_limit),
        "expected": Fraction(r - 1, r**3),
        "trace": b,
        "criterion_disagreements": disagreements,
    }
    return rep


# ---------------------------------------------------------------------------
# the run list of `apparition verify all`
# ---------------------------------------------------------------------------


def all_suites(limit: int):
    """Every exact suite once, as `apparition verify all` and
    scripts/verify_all.py run them; reports are yielded as they finish.

    Every suite that computes chi by ladders, the bridge included, runs
    to limit; the O(p) scans (sequences, quadmap) and the splitting and
    r = 3 Ballot suites take min(limit, 2000) or ENUMERATION_CAP; the
    identity suite comes last.
    """
    n, cap = limit, min(limit, 2000)
    fib, pell = LucasSpec(1, -1), LucasSpec(2, -1)
    three, two_sevenths = Fraction(3), Fraction(2, 7)
    yield verify_prop11(three, 2, n)
    yield verify_prop11(three, 3, n)
    yield verify_twin(three, n)
    yield verify_twin(two_sevenths, n)
    yield verify_cubic_associates(two_sevenths, n)
    yield verify_circular(Fraction(6, 5), n)
    yield verify_bridge(fib, n)
    yield verify_bridge(pell, n)
    yield ballot_check(fib, 2, n, k_max=30)
    yield ballot_check(fib, 3, cap, k_max=20)
    for family in ("W", "V", "C"):
        yield sequence_divisor_check(three, family, cap)
    yield sequence_divisor_check(three, "subsequence", cap, subseq_r=3)
    yield sequence_divisor_check(two_sevenths, "S", cap)
    yield verify_splitting_theorems(three, 3, cap)
    yield verify_splitting_theorems(three, 2, cap)
    yield verify_splitting_theorems(Fraction(10, 3), 3, cap)
    yield quadmap_divisor_check(Fraction(5), min(n, ENUMERATION_CAP))
    yield chebyshev_orbit_divisors(three, 2, 20, n)
    yield identity_suite(three)
