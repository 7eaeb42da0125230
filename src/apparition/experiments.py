"""Exact per-prime verification suites and dynamics experiments.

Every suite here checks a relation that holds for *all* admissible primes
(isomorphism identities, divisor-set characterizations, polynomial
splitting equivalences), so a passing run has zero violations.  Every
suite returns a `CheckReport`; the only statistical outputs are the
`metrics` of the orbit, quadratic-map and non-divisor suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Optional

from . import primes, ring
from .chebyshev import (
    cheb_c_exact,
    cheb_c_mod,
    cheb_u_exact,
    cheb_v_exact,
    cheb_w_exact,
    lucas_pair_mod,
)
from .classify import EXCLUDED, classify
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


def _admissible(limit: int, *dens: int):
    """Odd primes p <= limit dividing none of dens; no factoring, so any size."""
    skip = prod(dens)
    if skip == 0:
        raise ValueError("degenerate parameter: a modulus to skip is 0")
    for p in primes.iter_primes(limit, start=3):
        if skip % p:
            yield p


def _require_prime(r: int) -> None:
    if not primes.is_prime(r):
        raise ValueError(f"r must be prime, got {r}")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# index shift, twin, cubic and circular symmetries
# ---------------------------------------------------------------------------


def verify_prop11(t, r: int, limit: int) -> CheckReport:
    """chi(C_r(t), p) equals chi(t, p), or chi(t, p)/r when r divides it.

    Valid away from primes dividing num(U_r(t)), where the conjugation
    between the two rings degenerates.
    """
    _require_prime(r)
    t = Fraction(t)
    t_r = cheb_c_exact(r, t)
    u_r = cheb_u_exact(r, t)
    rep = CheckReport(name=f"prop11(t={t}, r={r})")
    for p in _admissible(limit, t.denominator, abs(u_r.numerator)):
        chi = ring.index(t, p)
        got = ring.index(t_r, p)
        want = chi // r if chi % r == 0 else chi
        rep.primes_checked += 1
        if got != want:
            rep.record(p, f"chi({t_r})={want}", got)
    return rep


def verify_twin(t, limit: int) -> CheckReport:
    """chi(-t) is 2*chi, chi/2, or chi according to v_2(chi) = 0, 1, >=2."""
    t = Fraction(t)
    rep = CheckReport(name=f"twin(t={t})")
    for p in _admissible(limit, t.denominator):
        chi = ring.index(t, p)
        got = ring.index(-t, p)
        v = primes.valuation(chi, 2)
        want = 2 * chi if v == 0 else (chi // 2 if v == 1 else chi)
        rep.primes_checked += 1
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
    cls = classify(t, rs=())
    if not cls.cubic:
        raise NotCubic(f"t = {t}")
    a1, a2 = cls.cubic_associates
    triple = (t, a1, a2)
    rep = CheckReport(name=f"cubic(t={t})")
    for p in _admissible(limit, t.denominator):
        if p == 3:
            continue
        vs = tuple(primes.valuation(ring.index(a, p), 3) for a in triple)
        rep.primes_checked += 1
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
    cls = classify(t, rs=())
    if not cls.circular:
        raise NotCircular(f"t = {t}")
    w = cls.circular_associate
    rep = CheckReport(name=f"circular(t={t})")
    for n in range(1, 30, 2):
        lhs = cheb_c_exact(n, t) ** 2 + cheb_c_exact(n, w) ** 2
        if lhs != 4:
            rep.record(0, f"C_{n}(t)^2 + C_{n}(w)^2 = 4 (n={n})", lhs)
    for p in _admissible(limit, t.denominator, w.denominator):
        jt = primes.valuation(ring.index(t, p), 2)
        jw = primes.valuation(ring.index(w, p), 2)
        rep.primes_checked += 1
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
    """Classical index of appearance == chi(t, p) for t = (T**2-2Q)/Q.

    An excluded t (T**2 = 4Q gives t = 2; T = 0 gives t = -2) has no
    index to compare, so it is refused with a ValueError.
    """
    t = spec.t
    if t in EXCLUDED:
        raise ValueError(f"degenerate spec: t = (T**2-2Q)/Q = {t} is excluded")
    rep = CheckReport(name=f"bridge(T={spec.T}, Q={spec.Q})")
    for p in _admissible(limit, 2 * abs(spec.Q) * abs(spec.delta) * t.denominator):
        got = lucas_index(spec, p)
        want = ring.index(t, p)
        rep.primes_checked += 1
        if got != want:
            rep.record(p, f"chi={want}", got)
    return rep


def ballot_check(spec: LucasSpec, r: int, limit: int, k_max: int = 30) -> CheckReport:
    """The quotient sequence B_k = L_{rk}/L_k: integrality, closed forms,
    and the divisor law (p | some B_k iff r | chi).

    Closed forms checked exactly: for odd r, B_k = Q^a W_r(C_k(t)) for odd k
    and B_{2s} = Q^a U_r(C_s(t)); for r = 2, B_k = Q^a V_k(t) (odd k) and
    B_{2s} = Q^s C_s(t).  Certificates: r | chi implies p | B_{chi/r}, and
    p | B_k for k <= k_max implies r | chi.
    """
    _require_prime(r)
    if not 1 <= k_max <= 60:
        raise ValueError(f"k_max must be in [1, 60] (exact values), got {k_max}")
    t = spec.t
    T, Q = spec.T, spec.Q
    rep = CheckReport(name=f"ballot(T={T}, Q={Q}, r={r})")

    lucas = [0, 1]
    for _ in range(r * k_max):
        lucas.append(T * lucas[-1] - Q * lucas[-2])
    if any(lucas[k] == 0 for k in range(1, r * k_max + 1)):
        raise ValueError("degenerate Lucas sequence (zero term)")

    bs = [None]  # 1-indexed
    for k in range(1, k_max + 1):
        q, rem = divmod(lucas[r * k], lucas[k])
        if rem != 0:
            rep.record(0, f"L_{r*k}/L_{k} integer (k={k})", f"remainder {rem}")
            q = Fraction(lucas[r * k], lucas[k])
        bs.append(q)
        if r == 2:
            if k % 2 == 1:
                want = Fraction(Q) ** ((k - 1) // 2) * cheb_v_exact((k - 1) // 2, t)
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

    for p in _admissible(limit, 2 * abs(Q)):
        if p == r:
            continue
        chi = ring.index(t, p)
        rep.primes_checked += 1
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
    S <-> 3 | chi, subsequence(r) <-> r does not divide chi.  The scan side
    looks for an actual zero of the sequence mod p within one period.
    """
    if limit > ENUMERATION_CAP:
        raise PrimeTooLarge(f"limit capped at {ENUMERATION_CAP} for O(p) scans")
    t = Fraction(t)
    family = family.upper() if family.upper() in {"W", "V", "C", "S"} else family.lower()
    if family not in SEQUENCE_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "subsequence":
        _require_prime(subseq_r)
    skip_extra = 1
    b = None
    if family == "S":
        cls = classify(t, rs=())
        if not cls.cubic:
            raise NotCubic(f"t = {t}")
        b = cls.cubic_b
        skip_extra = abs(b.numerator)
    rep = CheckReport(name=f"sequence(t={t}, family={family})")

    for p in _admissible(limit, t.denominator, skip_extra):
        if family == "S" and p == 3:
            continue
        if family == "subsequence" and p == subseq_r:
            continue
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
            found = _scan_zero(0, 1, tm, p, bound, stride=subseq_r, offset=1) is not None
            predicted = chi % subseq_r != 0
        rep.primes_checked += 1
        if found != predicted:
            rep.record(p, f"divisor={predicted}", f"scan={found}")
    return rep


# ---------------------------------------------------------------------------
# polynomial splitting oracles
# ---------------------------------------------------------------------------


@dataclass
class SplittingReport:
    """Root counts and split classes mod p, plus the membership predicates."""

    p: int
    r: int
    n: int
    j: int
    variant: str                  # "odd", "two", or "reducible"
    polys: dict                   # name -> (roots, degree, split class)
    k_j_theorem: bool
    m_n_k_j_theorem: bool


def _apply_c_r(x: int, r: int, p: int) -> int:
    if r == 2:
        return (x * x - 2) % p
    if r == 3:
        return x * (x * x - 3) % p
    return cheb_c_mod(r, x, p)


def _splitting_counts(tm: int, r: int, p: int, n_max: int, j_max: int, variant: str):
    """Root counts over F_p by full enumeration, shared across (n, j) pairs."""
    f_roots = 0
    ft_roots = 0
    phi = [0] * (j_max + 1)
    g = [0] * (n_max + 1)
    c_pow = [0] * (max(j_max - 2, 0) + 1)
    delta = (tm * tm - 4) % p
    for x in range(p):
        if variant == "odd" and (x * x - tm * x + 1) % p == 0:
            f_roots += 1
        if variant == "two" and (x * x + delta) % p == 0:
            ft_roots += 1
        if x:
            y = x
            for j in range(1, j_max + 1):
                y_next = pow(y, r, p)
                if y_next == 1 and y != 1:
                    phi[j] += 1
                y = y_next
        z = x
        for n in range(1, n_max + 1):
            z = _apply_c_r(z, r, p)
            if z == tm:
                g[n] += 1
        if variant == "two" and j_max >= 2:
            w = x
            for jj in range(0, j_max - 1):
                if jj >= 1 and w == 0:
                    c_pow[jj] += 1
                w = (w * w - 2) % p
            # jj = 0 entry is C_1 = x itself
            if x == 0:
                c_pow[0] += 1
    return f_roots, ft_roots, phi, g, c_pow


def splitting_oracle(t, r: int, n: int, j: int, p: int) -> SplittingReport:
    """Brute-force splitting classification of the membership polynomials.

    Counts roots over F_p by evaluating at every residue.  Linear splits
    are detected by root count = degree; an irreducible quadratic has no
    roots; the cyclotomic factor splits quadratically exactly when it has
    no roots but all its roots live in the quadratic extension, i.e.
    r^j | p**2 - 1.
    """
    if p > ENUMERATION_CAP:
        raise PrimeTooLarge(f"p capped at {ENUMERATION_CAP}")
    if j < n:
        raise ValueError("need j >= n")
    t = Fraction(t)
    if t.denominator % p == 0 or p == r or p == 2:
        raise BadPrime(f"p = {p} inadmissible")
    tm = ring.residue(t, p)
    variant = "reducible" if is_square(t * t - 4) else ("two" if r == 2 else "odd")
    f_roots, ft_roots, phi, g, c_pow = _splitting_counts(tm, r, p, max(n, 1), max(j, 1), variant)

    def phi_class(jj):
        deg = r**jj - r ** (jj - 1)
        if phi[jj] == deg:
            return "linear"
        if phi[jj] == 0 and (p * p - 1) % r**jj == 0:
            return "quadratic"
        return "other"

    def lin(count, deg):
        return "linear" if count == deg else ("none" if count == 0 else "partial")

    polys = {}
    if variant == "odd":
        f_class = "linear" if f_roots else "quadratic"
        polys["f"] = (f_roots, 2, f_class)
        polys[f"phi_{j}"] = (phi[j], r**j - r ** (j - 1), phi_class(j))
        k_thm = (f_class == "linear" and phi_class(j) == "linear") or (
            f_class == "quadratic" and phi_class(j) == "quadratic"
        )
    elif variant == "two":
        ft_class = "linear" if ft_roots else "quadratic"
        polys["ftilde"] = (ft_roots, 2, ft_class)
        if j >= 2:
            deg = 2 ** (j - 2)
            polys[f"c_{j-2}"] = (c_pow[j - 2], deg, lin(c_pow[j - 2], deg))
            k_thm = ft_class == "linear" and polys[f"c_{j-2}"][2] == "linear"
        else:
            k_thm = True  # K_1 is all of Pi for r = 2
    else:
        polys[f"phi_{j}"] = (phi[j], r**j - r ** (j - 1), phi_class(j))
        k_thm = phi_class(j) == "linear"

    if n >= 1:
        polys[f"g_{n}"] = (g[n], r**n, lin(g[n], r**n))
        m_thm = k_thm and polys[f"g_{n}"][2] == "linear"
    else:
        m_thm = k_thm
    return SplittingReport(
        p=p, r=r, n=n, j=j, variant=variant, polys=polys,
        k_j_theorem=k_thm, m_n_k_j_theorem=m_thm,
    )


def verify_splitting_theorems(
    t, r: int, limit: int, n_max: int = 2, j_max: int = 3
) -> CheckReport:
    """Polynomial splitting <=> group membership, for every admissible prime.

    Group side: r^j | phat for K_j, and existence of an r^n-th root of D
    for M_n (decided by a power test in the cyclic group).  Theorem side:
    the splitting predicates of the oracle.  Primes dividing num(t**2-4)
    are exceptional and skipped.

    Each prime is also placed in its cell of the inductive table and the
    cell must pin the valuation of chi: members of M_n with r^n || phat
    have r ∤ chi; leaving M at level n with r^{n+m-1} || phat forces
    v_r(chi) = m.
    """
    _require_prime(r)
    if j_max < 1 or n_max < 0:
        raise ValueError(f"need j_max >= 1 and n_max >= 0, got j_max={j_max}, n_max={n_max}")
    if limit > 3000:
        raise PrimeTooLarge("limit capped at 3000 for the splitting suite")
    t = Fraction(t)
    delta = t * t - 4
    rep = CheckReport(name=f"splitting(t={t}, r={r})")
    variant = "reducible" if is_square(delta) else ("two" if r == 2 else "odd")
    for p in _admissible(limit, t.denominator, abs(delta.numerator)):
        if p == r:
            continue
        tm = ring.residue(t, p)
        m = ring.ModParam(p=p, t_mod=tm, delta_mod=(tm * tm - 4) % p)
        phat = ring.group_order(m).value
        f_roots, ft_roots, phi, g, c_pow = _splitting_counts(tm, r, p, n_max, j_max, variant)
        d_elem = ring.d_elem(m)
        v = primes.valuation(phat, r)
        rep.primes_checked += 1

        def phi_lin(jj):
            return phi[jj] == r**jj - r ** (jj - 1)

        def phi_quad(jj):
            return phi[jj] == 0 and (p * p - 1) % r**jj == 0

        def k_thm(jj):
            if variant == "odd":
                return (f_roots > 0 and phi_lin(jj)) or (f_roots == 0 and phi_quad(jj))
            if variant == "two":
                if jj < 2:
                    return True
                return ft_roots > 0 and c_pow[jj - 2] == 2 ** (jj - 2)
            return phi_lin(jj)

        for j in range(1, j_max + 1):
            group = phat % r**j == 0
            if k_thm(j) != group:
                rep.record(p, f"K_{j} group={group}", f"theorem={k_thm(j)}")
        chi = ring.chi_from_residue(tm, p)
        vchi = primes.valuation(chi, r)
        in_m_prev = True  # M_0 is everything
        for n in range(1, n_max + 1):
            in_m = (d_elem ** (phat // r ** min(n, v))).is_identity
            g_lin = g[n] == r**n
            j_lo = max(n, 2) if variant == "two" else n
            for j in range(j_lo, j_max + 1):
                group = (phat % r**j == 0) and in_m
                thm = g_lin and k_thm(j)
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
    exactly.  `divisors` holds (p, n) pairs; the metrics are the divisor
    `fraction` and its running value at each power of ten below the limit
    ("N=1000": ...), the density-zero trend.
    """
    if k < 2 or n_max < 0:
        raise ValueError(f"need k >= 2 and n_max >= 0, got k={k}, n_max={n_max}")
    x0 = Fraction(x0)
    rep = CheckReport(name=f"chebyshev-orbit(x0={x0}, k={k})")
    checkpoints = {}
    next_checkpoint = 1000
    for p in _admissible(limit, x0.denominator):
        while p > next_checkpoint:
            checkpoints[f"N={next_checkpoint}"] = _ratio(len(rep.divisors), rep.primes_checked)
            next_checkpoint *= 10
        rep.primes_checked += 1
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
        m = ring.ModParam(p=p, t_mod=xm, delta_mod=(xm * xm - 4) % p)
        a = ring.d_elem(m) ** (k**hit)
        if not ((a * a) == -ring.identity(m)):
            rep.record(p, "ord(D^{k^n}) = 4", "(D^e)^2 != -I")
    rep.metrics = {"fraction": _ratio(len(rep.divisors), rep.primes_checked), **checkpoints}
    return rep


def quadmap_divisor_check(t, limit: int) -> CheckReport:
    """Orbit of t under x -> x**2 - 2 returns to t mod p iff chi(t, p) is odd.

    The orbit values are C_{2^n}(t), and a return forces D^(2^n -+ 1) = I;
    the scan is capped at p steps, which covers pre-period plus period.
    `divisors` holds the primes with a return; the metrics are `t` and
    their `density`.
    """
    t = Fraction(t)
    rep = CheckReport(name=f"quadmap(t={t})")
    for p in _admissible(limit, t.denominator):
        tm = ring.residue(t, p)
        chi = ring.chi_from_residue(tm, p)
        y = tm
        found = False
        for _ in range(p + 1):
            y = (y * y - 2) % p
            if y == tm:
                found = True
                break
        rep.primes_checked += 1
        if found:
            rep.divisors.append(p)
        if found != (chi % 2 == 1):
            rep.record(p, f"divisor iff chi odd (chi={chi})", found)
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

    Membership in T reads three r-adic valuations and factors nothing.
    One character ((t**2 - 4)/p) gives v = v_r(phat); the v_r(chi) kernel
    gives v_r(chi(t, p)), and v_r(ord Y) = v_r(chi(b, p)) for the trace b
    of Y, whose b**2 - 4 = y0**2 (t**2 - 4) has the same character.  When
    p | num(y0), Y = +-I and v_r(ord Y) = 0.

    At every prime with r | phat (and every p <= 10**4), v_r(ord Y) is also
    found from `RingElem` powers, Y**(n/r**v) for n = p -+ 1 (2p when
    p | t**2 - 4) and then r-th powers, and a mismatch with the kernel is
    a violation.  For p <= 10**4 the full orders are computed too, by
    factoring phat: violations there are primes where ord(Y)
    differs from chi(b, p), where the full orders and the kernel place p
    differently in T, or where an honest zero scan contradicts the
    subgroup divisor criterion or finds a member of T dividing Y.  There
    the literal criterion "ord(Y) | 2*chi" is compared against the
    subgroup criterion too, and its disagreements are counted in
    `criterion_disagreements` rather than resolved.
    """
    t, y0, y1 = Fraction(t), Fraction(y0), Fraction(y1)
    det = y1 * y1 - t * y0 * y1 + y0 * y0
    if det != 1:
        hint = "a square" if is_square(det) else "not a square (half the primes are non-divisors)"
        raise NotUnitDeterminant(f"det(Y) = {det} != 1; det is {hint}")
    b = 2 * y1 - t * y0
    if b in EXCLUDED:
        raise TorsionTimesPower(f"trace {b} is a torsion trace")
    for sign, (u, w) in ((1, (y0, y1)), (-1, (y0, t * y0 - y1))):  # y_0, y_(+-1), ...
        for n in range(66):
            if u == 0:
                raise TorsionTimesPower(f"sequence element {sign * n} is zero: Y = +-D^k")
            u, w = w, t * w - u
    if r == 2 or not primes.is_prime(r):
        raise ValueError("r must be an odd prime")

    rep = CheckReport(name=f"nondivisor(t={t}, Y=[{y0}, {y1}], r={r})")
    pi_limit = target_count = disagreements = 0
    disc = t.numerator**2 - 4 * t.denominator**2  # den(t)**2 * (t**2 - 4)
    dens = t.denominator * y0.denominator * y1.denominator
    kernel = ring.chi_valuation_from_characters
    for p in primes.iter_primes(limit):
        pi_limit += 1
        if p == 2 or dens % p == 0:
            continue
        rep.primes_checked += 1
        delta_char = ring.legendre(disc, p)
        n = p - delta_char if delta_char else 2 * p  # a multiple of ord(Y)
        v = primes.valuation(n, r)
        if v == 0 and p > ENUMERATION_CAP:
            continue
        tm = ring.residue(t, p)
        m = ring.ModParam(p=p, t_mod=tm, delta_mod=(tm * tm - 4) % p)
        y_elem = ring.elem_from_rationals(m, y0, y1)
        y_scalar = y0.numerator % p == 0  # Y = +-I mod p
        v_ord = 0 if y_scalar else kernel(b, p, r, delta_char, 0)  # 0 when v = 0
        z, v_pow = y_elem ** (n // r**v), 0
        while not z.is_identity and v_pow <= v:
            z, v_pow = z**r, v_pow + 1
        if v_pow != v_ord:
            rep.record(p, f"v_r(ord Y) = v_r(chi(trace)) = {v_ord}", v_pow)
        in_target = v == 1 and v_ord > 0 and kernel(tm, p, r, delta_char, 0) == 0
        target_count += in_target
        if p <= ENUMERATION_CAP:
            phat = ring.group_order(m).value
            fac = primes.factorize(n)  # not phat: for t = 2 mod p, chi | p but ord(Y) | 2p
            chi = ring.chi_from_residue(tm, p)
            ord_y = ring.element_order(y_elem, fac)
            idx_b = ord_y if y_scalar else ring.chi_from_residue(ring.residue(b, p), p)
            if ord_y != idx_b:
                rep.record(p, f"ord(Y) = chi(trace) = {idx_b}", ord_y)
            full_target = primes.valuation(phat, r) == 1 and chi % r != 0 and ord_y % r == 0
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
