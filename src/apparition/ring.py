"""Matrices commuting with the recurrence matrix D_t over F_p.

An element is written by its second row [x0 x1]; in the basis {I, D} it is
alpha*I + beta*D with alpha = x1 - t*x0, beta = x0, which makes products
cost five modular multiplications.  The determinant-one elements form a
cyclic group of order p-1 or p+1 according to the quadratic character of
delta = t**2 - 4 mod p (order p or 2p when delta vanishes), and the index
of appearance chi(t, p) is the order of D in that group.

Residues live in [0, p); p = 2 is rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .chebyshev import cheb_c_mod
from .errors import BoundViolation, DenominatorDivisible, NotUnitDeterminant
from .primes import distinct_prime_factors, is_prime, valuation


@dataclass(frozen=True)
class ModParam:
    """A parameter t reduced mod an odd prime p."""

    p: int
    t_mod: int
    delta_mod: int


class OrderKind(Enum):
    SPLIT = "split"          # delta is a nonzero square: order p - 1
    INERT = "inert"          # delta is a non-square: order p + 1
    DELTA_ZERO = "delta-zero"  # t = +-2 mod p: order p or 2p


@dataclass(frozen=True)
class GroupOrder:
    value: int
    kind: OrderKind


def residue(q: Fraction, p: int) -> int:
    """The rational q reduced mod p; p must not divide its denominator."""
    n, d = q.numerator, q.denominator
    if d % p == 0:
        raise DenominatorDivisible(f"{p} divides den({q})")
    return n % p if d == 1 else n * pow(d, -1, p) % p


def reduce_param(t, p: int) -> ModParam:
    """Reduce rational t mod p; p must not divide the denominator."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    tm = residue(Fraction(t), p)
    return ModParam(p=p, t_mod=tm, delta_mod=(tm * tm - 4) % p)


@dataclass(frozen=True)
class RingElem:
    """Element [x0 x1] of the commutant ring mod p."""

    param: ModParam
    x0: int
    x1: int

    @property
    def trace(self) -> int:
        return (2 * self.x1 - self.param.t_mod * self.x0) % self.param.p

    @property
    def det(self) -> int:
        p = self.param.p
        return (self.x1 * self.x1 - self.param.t_mod * self.x0 * self.x1 + self.x0 * self.x0) % p

    @property
    def is_identity(self) -> bool:
        return self.x0 == 0 and self.x1 == 1

    def __mul__(self, other: "RingElem") -> "RingElem":
        if self.param != other.param:
            raise ValueError("mismatched parameters")
        p, t = self.param.p, self.param.t_mod
        aa, ba = self.x1 - t * self.x0, self.x0
        ab, bb = other.x1 - t * other.x0, other.x0
        beta = (aa * bb + ab * ba + t * ba * bb) % p
        alpha = (aa * ab - ba * bb) % p
        return RingElem(self.param, beta, (alpha + t * beta) % p)

    def __pow__(self, n: int) -> "RingElem":
        if n < 0:
            raise ValueError("negative exponents unsupported")
        p, t = self.param.p, self.param.t_mod
        # square-and-multiply in (alpha, beta) coordinates
        ra, rb = 1, 0
        a, b = (self.x1 - t * self.x0) % p, self.x0
        while n:
            if n & 1:
                ra, rb = (ra * a - rb * b) % p, (ra * b + a * rb + t * rb * b) % p
            a, b = (a * a - b * b) % p, (2 * a * b + t * b * b) % p
            n >>= 1
        return RingElem(self.param, rb, (ra + t * rb) % p)

    def __neg__(self) -> "RingElem":
        p = self.param.p
        return RingElem(self.param, -self.x0 % p, -self.x1 % p)


def identity(m: ModParam) -> RingElem:
    return RingElem(m, 0, 1)


def d_elem(m: ModParam) -> RingElem:
    """The recurrence matrix D = [1 t] itself."""
    return RingElem(m, 1, m.t_mod)


def elem_from_rationals(m: ModParam, x0, x1) -> RingElem:
    """Reduce rational coordinates mod p (denominators must be prime to p)."""
    return RingElem(m, residue(Fraction(x0), m.p), residue(Fraction(x1), m.p))


def group_order(m: ModParam) -> GroupOrder:
    """Order of the determinant-one group mod p (Euler criterion on delta)."""
    p = m.p
    if m.delta_mod == 0:
        return GroupOrder(p if m.t_mod == 2 else 2 * p, OrderKind.DELTA_ZERO)
    if pow(m.delta_mod, (p - 1) >> 1, p) == 1:
        return GroupOrder(p - 1, OrderKind.SPLIT)
    return GroupOrder(p + 1, OrderKind.INERT)


def element_order(a: RingElem, order_bound: dict) -> int:
    """Multiplicative order of a, given a factored multiple of it.

    Starts from the bound and divides out prime factors while the power
    stays the identity; this is exact because the group is cyclic.
    """
    if a.det != 1:
        raise NotUnitDeterminant(f"det = {a.det} != 1")
    bound = 1
    for q, e in order_bound.items():
        bound *= q**e
    if not (a**bound).is_identity:
        raise BoundViolation(f"a**{bound} != I")
    o = bound
    for q in order_bound:
        while o % q == 0 and (a ** (o // q)).is_identity:
            o //= q
    return o


# ---------------------------------------------------------------------------
# fast chi kernels (used directly by the prime sweeps)
# ---------------------------------------------------------------------------


def _sqrt_mod(a: int, p: int) -> int:
    """Square root of a quadratic residue mod an odd prime (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if p & 3 == 3:
        return pow(a, (p + 1) >> 2, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) >> 1, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) >> 1, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _mult_order(x: int, p: int, bound: int, qs) -> int:
    """Order of x in F_p* given distinct primes qs of the bound."""
    o = bound
    for q in qs:
        while o % q == 0 and pow(x, o // q, p) == 1:
            o //= q
    return o


def _norm1_order(x: int, p: int, bound: int, qs) -> int:
    """Order of the trace-x, det-1 element in the inert (field) case.

    In a field, a norm-one element z satisfies z**e = 1 iff its trace
    C_e(x) equals 2, so the whole order computation runs on traces.
    """
    o = bound
    for q in qs:
        while o % q == 0 and cheb_c_mod(o // q, x, p) == 2:
            o //= q
    return o


def chi_from_residue(tm: int, p: int, spf=None) -> int:
    """chi for the residue tm = t mod p.  spf: optional factor table."""
    d = (tm * tm - 4) % p
    if d == 0:
        return p if tm == 2 else 2 * p
    if pow(d, (p - 1) >> 1, p) == 1:
        bound = p - 1
        # split: order of the eigenvalue (t + sqrt(delta))/2 in F_p*
        xi = (tm + _sqrt_mod(d, p)) * ((p + 1) >> 1) % p
        return _mult_order(xi, p, bound, distinct_prime_factors(bound, spf))
    bound = p + 1
    return _norm1_order(tm, p, bound, distinct_prime_factors(bound, spf))


def chi_valuation(tm: int, p: int, r: int) -> int:
    """v_r(chi) for the residue tm = t mod p, with nothing factored.

    With n = p -+ 1 the group order and m its r-free part, xi**m has order
    r**v_r(chi) for the eigenvalue xi of D.  C_e(tm) = xi**e + xi**-e is 2
    exactly when xi**e = 1, so v_r(chi) is the number of steps y -> C_r(y)
    that take y = C_m(tm) to 2.
    """
    d = (tm * tm - 4) % p
    if d == 0:
        return valuation(p if tm == 2 else 2 * p, r)
    m = p - 1 if pow(d, (p - 1) >> 1, p) == 1 else p + 1
    while m % r == 0:
        m //= r
    y = cheb_c_mod(m, tm, p)
    j = 0
    while y != 2:
        y = cheb_c_mod(r, y, p)
        j += 1
    return j


def index(t, p: int, spf=None) -> int:
    """The index of appearance chi(t, p): order of D_t mod p."""
    m = reduce_param(t, p)
    return chi_from_residue(m.t_mod, p, spf)


def index_by_scan(t, p: int) -> int:
    """Reference oracle: linear scan for U_n = 0, U_{n+1} = 1 mod p."""
    m = reduce_param(t, p)
    tm, u, v = m.t_mod, 0, 1
    for n in range(1, 2 * p + 2):
        u, v = v, (tm * v - u) % p
        if u == 0 and v == 1:
            return n
    raise AssertionError(f"no index below 2p+2 for t={t}, p={p}")
