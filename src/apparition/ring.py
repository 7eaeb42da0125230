"""Matrices commuting with the recurrence matrix D_t over F_p.

An element is written by its second row [x0 x1]; in the basis {I, D} it is
alpha*I + beta*D with alpha = x1 - t*x0, beta = x0, which makes products
cost five modular multiplications.  The determinant-one elements form a
cyclic group of order p-1 or p+1 according to the quadratic character of
delta = t**2 - 4 mod p (order p or 2p when delta vanishes), and the index
of appearance chi(t, p) is the order of D in that group.

A power Y**n is read off the Lucas pair (L_n, L_{n+1}) of the trace and
determinant of Y (Cayley-Hamilton), computed by the one fast-doubling
ladder `chebyshev.lucas_pair_mod`; the trace ladder `cheb_c_mod`, two
multiplications per bit, serves the chi kernels.

`chi_valuation_from_characters` is the one v_r(chi) kernel: given the
character of delta (which group) and, for r = 2, that of t + 2 (whether
D is a square in it), it needs one trace ladder, or none when the group
order alone decides.  That no-ladder rule is `chi_valuation_by_order`: r
does not divide p -+ 1, or r = 2 with t + 2 a non-square or the 2-part of
p -+ 1 equal to 2.  `chi_valuation` feeds the kernel Euler's criterion
for a single prime; the partition sweep applies the rule once per residue
class of p and feeds the kernel cached characters for the primes left,
and the non-divisor suite feeds it one character per prime.
`chi_from_residue` gives chi itself, by factoring p -+ 1; the exact suites
call it on `residue(t, p)` at primes their sieve has already vouched for.
`index` is the validating entry point of the CLI and library callers: it
checks that p is an odd prime and reduces t with `reduce_param` first.
`ModParam.from_residue` is the unvalidated constructor that
`reduce_param` and the suites share, and `group_order` and
`chi_from_residue` share one order rule on residues.

Residues live in [0, p); p = 2 is rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chebyshev import cheb_c_mod, lucas_pair_mod
from .errors import BoundViolation, DenominatorDivisible, NotUnitDeterminant
from .primes import distinct_prime_factors, is_prime, valuation


@dataclass(frozen=True)
class ModParam:
    """A parameter t reduced mod an odd prime p."""

    p: int
    t_mod: int
    delta_mod: int

    @classmethod
    def from_residue(cls, tm: int, p: int) -> "ModParam":
        """The parameter of the residue tm = t mod p, unvalidated: for
        callers whose p is already known to be an odd prime."""
        return cls(p, tm, (tm * tm - 4) % p)


def residue(q, p: int) -> int:
    """The rational q (int or Fraction) reduced mod p; p must not divide
    its denominator."""
    n, d = q.numerator, q.denominator
    if d % p == 0:
        raise DenominatorDivisible(f"{p} divides den({q})")
    return n % p if d == 1 else n * pow(d, -1, p) % p


def reduce_param(t, p: int) -> ModParam:
    """Reduce rational t mod p; p must not divide the denominator."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return ModParam.from_residue(residue(Fraction(t), p), p)


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
        """Y**n = L_n*Y - d*L_{n-1}*I by Cayley-Hamilton, for the Lucas
        sequence L of (s, d) = (trace, det), and d*L_{n-1} = s*L_n - L_{n+1}."""
        if n < 0:
            raise ValueError("negative exponents unsupported")
        p, s = self.param.p, self.trace
        a, b = lucas_pair_mod(s, self.det, n, p)
        return RingElem(self.param, a * self.x0 % p, (a * self.x1 - s * a + b) % p)

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


def legendre(x: int, p: int) -> int:
    """The Legendre symbol (x/p) for an odd prime p: 1, -1, or 0 when p | x."""
    e = pow(x, (p - 1) >> 1, p)  # Euler's criterion
    return e if e <= 1 else -1


def group_order(m: ModParam) -> int:
    """Order of the determinant-one group mod p: p - 1 when delta is a
    nonzero square, p + 1 when it is a non-square, and p (t = 2) or 2p
    (t = -2) when it vanishes."""
    return _group_order(m.t_mod, m.delta_mod, m.p)


def _group_order(tm: int, delta: int, p: int) -> int:
    """`group_order` of the residue tm with delta = tm**2 - 4 mod p."""
    if delta == 0:
        return p if tm == 2 else 2 * p
    return p - legendre(delta, p)


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


def chi_from_residue(tm: int, p: int) -> int:
    """chi for the residue tm = t mod p, by factoring the group order.

    Away from delta = 0, chi divides the group order n = p -+ 1.  With xi
    an eigenvalue of D, C_e(t) - 2 = (xi**e - 1)**2 / xi**e, so D**e = I
    exactly when C_e(t) = 2, whether xi lies in F_p (split) or in F_{p^2}
    (inert): primes are divided out of n while the trace stays 2, with
    no square root.
    """
    d = (tm * tm - 4) % p
    o = _group_order(tm, d, p)
    if d == 0:  # chi = p or 2p
        return o
    for q in distinct_prime_factors(o):
        while o % q == 0 and cheb_c_mod(o // q, tm, p) == 2:
            o //= q
    return o


def chi_valuation(tm: int, p: int, r: int) -> int:
    """v_r(chi) for the residue tm = t mod p, with nothing factored.

    Both quadratic characters come from Euler's criterion here; the
    partition sweep reads them from its caches instead and calls
    `chi_valuation_from_characters` directly.
    """
    delta_char = legendre(tm * tm - 4, p)
    plus2_char = legendre(tm + 2, p) if r == 2 else 0
    return chi_valuation_from_characters(tm, p, r, delta_char, plus2_char)


def chi_valuation_by_order(p: int, r: int, delta_char: int, plus2_char: int) -> Optional[int]:
    """v_r(chi) where the group order n = p - delta_char alone fixes it,
    else None (a ladder is needed); delta_char is +-1, and plus2_char is
    ((t + 2)/p) when r = 2.

    chi divides n, so v_r(chi) = 0 for odd r with v_r(n) = 0.  For r = 2, a
    non-square t + 2 gives v_2(chi) = v_2(n) (see
    `chi_valuation_from_characters`); a square t + 2 with v_2(n) = 1 puts D
    among the squares of a cyclic group whose 2-part is 2, a subgroup of
    odd order n/2, so v_2(chi) = 0.  The partition sweep reads this once
    per residue class of p whose characters and n are fixed by the class.
    """
    n = p - delta_char
    if r == 2:
        v = (n & -n).bit_length() - 1
        if plus2_char == -1:
            return v
        return 0 if v == 1 else None
    return None if n % r == 0 else 0


def chi_valuation_from_characters(t, p: int, r: int, delta_char: int, plus2_char: int) -> int:
    """v_r(chi) for t (int or Fraction, p not dividing its denominator),
    given delta_char = ((t**2 - 4)/p) and, when r = 2, plus2_char = ((t + 2)/p).

    delta_char = 0 means t = +-2 mod p and chi = p or 2p.  Otherwise D_t
    lies in a cyclic group of order n = p - delta_char; with m the r-free
    part of n, xi**m has order r**v_r(chi) for the eigenvalue xi of D.
    C_e(t) = xi**e + xi**-e is 2 exactly when xi**e = 1, so v_r(chi) is the
    number of steps y -> C_r(y) that take y = C_m(t) to 2.

    For r = 2 the ladder is often not needed.  When p splits,
    xi = (xi + 1)**2 / (t + 2) in F_p; when it is inert, xi = (xi + 1)**(1 - p)
    and N(xi + 1) = t + 2, and the norm-one power z**(1 - p) is a square of
    the norm-one group exactly when z is a square in F_{p^2}, i.e. when N(z)
    is a square in F_p.  Either way xi is a square in its group exactly
    when ((t + 2)/p) = 1; when it is -1, xi keeps the whole 2-part of the
    group order, so v_2(chi) = v_2(p -+ 1).

    `chi_valuation_by_order` gives every verdict that needs no ladder;
    like the non-square one, they trust the characters, and every path
    that runs the ladder still rejects characters that do not fit t.
    """
    if delta_char == 0:
        tm = residue(t, p)
        return valuation(p if tm == 2 else 2 * p, r)
    j = chi_valuation_by_order(p, r, delta_char, plus2_char)
    if j is not None:
        return j
    m = p - delta_char
    if r == 2:
        v = (m & -m).bit_length() - 1
        m >>= v
    else:
        v = 0
        while m % r == 0:
            m //= r
            v += 1
    y = cheb_c_mod(m, residue(t, p), p)
    for j in range(v + 1):
        if y == 2:
            return j
        # C_2(y) = y**2 - 2 and C_3(y) = y**3 - 3y inline, C_r otherwise by ladder
        y = (y * y - 2) % p if r == 2 else y * (y * y - 3) % p if r == 3 else cheb_c_mod(r, y, p)
    raise ValueError(f"characters ({delta_char}, {plus2_char}) do not fit t = {t} mod {p}")


def index(t, p: int) -> int:
    """The index of appearance chi(t, p): order of D_t mod p.

    Factors p -+ 1 with `primes.factorize`, which answers for every odd
    prime p that `is_prime` decides (below 3.3*10**24); a sweep that needs
    only v_r(chi) calls `chi_valuation` or its kernel instead.
    """
    m = reduce_param(t, p)
    return chi_from_residue(m.t_mod, p)


def index_by_scan(t, p: int) -> int:
    """Reference oracle: linear scan for U_n = 0, U_{n+1} = 1 mod p."""
    m = reduce_param(t, p)
    tm, u, v = m.t_mod, 0, 1
    for n in range(1, 2 * p + 2):
        u, v = v, (tm * v - u) % p
        if u == 0 and v == 1:
            return n
    raise AssertionError(f"no index below 2p+2 for t={t}, p={p}")
