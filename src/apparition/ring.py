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
multiplications per bit, serves the chi kernels, and for an integer t
the v_r(chi) reader hands it one table of exact C_k(t), built once, from
which every ladder starts at the top bits of its index.

`ChiValuation(t, r)` is the one v_r(chi) reader, built once per
parameter, and it factors nothing: called on p, it reads the character
of delta (which group) and, for r = 2, that of t + 2 (whether D is a
square in it) by Euler's criterion; its `at(p, delta_char, plus2_char)`
takes characters the caller already holds.  It applies the t = +-2 mod p
case, then the no-ladder rule, and, where the rule leaves v_r(chi) open,
the ladder.  The rule is `chi_valuation_by_order`: r does not divide
p -+ 1, or r = 2 with t + 2 a non-square or the 2-part of p -+ 1 equal
to 2.  The ladder is the kernel `chi_valuations_by_ladder`, which buckets
a run of primes sharing their characters: per prime it splits off the
r-part of p -+ 1 and then runs the trace ladder on t mod p, or, for a
reducible t = xi + 1/xi with xi rational (chi(t, p) is then the order of
xi mod p), builtin pow on xi mod p, while what the run shares is settled
once.  Only the reader's `walk` calls it: with the one prime of `at`, a
residue class of the partition sweep's class pass, or one character
pair's ladder primes from a segment of its per-prime loop.  The
partition sweep and the exact suites that need only v_r(chi) read
v_r(chi) through a reader.
`chi_from_residue` gives chi itself, by factoring p -+ 1; the exact suites
that need chi itself call it on `residue(t, p)` at primes their sieve has
already vouched for.  `chi_with_primes` gives chi together with the
primes of p -+ 1 that divide it, for the bridge suite's rank certificate.
`index` is the validating entry point of the CLI and library callers: it
checks that p is an odd prime and reduces t with `reduce_param` first.
For a reducible t it hands `chi_with_primes` xi mod p as well, and the
one divide-out loop there tests xi**e = 1 by builtin pow in place of
C_e(t) = 2 by the trace ladder.  `_eigenvalue` is the one reducibility
rule, which `index` and `ChiValuation` share.
`ModParam.from_residue` is the unvalidated constructor that
`reduce_param` and the suites share, and `group_order` and
`chi_with_primes` share one order rule on residues.

Residues live in [0, p); p = 2 is rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .chebyshev import cheb_c_mod, cheb_c_table, lucas_pair_mod
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


def chi_from_residue(tm: int, p: int, xi: Optional[int] = None) -> int:
    """chi for the residue tm = t mod p, by factoring the group order:
    the chi of `chi_with_primes`."""
    return chi_with_primes(tm, p, xi)[0]


def chi_with_primes(tm: int, p: int, xi: Optional[int] = None) -> tuple:
    """(chi, the primes dividing chi, ascending) for the residue tm = t mod p.

    Away from delta = 0, chi divides the group order n = p -+ 1.  With xi
    an eigenvalue of D, C_e(t) - 2 = (xi**e - 1)**2 / xi**e, so D**e = I
    exactly when C_e(t) = 2, whether xi lies in F_p (split) or in F_{p^2}
    (inert): primes are divided out of n while the trace stays 2, with
    no square root, and the primes of n that are left divide chi.  A
    caller that holds xi mod p, for a reducible t = xi + 1/xi (where n is
    p - 1), passes it, and the same loop tests xi**e = 1 by builtin pow.
    """
    d = (tm * tm - 4) % p
    o = _group_order(tm, d, p)
    if d == 0:  # chi = p or 2p
        return o, [p] if o == p else [2, p]
    kept = []
    for q in distinct_prime_factors(o):
        while o % q == 0 and (
            cheb_c_mod(o // q, tm, p) == 2 if xi is None else pow(xi, o // q, p) == 1
        ):
            o //= q
        if o % q == 0:
            kept.append(q)
    return o, kept


def _eigenvalue(t) -> Optional[Fraction]:
    """xi with t = xi + 1/xi when t**2 - 4 is the square of a nonzero
    rational (t is reducible: D_t has the eigenvalues xi and 1/xi in Q),
    else None; t is a rational or an int."""
    a, b = t.numerator, t.denominator
    disc = a * a - 4 * b * b  # t**2 - 4 = disc / b**2
    root = isqrt(disc) if disc > 0 else -1
    return Fraction(a + root, 2 * b) if root * root == disc else None


class ChiValuation:
    """The v_r(chi(t, p)) reader of one parameter t and one prime r: built
    once, then called at any odd prime p not dividing den(t), with nothing
    factored.

    t is a rational a/b or an int residue.  With disc = a**2 - 4b**2 and
    plus2 = (a + 2b)*b, ((t**2 - 4)/p) = (disc/p) and ((t + 2)/p) =
    (plus2/p).  Calling the reader on p reads both characters by Euler's
    criterion and hands them to `at(p, delta_char, plus2_char)`, which a
    caller that holds them already calls directly.  `at` applies:

    - the +-2 case: a delta_char of 0 means t = +-2 mod p, and chi = p,
      or 2p where p | plus2 (t = -2 mod p);
    - then the no-ladder rule `chi_valuation_by_order`;
    - then, where the rule leaves v_r(chi) open, `walk` of the one prime
      p, with modulus 1.

    `walk(ps, p0, modulus, delta_char, plus2_char, counts)` buckets
    primes that share the characters given and lie in the residue class
    p0 mod modulus, with one call of the ladder kernel
    `chi_valuations_by_ladder` and no rule first: for plus2_char = -1 the
    kernel buckets the rule's v_2(p - delta_char).  The kernel reduces x
    = num/den mod p.  x is t, or, for a reducible t = xi + 1/xi (disc a
    square), xi, whose powers builtin pow takes.  num(xi) * den(xi) =
    +-b, so xi is a unit at every admissible p, and it is taken as an
    integer when xi or 1/xi is one.  Where den divides the modulus (always
    so for den = 1) the class fixes p mod den, and the inverse of den is
    hoisted out of the kernel's loop (see there); modulus 1 fixes no
    class mod den > 1.  For an integer t that is not reducible the reader
    builds `chebyshev.cheb_c_table(t)` once, and the kernel's C_m ladder
    starts from it at every p.
    """

    def __init__(self, t, r: int):
        a, b = t.numerator, t.denominator
        self.r, self.disc, self.plus2 = r, a * a - 4 * b * b, (a + 2 * b) * b
        xi = _eigenvalue(t)
        self.reducible = xi is not None
        if self.reducible and xi.denominator != 1 and abs(xi.numerator) == 1:
            xi = 1 / xi  # an integer, with no inverse to take per prime
        x = xi if self.reducible else t  # the rational the ladder reduces mod p
        self.num, self.den = x.numerator, x.denominator
        # exact C_k(t), the start of every C_m(t) ladder at any p
        self.table = cheb_c_table(a) if b == 1 and not self.reducible else None

    def __call__(self, p: int) -> int:
        return self.at(p, legendre(self.disc, p), legendre(self.plus2, p) if self.r == 2 else 0)

    def at(self, p: int, delta_char: int, plus2_char: int) -> int:
        """v_r(chi) at p, whose characters are given."""
        if delta_char == 0:
            return valuation(2 * p if self.plus2 % p == 0 else p, self.r)
        j = chi_valuation_by_order(p, self.r, delta_char, plus2_char)
        if j is not None:
            return j
        counts = [0] * (p.bit_length() + 1)  # v_r(p - delta_char) <= log2(p + 1)
        self.walk((p,), 1, 1, delta_char, plus2_char, counts)
        return counts.index(1)

    def walk(self, ps, p0: int, modulus: int, delta_char: int, plus2_char: int, counts: list) -> None:
        """Add v_r(chi) at each prime of ps, all = p0 mod modulus and
        sharing the characters given, to counts (the last slot takes every
        larger j), by one kernel call."""
        num, den = self.num, self.den
        # (1 + k*p)/den is the inverse of den mod p for k = -p**-1 mod den,
        # which the class fixes when den | modulus
        lift = num * (-pow(p0, -1, den) % den) if modulus % den == 0 else None
        chi_valuations_by_ladder(
            ps, self.r, delta_char, plus2_char, self.reducible, num, den, lift, counts, self.table
        )


def chi_valuation_by_order(p: int, r: int, delta_char: int, plus2_char: int) -> Optional[int]:
    """v_r(chi) where the group order n = p - delta_char alone fixes it,
    else None (a ladder is needed); delta_char is +-1, and plus2_char is
    ((t + 2)/p) when r = 2.  The verdicts trust the characters.

    chi divides n, so v_r(chi) = 0 for odd r with v_r(n) = 0.  For r = 2
    the character of t + 2 says whether the eigenvalue xi of D is a square
    in its cyclic group.  When p splits, xi = (xi + 1)**2 / (t + 2) in F_p;
    when it is inert, xi = (xi + 1)**(1 - p) and N(xi + 1) = t + 2, and the
    norm-one power z**(1 - p) is a square of the norm-one group exactly
    when z is a square in F_{p^2}, i.e. when N(z) is a square in F_p.
    Either way xi is a square exactly when ((t + 2)/p) = 1.  A non-square
    xi keeps the whole 2-part of n, so v_2(chi) = v_2(n); a square xi with
    v_2(n) = 1 lies in the subgroup of odd order n/2, so v_2(chi) = 0.
    The partition sweep reads this once per residue class of p whose
    characters and n are fixed by the class.
    """
    n = p - delta_char
    if r == 2:
        v = (n & -n).bit_length() - 1
        if plus2_char == -1:
            return v
        return 0 if v == 1 else None
    return None if n % r == 0 else 0


def chi_valuations_by_ladder(
    ps, r: int, delta_char: int, plus2_char: int, reducible: bool,
    num: int, den: int, lift: Optional[int], counts: list, table: Optional[list] = None,
) -> None:
    """Add v_r(chi) at each prime p of ps to counts (the last slot takes
    every larger j): the ladder kernel, for primes that share delta_char =
    ((t**2 - 4)/p) = +-1 and, for r = 2, plus2_char = ((t + 2)/p).

    The ladder runs on x = num/den mod p: t mod p, or, for a reducible t =
    xi + 1/xi, xi mod p.  D_t lies in a cyclic group of order n = p -
    delta_char; with m the r-free part of n, xi**m has order r**v_r(chi)
    for the eigenvalue xi of D, so v_r(chi) is the number of r-th powers
    that take xi**m to 1.  For a reducible t, xi is x itself, in F_p
    (delta_char = 1), and builtin pow takes the powers.  For any other t
    the trace does: C_e(t) = xi**e + xi**-e is 2 exactly when xi**e = 1,
    so v_r(chi) is the number of steps y -> C_r(y) that take y = C_m(t)
    (`cheb_c_mod`, the one trace ladder) to 2.  The C_m ladder starts
    from table, a `chebyshev.cheb_c_table` of an integer t, where the
    caller has one; the steps y -> C_r(y) take none, as y is not t.  A
    delta_char that does not fit x, or an x that is no unit, never gets
    there within v_r(n) steps and raises ValueError.

    With plus2_char = -1 (r = 2), t + 2 is a non-square: each prime is
    bucketed by v_2(n), the verdict of `chi_valuation_by_order`, as soon
    as the loop has split it off, and no ladder runs.  What every prime
    shares is settled once, outside the loop: r = 2 or odd r, reducible
    or not, and the inverse of den, where every p of ps lies in one class
    mod den: the caller then passes lift = num*k for k = -p**-1 mod den,
    and x = (num + lift*p)/den exactly, with no pow per prime; otherwise
    lift is None and x takes pow(den, -1, p).
    """
    top = len(counts) - 1
    one = 1 if reducible else 2  # xi**e = 1, or C_e(t) = 2
    halving = r == 2
    for p in ps:
        m = p - delta_char
        if halving:
            v = (m & -m).bit_length() - 1
            if plus2_char == -1:  # t + 2 a non-square: the rule's v_2(chi) = v
                counts[v if v < top else top] += 1
                continue
            m >>= v
        else:
            v = 0
            while m % r == 0:
                m //= r
                v += 1
        x = (num + lift * p) // den % p if lift is not None else num * pow(den, -1, p) % p
        y = pow(x, m, p) if reducible else cheb_c_mod(m, x, p, table)
        j = 0
        while y != one:
            if j == v:
                raise ValueError(
                    f"characters do not fit x = {x} mod {p}: delta character {delta_char}"
                )
            j += 1
            if reducible:
                y = y * y % p if halving else pow(y, r, p)
            elif halving:  # C_2(y) = y**2 - 2 and C_3(y) = y**3 - 3y inline, C_r otherwise by ladder
                y = (y * y - 2) % p
            else:
                y = y * (y * y - 3) % p if r == 3 else cheb_c_mod(r, y, p)
        counts[j if j < top else top] += 1


def index(t, p: int) -> int:
    """The index of appearance chi(t, p): order of D_t mod p.

    Factors p -+ 1 with `primes.factorize`, which answers for every odd
    prime p that `is_prime` decides (below 3.3*10**24), and divides its
    primes out by the trace ladder, or, for a reducible t = xi + 1/xi, by
    builtin pow on xi mod p (the `_eigenvalue` rule that `ChiValuation`
    shares).  A caller that needs only v_r(chi) reads it with a
    `ChiValuation` instead.
    """
    m = reduce_param(t, p)
    xi = _eigenvalue(Fraction(t))
    return chi_from_residue(m.t_mod, p, None if xi is None else residue(xi, p))


def index_by_scan(t, p: int) -> int:
    """Reference oracle: linear scan for U_n = 0, U_{n+1} = 1 mod p."""
    m = reduce_param(t, p)
    tm, u, v = m.t_mod, 0, 1
    for n in range(1, 2 * p + 2):
        u, v = v, (tm * v - u) % p
        if u == 0 and v == 1:
            return n
    raise AssertionError(f"no index below 2p+2 for t={t}, p={p}")
