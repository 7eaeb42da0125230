"""Taxonomy of rational parameters and the exact density prediction table.

`parameter` is the one gate on the paper's t: it refuses the degenerate
values 0, +-1, +-2 with ExcludedParameter, and every entry point whose
subject is t (classify, the partition sweep, the exact suites) calls it.
`prime_r` is the one gate on the prime r of the valuation partition, for
the prediction, the sweep and the suites that take an r.
A parameter t is classified by the square class
of delta = t**2 - 4 (reducible / circular / cubic), by the r = 2
non-genericity types A and B, by r-primitivity (does C_r(x) = t have a
rational root; for odd r a q-adic lift of the roots decides it without
factoring num(t)) and by the stronger primitivity notions that also
require the associate values to be primitive.  Each supported class
comes with an exact rational density sequence for the partition by the
r-adic valuation of the index; a non-primitive t takes the sequence of a
root, shifted by one level per root, as deep as the roots go.  A
circular t that is not circular-primitive is recognized as a tower by
halving its associate, with no depth limit: each halving takes the
denominator to its square root, so the search ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from typing import Optional

from .chebyshev import lucas_pair_mod
from .errors import ExcludedParameter
from .exactnum import is_square, rth_root
from .primes import is_prime

EXCLUDED = frozenset(Fraction(v) for v in (0, 1, -1, 2, -2))  # the degenerate values of t
_DEFAULT_RS = (2, 3, 5, 7, 11, 13)


def parameter(t) -> Fraction:
    """t as a Fraction; raises ExcludedParameter on 0, +-1, +-2."""
    t = Fraction(t)
    if t in EXCLUDED:
        raise ExcludedParameter(f"t = {t} is excluded")
    return t


def prime_r(r: int) -> int:
    """r itself; raises ValueError unless r is prime."""
    if not is_prime(r):
        raise ValueError(f"r must be prime, got {r}")
    return r


class Genericity(Enum):
    GENERIC = "generic"
    PLUS_SQUARE = "plus-square"    # r = 1 mod 4 and t**2 - 4 = r*b**2
    MINUS_SQUARE = "minus-square"  # r = 3 mod 4 and t**2 - 4 = -r*b**2


@dataclass(frozen=True)
class RFacts:
    primitive: bool
    genericity: Genericity
    scale_root: Optional[Fraction] = None  # b in t**2 - 4 = +-r*b**2


@dataclass
class ParamClass:
    """Full classification record of a rational parameter."""

    t: Fraction
    excluded: bool = False
    reducible: bool = False
    reducible_witness: Optional[Fraction] = None   # a with t**2 - 4 = a**2
    circular: bool = False
    circular_associate: Optional[Fraction] = None  # w with t**2 + w**2 = 4
    cubic: bool = False
    cubic_b: Optional[Fraction] = None             # b with t**2 - 4 = -3*b**2
    cubic_associates: Optional[tuple] = None       # ((-t+3b)/2, (-t-3b)/2)
    type_a: bool = False
    type_b: bool = False
    twin_primitive: bool = False
    cubic_primitive: bool = False
    circular_primitive: bool = False
    two_generic: bool = False


def cheb_preimages(r: int, t) -> list:
    """Rational solutions x of C_r(x) = t, for prime r, ascending.

    For r = 2 this is the square test on 2 + t.  For odd r a reduced root
    c/d forces den(t) = d**r (the numerator of C_r(c/d) is prime to d), so
    the roots are c/d for the integer roots c of
    F(c) = d**r * C_r(c/d) - num(t) = V_r(c, d**2) - num(t),
    V the Lucas sequence V_0 = 2, V_1 = c, V_{k+1} = c*V_k - d**2*V_{k-1};
    F'(c) = r*U_r(c, d**2), and one `lucas_pair_mod` ladder, log2(r)
    steps, gives F and F' mod any modulus, with no coefficient list.  Each
    root has |c| <= bound = 2d + 2**ceil(bits(num t)/r), since |x| <= 2 or
    x = y + 1/y with y**r < |t|.  A multiple root of C_r(x) - t mod q
    needs q | r or t = +-2 mod q, so mod the least odd prime q prime to
    r*(num(t)**2 - 4*d**(2r)) every root of F is simple and lifts to one
    q-adic root, a digit at a time, until the modulus passes 2*bound; the
    lifts that are roots of F (`_is_root`) are the answer, and nothing is
    factored.  t = +-2 has double roots mod every q; there den(t) = 1 and,
    by Niven's theorem, a rational root is +-1 or +-2.
    """
    t = Fraction(t)
    if r == 2:
        sq = is_square(t + 2)
        return sorted({sq.root, -sq.root}) if sq else []
    a = t.numerator
    if abs(t) == 2:
        return [Fraction(c) for c in (-2, -1, 1, 2) if _is_root(r, c, 1, a)]
    d = rth_root(t.denominator, r)
    if d is None:
        return []
    bound = 2 * d + 2 ** -(-a.bit_length() // r)
    q = 3
    while not is_prime(q) or r * (a * a - 4 * t.denominator**2) % q == 0:
        q += 2
    roots = []
    for c in range(q):
        f, df = _lucas_value(r, c, d, a, q)
        if f:
            continue
        inv, m = pow(df, -1, q), q
        while m <= 2 * bound:
            m *= q
            c = (c - _lucas_value(r, c, d, a, m)[0] * inv) % m
        c = c - m if 2 * c > m else c
        if _is_root(r, c, d, a):
            roots.append(Fraction(c, d))
    return sorted(roots)


def _lucas_value(r: int, c: int, d: int, a: int, m: int) -> tuple:
    """(F(c), F'(c)) mod m for F(c) = V_r(c, d**2) - a, by one ladder:
    V_r = 2*U_{r+1} - c*U_r and F' = r*U_r."""
    u, u_next = lucas_pair_mod(c, d * d, r, m)
    return (2 * u_next - c * u - a) % m, r * u % m


def _is_root(r: int, c: int, d: int, a: int) -> bool:
    """F(c) = 0 exactly, read mod an m > 2|F(c)|, and with no evaluation
    where |F(c)| is shown positive by sizes alone.

    The roots psi of z**2 - c*z + d**2 have V_r = psi1**r + psi2**r.  For
    |c| <= 2d they have modulus d, so |V_r| <= 2d**r.  For |c| > 2d they
    are real, with |psi2| < d and |c| - d < |psi1| <= |c|, so |V_r| >
    (|c| - d)**r - d**r, and |c| - d >= 2: once r*(bits(|c| - d) - 1)
    reaches bits(|a| + d**r), |V_r| > |a|.  Short of that, r < B =
    bits(|a| + d**r) and bits(|c|) <= 2*bits(|c| - d) - 1, so m has at
    most 4B + 3 bits.
    """
    den = d**r
    if abs(c) <= 2 * d:
        m = 4 * den + 2 * abs(a) + 1
    elif r * ((abs(c) - d).bit_length() - 1) >= (abs(a) + den).bit_length():
        return False
    else:
        m = 1 << (r * abs(c).bit_length() + abs(a).bit_length() + 3)
    return _lucas_value(r, c, d, a, m)[0] == 0


def r_primitive(t, r: int) -> bool:
    """No rational solution of C_r(x) = t."""
    return not cheb_preimages(r, t)


def r_facts(t, r: int) -> RFacts:
    """r-primitivity plus the +-r-square genericity class (odd r only)."""
    t = Fraction(t)
    primitive = r_primitive(t, r)
    if r == 2:
        return RFacts(primitive, Genericity.GENERIC)
    delta = t * t - 4
    sign = 1 if r % 4 == 1 else -1
    sq = is_square(delta / (sign * r))
    if sq:
        kind = Genericity.PLUS_SQUARE if sign == 1 else Genericity.MINUS_SQUARE
        return RFacts(primitive, kind, sq.root)
    return RFacts(primitive, Genericity.GENERIC)


def classify(t) -> ParamClass:
    """Classify t exactly; raises ExcludedParameter on 0, +-1, +-2.

    The per-r facts are left to `r_facts(t, r)`, for the r a caller reads.
    """
    t = parameter(t)
    delta = t * t - 4
    out = ParamClass(t=t)

    red = is_square(delta)
    if red:
        out.reducible = True
        out.reducible_witness = red.root
    circ = is_square(-delta)
    if circ:
        out.circular = True
        out.circular_associate = circ.root
    cub = is_square(delta / -3)
    if cub:
        b = cub.root
        out.cubic = True
        out.cubic_b = b
        out.cubic_associates = ((-t + 3 * b) / 2, (-t - 3 * b) / 2)

    plus = is_square(2 + t)
    minus = is_square(2 - t)
    dbl_plus = is_square(2 * (2 + t))
    dbl_minus = is_square(2 * (2 - t))
    dbl_delta = is_square(2 * (4 - t * t))
    plain_rational = bool(plus) or bool(minus) or bool(circ)

    out.type_a = (bool(dbl_plus) or bool(dbl_minus)) and not plain_rational
    out.type_b = bool(dbl_delta) and not plain_rational
    out.twin_primitive = not plus and not minus
    out.two_generic = not (plain_rational or dbl_plus or dbl_minus or dbl_delta)
    if out.cubic:
        a1, a2 = out.cubic_associates
        out.cubic_primitive = all(r_primitive(v, 3) for v in (t, a1, a2))
    out.circular_primitive = out.circular and not plus and not dbl_plus
    return out


# ---------------------------------------------------------------------------
# circular tower recognition: v = w_k after k doubling steps
# ---------------------------------------------------------------------------


def circular_tower_depth(t) -> Optional[int]:
    """Depth k >= 1 if t arises as the w-side of k squarings of a
    circular-primitive pair (t0, w0), else None.

    The search inverts t_j = t_{j-1}**2 - 2, w_j = t_{j-1} * w_{j-1}:
    halve the non-primitive side of the pair while 2 +- x is a rational
    square, and accept when both sides of the pair become 2-primitive.
    For circular values the 2-primitivity test is sign-independent
    because (2 + x)(2 - x) is the square of the associate.

    The search ends with no depth limit.  It starts at x = sqrt(4 - t**2)
    and visits only square roots of 2 +- x, so every x lies in [0, 2].
    For a reduced x = c/d, 2 +- x = (2d +- c)/d is reduced too, so a
    rational root has denominator sqrt(d): each halving takes den(x) to
    its square root, and a chain from den(x) > 1 ends within about
    log2(log2(den x)) + 1 steps.  At den(x) = 1, x = 0 stops at once, and
    x = 1 and x = 2 are fixed points, reached only from themselves, that
    is from t**2 = 3 (no rational t) or from t = 0, which returns None
    at once.  At most two branches are taken per level.
    """
    t = Fraction(t)
    sq = is_square(4 - t * t)
    if t == 0 or not sq:
        return None
    return _tower_search(sq.root, t, 0)


def _tower_search(x, y, depth: int) -> Optional[int]:
    s_plus = is_square(2 + x)
    s_minus = is_square(2 - x)
    if not s_plus and not s_minus:
        # x is 2-primitive; accept iff the w-side is too and we halved at all
        if depth >= 1 and not is_square(2 + y) and not is_square(2 - y):
            return depth
        return None
    for s in (s_plus, s_minus):
        if s and s.root != 0:
            found = _tower_search(s.root, y / s.root, depth + 1)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# exact density predictions
# ---------------------------------------------------------------------------


@dataclass
class Prediction:
    """Exact density sequence for the r-adic valuation partition of chi.

    densities[j] is the predicted prime density of {p : r^j || chi(t, p)}
    for j = 0..j_max; beyond geo_start the sequence is geometric with
    ratio 1/r, and the total mass (with the geometric tail) is exactly 1.
    """

    r: int
    j_max: int
    densities: list
    geo_start: int
    source: str
    conjectural: bool = False
    supported: bool = True
    _full: list = field(default_factory=list, repr=False)

    def total_mass(self) -> Fraction:
        if not self.supported:
            raise ValueError("unsupported prediction has no mass")
        return sum(self._full) + self._full[-1] / (self.r - 1)


def _unsupported(r: int, j_max: int, source: str = "unsupported") -> Prediction:
    return Prediction(
        r=r, j_max=j_max, densities=[], geo_start=0, source=source, supported=False
    )


def _from_full(full, r, j_max, geo_start, source, conjectural=False) -> Prediction:
    while len(full) < max(j_max + 1, geo_start + 1) + 1:
        full.append(full[-1] / r)
    return Prediction(
        r=r, j_max=j_max, densities=full[: j_max + 1], geo_start=geo_start,
        source=source, conjectural=conjectural, _full=full,
    )


def _geometric(r, j_max, weight, source) -> Prediction:
    """d_0 = 1 - weight*r/(r**2-1), d_j = weight/((r+1) r**(j-1)); weight 1 or 2."""
    full = [1 - Fraction(weight * r, r * r - 1)]
    for j in range(1, max(j_max, 1) + 1):
        full.append(Fraction(weight, (r + 1) * r ** (j - 1)))
    return _from_full(full, r, j_max, 1, source)


def _stated(r, j_max, head, source, conjectural=False) -> Prediction:
    """Theorem-stated head values; the tail is geometric and carries the
    remaining mass, so its first value is (1 - sum(head)) * (r-1)/r."""
    full = list(head)
    full.append((1 - sum(head)) * Fraction(r - 1, r))
    return _from_full(full, r, j_max, len(head), source, conjectural)


def predicted_densities(c: ParamClass, r: int, j_max: int) -> Prediction:
    """Exact density prediction for the valuation partition of chi(t, p).

    Unsupported parameters yield a record with supported=False rather
    than an exception; the circular tower case is flagged conjectural.
    """
    prime_r(r)
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    return _predict(c, r, j_max)


def _predict(c: ParamClass, r: int, j_max: int) -> Prediction:
    facts = r_facts(c.t, r)

    if not facts.primitive:
        # den(t) = den(u)**r, and an integer u outside EXCLUDED has
        # |C_r(u)| > |u|: each shift lowers den, or |num| at den 1, so the
        # chain of shifts ends
        for u in cheb_preimages(r, c.t):
            if u in EXCLUDED:
                continue
            sub = _predict(classify(u), r, j_max + 1)
            if sub.supported:
                full = list(sub._full)
                full = [full[0] + full[1]] + full[2:]
                geo = max(sub.geo_start - 1, 1)
                return _from_full(
                    full, r, j_max, geo, f"root-shift({u})->{sub.source}", sub.conjectural
                )
        return _unsupported(r, j_max, "no-supported-root")

    if r == 2:
        if c.two_generic:
            return _geometric(2, j_max, 1, "two-generic")
        if c.type_a:
            head = [Fraction(7, 24), Fraction(7, 24), Fraction(1, 3)]
            return _stated(2, j_max, head, "type-a")
        if c.type_b:
            head = [Fraction(7, 24), Fraction(7, 24), Fraction(1, 12)]
            return _stated(2, j_max, head, "type-b")
        if c.circular_primitive:
            return _stated(2, j_max, [Fraction(1, 6), Fraction(1, 6)], "circular-primitive")
        if c.circular:
            k = circular_tower_depth(c.t)
            if k is not None:
                lowest = Fraction(1, 3 * 2 ** (k + 1))
                head = [lowest, lowest, 1 - Fraction(1, 3 * 2 ** (k - 1))]
                return _stated(2, j_max, head, f"circular-tower(k={k})", conjectural=True)
            return _unsupported(2, j_max, "circular-tower-unrecognized")
        return _unsupported(2, j_max, "no-two-adic-rule")

    if facts.genericity is Genericity.GENERIC:
        return _geometric(r, j_max, 1, "generic")
    if facts.genericity is Genericity.PLUS_SQUARE:
        # the plus-square case keeps the generic density values
        return _geometric(r, j_max, 1, "plus-square")
    # minus-square: doubled densities; for r = 3 only under cubic primitivity
    if r == 3:
        if c.cubic and c.cubic_primitive:
            return _geometric(3, j_max, 2, "cubic-primitive")
        return _unsupported(3, j_max, "cubic-not-primitive")
    return _geometric(r, j_max, 2, "minus-square")


def to_json_dict(c: ParamClass) -> dict:
    """JSON-ready view of a classification (rationals as "a/b" strings):
    the fields of ParamClass in order, then the per-r facts of each r in
    _DEFAULT_RS."""

    def fmt(v):
        if v is None or isinstance(v, bool):
            return v
        if isinstance(v, tuple):
            return [str(a) for a in v]
        return str(v)

    def facts(r):
        f = r_facts(c.t, r)
        return {
            "primitive": f.primitive,
            "genericity": f.genericity.value,
            "scale_root": fmt(f.scale_root),
        }

    doc = {f.name: fmt(getattr(c, f.name)) for f in fields(ParamClass)}
    doc["per_r"] = {str(r): facts(r) for r in _DEFAULT_RS}
    return doc
