"""Chebyshev polynomials U_n, C_n and the odd-index combinations W, V.

Conventions: U_0 = 0, U_1 = 1, U_{n+1} = x*U_n - U_{n-1} (second kind);
C_0 = 2, C_1 = x, same recursion (first kind, trace normalization);
W_{2m+1} = U_{m+1} + U_m and V_{2m+1} = U_{m+1} - U_m.

Modular evaluation uses pair fast-doubling so the index can be huge
(orbit checks need n up to ~10**12); exact evaluation walks the
recursion with Fractions and is meant for small n only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import Rational

EXACT_SUITE_CAP = 60  # identity checks need n_max**2 exact values


def lucas_pair_mod(T: int, Q: int, n: int, p: int):
    """(L_n, L_{n+1}) mod p by fast doubling, for L_{k+1} = T*L_k - Q*L_{k-1},
    L_0 = 0, L_1 = 1, n >= 0.  Q = 1 gives (U_n(T), U_{n+1}(T))."""
    a, b = 0, 1
    T, Q = T % p, Q % p
    for bit in bin(n)[2:]:
        dbl = a * (2 * b - T * a) % p  # L_{2k} = L_k * (2 L_{k+1} - T L_k)
        odd = (b * b - Q * a * a) % p  # L_{2k+1}
        if bit == "1":
            a, b = odd, (T * odd - Q * dbl) % p
        else:
            a, b = dbl, odd
    return a, b


def cheb_u_mod(n: int, x: int, p: int) -> int:
    """U_n(x) mod p; negative n via U_{-n} = -U_n."""
    if n < 0:
        return (-cheb_u_mod(-n, x, p)) % p
    return lucas_pair_mod(x, 1, n, p)[0]


def cheb_c_mod(n: int, x: int, p: int) -> int:
    """C_n(x) mod p; C_n = 2*U_{n+1} - x*U_n, even in n."""
    x = x % p
    a, b = lucas_pair_mod(x, 1, abs(n), p)
    return (2 * b - x * a) % p


def cheb_w_mod(m: int, x: int, p: int) -> int:
    """W_{2m+1}(x) mod p; m >= 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    a, b = lucas_pair_mod(x, 1, m, p)
    return (a + b) % p


def cheb_v_mod(m: int, x: int, p: int) -> int:
    """V_{2m+1}(x) mod p; m >= 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    a, b = lucas_pair_mod(x, 1, m, p)
    return (b - a) % p


def u_table_exact(x, n: int) -> list:
    """[U_0(x), ..., U_n(x)] exactly."""
    x = Fraction(x)
    table = [Fraction(0), Fraction(1)]
    for _ in range(n - 1):
        table.append(x * table[-1] - table[-2])
    return table[: n + 1]


def cheb_u_exact(n: int, x) -> Fraction:
    if n < 0:
        return -cheb_u_exact(-n, x)
    return u_table_exact(x, max(n, 1))[n]


def cheb_c_exact(n: int, x) -> Fraction:
    n = abs(n)
    if n == 0:
        return Fraction(2)
    t = u_table_exact(x, n + 1)
    return t[n + 1] - t[n - 1]


def cheb_w_exact(m: int, x) -> Fraction:
    t = u_table_exact(x, m + 1)
    return t[m + 1] + t[m]


def cheb_v_exact(m: int, x) -> Fraction:
    t = u_table_exact(x, m + 1)
    return t[m + 1] - t[m]


def lucas_lift(t) -> tuple:
    """Integer (T, Q) with t = (T**2 - 2Q)/Q, via T = a + 2b for t = a/b.

    Then Delta = T**2 - 4Q = b**2 * (t**2 - 4), so the lift realizes any
    rational t != -2 as a Lucas-sequence parameter pair.
    """
    t = Fraction(t)
    T = t.numerator + 2 * t.denominator
    if T == 0:
        raise ValueError("t = -2 has no Lucas lift of this form")
    return T, t.denominator * T


@dataclass
class IdentityReport:
    """Outcome of the exact identity suite; failures capped at 50."""

    t: Rational
    n_max: int
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def _record(self, name: str, where: tuple, lhs, rhs) -> None:
        self.checked += 1
        if lhs != rhs and len(self.failures) < 50:
            self.failures.append((name, where, lhs, rhs))


def identity_suite(t, n_max: int = 30) -> IdentityReport:
    """Verify the product/square identities exactly for indices <= n_max.

    Covered: the Lucas-square identity C_n(t) - 2 = (Delta/Q**n) L_n**2
    for the canonical lift (T, Q); the Pell-type identity
    C_s**2 - (t**2-4) U_s**2 = 4; the factorizations U_{2m+1} = W*V and
    U_{2m} = C_m * U_m; and the composition rule U_{mn} = U_m(C_n) * U_n.
    """
    if n_max > EXACT_SUITE_CAP:
        raise ValueError(f"n_max capped at {EXACT_SUITE_CAP}")
    t = Fraction(t)
    rep = IdentityReport(t=t, n_max=n_max)

    u = u_table_exact(t, n_max * n_max + 1)

    def c(k):
        return u[k + 1] - u[k - 1] if k >= 1 else Fraction(2)

    T, Q = lucas_lift(t)
    delta_lift = T * T - 4 * Q
    lucas = [0, 1]
    for _ in range(n_max - 1):
        lucas.append(T * lucas[-1] - Q * lucas[-2])
    for n in range(1, n_max + 1):
        rep._record(
            "lucas-square", (n,), c(n) - 2, Fraction(delta_lift, Q**n) * lucas[n] ** 2
        )
    for s in range(1, n_max + 1):
        rep._record("pell", (s,), c(s) ** 2 - (t * t - 4) * u[s] ** 2, Fraction(4))
    for m in range(1, n_max + 1):
        rep._record(
            "odd-split", (m,), u[2 * m + 1], (u[m + 1] + u[m]) * (u[m + 1] - u[m])
        )
        rep._record("even-split", (m,), u[2 * m], c(m) * u[m])
    for m in range(1, n_max + 1):
        for n in range(1, n_max + 1):
            rep._record(
                "composition", (m, n), u[m * n], cheb_u_exact(m, c(n)) * u[n]
            )
    return rep
