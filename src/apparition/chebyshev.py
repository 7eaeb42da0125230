"""Chebyshev polynomials U_n, C_n and the odd-index combinations W, V.

Conventions: U_0 = 0, U_1 = 1, U_{n+1} = x*U_n - U_{n-1} (second kind);
C_0 = 2, C_1 = x, same recursion (first kind, trace normalization);
W_{2m+1} = U_{m+1} + U_m and V_{2m+1} = U_{m+1} - U_m.

Modular evaluation uses pair fast-doubling, on (U_n, U_{n+1}) or on
(C_n, C_{n+1}), so the index can be huge (orbit checks need n up to
~10**12); exact evaluation walks the recursion with Fractions and is
meant for small n only.
"""

from __future__ import annotations

from fractions import Fraction


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
    """C_n(x) mod p, even in n, by the (C_k, C_{k+1}) trace ladder:
    C_{2k} = C_k**2 - 2 and C_{2k+1} = C_k*C_{k+1} - x, 2 mults per bit."""
    x = x % p
    a, b = 2, x
    for bit in bin(abs(n))[2:]:
        if bit == "1":
            a, b = (a * b - x) % p, (b * b - 2) % p
        else:
            a, b = (a * a - 2) % p, (a * b - x) % p
    return a


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
