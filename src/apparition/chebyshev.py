"""Chebyshev polynomials U_n, C_n and the odd-index combinations W, V.

Conventions: U_0 = 0, U_1 = 1, U_{n+1} = x*U_n - U_{n-1} (second kind);
C_0 = 2, C_1 = x, same recursion (first kind, trace normalization);
W_{2m+1} = U_{m+1} + U_m and V_{2m+1} = U_{m+1} - U_m.

Modular evaluation uses pair fast-doubling, on (U_n, U_{n+1}) or on
(C_n, C_{n+1}), so the index can be huge (orbit checks need n up to
~10**12); exact evaluation walks the recursion with Fractions and is
meant for small n only.  For an integer t the first steps of every
(C_n, C_{n+1}) ladder give the same integers C_k(t) at every p:
`cheb_c_table` computes them once, and `cheb_c_mod` handed the table
starts its ladder from C_k(t) mod p, k the top bits of the index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Optional

# n/d for coprime n and d > 0, built with no gcd (the constructor is
# private: _from_coprime_ints from Python 3.12, _normalize before)
_coprime_fraction = getattr(Fraction, "_from_coprime_ints", None) or partial(
    Fraction, _normalize=False
)


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


def cheb_c_mod(n: int, x: int, p: int, table: Optional[list] = None) -> int:
    """C_n(x) mod p, even in n, by the (C_k, C_{k+1}) trace ladder:
    C_{2k} = C_k**2 - 2 and C_{2k+1} = C_k*C_{k+1} - x, 2 mults per bit.

    With no table the ladder starts at (C_1, C_2), the leading bit of |n|.
    A table of `cheb_c_table(t)` for an integer t = x mod p, C_0(t) to
    C_{2**w + 1}(t), starts it at (C_k, C_{k+1}) mod p for k the top w
    bits of |n|, or gives C_n mod p itself where |n| <= 2**w + 1.
    """
    n = abs(n)
    x = x % p
    if table is None:
        if n == 0:
            return 2
        a, b, bits = x, (x * x - 2) % p, bin(n)[3:]
    elif n < len(table):
        return table[n] % p
    else:
        w = (len(table) - 2).bit_length() - 1
        k = n >> (n.bit_length() - w)
        a, b, bits = table[k] % p, table[k + 1] % p, bin(n)[2 + w :]
    for bit in bits:
        if bit == "1":
            a, b = (a * b - x) % p, (b * b - 2) % p
        else:
            a, b = (a * a - 2) % p, (a * b - x) % p
    return a


def cheb_c_table(t: int) -> Optional[list]:
    """[C_0(t), ..., C_{2**w + 1}(t)] exactly for an integer t, the start
    of `cheb_c_mod`'s ladder at any p; None where w < 2 (no step saved).

    w is the largest width up to 10 with C_{2**w}(t) within 512 bits:
    past that, reducing two table entries mod p costs more than the
    ladder steps they save.  C_k(t) stays bounded for |t| <= 2, so there
    the cap of 10 alone stops w.
    """
    w, c = 0, t  # c = C_{2**w}(t)
    while w < 10:
        c = c * c - 2  # C_{2m} = C_m**2 - 2
        if c.bit_length() > 512:
            break
        w += 1
    if w < 2:
        return None
    table = [2, t]
    for _ in range(2**w):
        table.append(t * table[-1] - table[-2])
    return table


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
    """[U_0(x), ..., U_n(x)] exactly.

    For x = a/b, U_k = N_k / b**(k-1) with N_0 = 0, N_1 = 1 and
    N_{k+1} = a*N_k - b**2*N_{k-1}, a recurrence on integers.  N_k = a**(k-1)
    mod b is prime to b, so each N_k / b**(k-1) is already in lowest terms
    and is built with no gcd, where Fraction arithmetic would take one per
    step on numbers of about k*bits(b) bits.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    b2 = b * b
    table, prev, cur, scale = [Fraction(0)], 0, 1, 1
    for _ in range(n):
        table.append(_coprime_fraction(cur, scale))
        prev, cur, scale = cur, a * cur - b2 * prev, scale * b
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


def cheb_c_coeffs(m: int) -> list:
    """Integer coefficients of C_m, constant first, for m >= 0."""
    prev, cur = [2], [0, 1]  # C_0, C_1
    for _ in range(m):  # C_{k+1} = x*C_k - C_{k-1}, one degree up
        prev, cur = cur, [a - b for a, b in zip([0] + cur, prev + [0, 0])]
    return prev


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
