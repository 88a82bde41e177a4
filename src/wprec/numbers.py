"""Exact integer sequences used throughout the recursions.

Double factorials, Bernoulli and Euler numbers are served from memoized
growing tables, which only ever grow by appending the next entry. The
package starts no threads, so the tables take no lock.
Everything returns ints or Fractions, never floats. moduli_dim is the one
stability and dimension gate that every route applies, descending the one
canonical psi form; both live here, in the one module that every route
imports, so that no route has to import another.

add_ratio is the arithmetic under the hot kernels of every route: a kernel
adds its terms as an unreduced integer pair (numerator, denominator) and
builds one normalised Fraction when its evaluation ends, so the gcds of a
Fraction are paid once per evaluation instead of once per term.
"""

from __future__ import annotations

import math
from fractions import Fraction

# _DFACT[k + 1] == k!!, seeded with (-1)!! = 0!! = 1.
_DFACT: list[int] = [1, 1]


def double_factorial(k: int) -> int:
    """k!! for k >= -1, with (-1)!! = 0!! = 1."""
    if k < -1:
        # Must be checked before the table lookup: _DFACT[k + 1] with
        # k <= -2 would silently index from the end of the list.
        raise ValueError(f"double factorial undefined for {k}")
    while k + 1 >= len(_DFACT):
        n = len(_DFACT) - 1
        _DFACT.append(n * _DFACT[n - 1])
    return _DFACT[k + 1]


def moduli_dim(genus: int, n: int) -> int:
    """3g - 3 + n for a stable (g, n), that is 2g - 2 + n > 0; else -1.

    Degrees are nonnegative, so ``degree != moduli_dim(g, n)`` alone says
    a class vanishes: the signature is unstable or off-dimension.
    """
    if 2 * genus - 2 + n > 0:
        return 3 * genus - 3 + n
    return -1


def descending(psi) -> tuple[int, ...]:
    """The psi exponents sorted descending, after rejecting a negative one."""
    exps = tuple(sorted(psi, reverse=True))
    if exps and exps[-1] < 0:
        raise ValueError(f"negative psi exponent in {exps}")
    return exps


def add_ratio(num: int, den: int, xn: int, xd: int) -> tuple[int, int]:
    """num/den + xn/xd as an unreduced pair over lcm(den, xd).

    Both denominators must be positive. Equal denominators, the common case
    inside one sum, cost one integer addition.
    """
    if den == xd:
        return num + xn, den
    g = math.gcd(den, xd)
    if g == 1:
        return num * xd + xn * den, den * xd
    step = xd // g
    return num * step + xn * (den // g), den * step


_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (B_1 = -1/2 convention).

    Defined by sum_{i=0}^{m} C(m+1, i) B_i = 0 for m >= 1. Odd m >= 3 are
    exactly zero and rejected here so a misuse is loud rather than silent.
    """
    if m < 0:
        raise ValueError(f"Bernoulli number undefined for {m}")
    if m >= 3 and m % 2 == 1:
        raise ValueError(f"odd Bernoulli numbers vanish; refusing B_{m}")
    while m >= len(_BERNOULLI):
        j = len(_BERNOULLI)
        acc = Fraction(0)
        for i in range(j):
            acc += math.comb(j + 1, i) * _BERNOULLI[i]
        _BERNOULLI.append(-acc / (j + 1))
    return _BERNOULLI[m]


_EULER: list[int] = [1]


def euler_number(n: int) -> int:
    """Secant number E_{2n} (|E_0|, |E_2|, ... = 1, 1, 5, 61, 1385, ...).

    Returned unsigned, via E_n = sum_{j=1}^{n} (-1)^(j+1) C(2n, 2j) E_{n-j}.
    """
    if n < 0:
        raise ValueError(f"Euler number index must be >= 0, got {n}")
    while n >= len(_EULER):
        m = len(_EULER)
        acc = 0
        for j in range(1, m + 1):
            term = math.comb(2 * m, 2 * j) * _EULER[m - j]
            acc += term if j % 2 == 1 else -term
        _EULER.append(acc)
    return _EULER[n]
