"""Universal coefficient tables for the mixed-class recursions.

Three rational families, one per recursion flavour, all defined by the same
triangular convolution: the table value at b is fixed by requiring

    sum over L + L' = b of (-1)^length(L) c_L / (L! L'! D(weight(L')))  =  0

for b != 0, with c_0 = 1. They differ only in the denominator sequence D:
odd double factorials (2w+1)!! for the main pivot recursion, (2w-1)!! and
w! for the two flavours of direct Hodge pairing recursion. Single-row
values tie out against classical sequences (Bernoulli and secant numbers);
the tests hold those closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable

from .multiindex import ZERO, MultiIndex, indices_of_weight, splits2
from .numbers import double_factorial


class ConstantTable:
    """Memoized solver for one denominator flavour of the convolution."""

    def __init__(self, kind: str, denom: Callable[[int], int]):
        self.kind = kind
        self.denom = denom
        self._values: dict[MultiIndex, Fraction] = {ZERO: Fraction(1)}

    def value(self, b: MultiIndex) -> Fraction:
        known = self._values.get(b)
        if known is not None:
            return known
        # Solve the b-th convolution row for the L = b term. Its own
        # coefficient is (-1)^length(b) / b!, every other term has L
        # strictly contained in b, so the recursion terminates.
        acc = Fraction(0)
        for left, right, _ in splits2(b):
            if not right:
                continue
            sign = -1 if left.length % 2 else 1
            acc += (
                sign
                * self.value(left)
                / (left.factorial() * right.factorial() * self.denom(right.weight))
            )
        sign_b = -1 if b.length % 2 else 1
        result = -sign_b * b.factorial() * acc
        return self._values.setdefault(b, result)


ALPHA = ConstantTable("alpha", lambda w: double_factorial(2 * w + 1))
GAMMA_ODD = ConstantTable("gamma_odd", lambda w: double_factorial(2 * w - 1))
GAMMA_FACT = ConstantTable("gamma_fact", factorial)


def shift_polynomial(k: int) -> dict[MultiIndex, Fraction]:
    """Coefficient map of the k-th variable shift.

    The shift replaces the k-th descendant variable (k >= 2) by itself plus
    a polynomial in the kappa variables whose coefficient at the multi-index
    L of weight k - 1 is (-1)^(length(L) - 1) / L!.
    """
    if k < 2:
        raise ValueError(f"shift polynomials start at k = 2, got {k}")
    out: dict[MultiIndex, Fraction] = {}
    for L in indices_of_weight(k - 1):
        sign = 1 if L.length % 2 else -1
        out[L] = Fraction(sign, L.factorial())
    return out
