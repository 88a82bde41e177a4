"""Independent oracle for mixed correlators via descendant expansion.

Every kappa monomial pairs against descendants through a finite signed sum:
each kappa factor set of total multiplicity q contributes partitions into k
nonzero sub-indices, weighted (-1)^(q-k)/k! over ordered partitions, each
part of weight w becoming a new psi insertion of exponent w + 1. The pure
descendant values underneath come from the classical genus-reducing
recursion on the largest exponent. Nothing here touches the coefficient
tables or the pivot engine, so agreement between the two routes is a real
consistency check, not a tautology.

The pure descendant values are kept as the integers
N(g, d) = 2^(4g - 2 + n) prod (2d_i + 1)!! <tau_d>_g, so the DVV recursion
never divides; its seeds N(0, (0, 0, 0)) = 2 and N(1, (1,)) = 1 are the
memo's first entries. kmz_expand stays on integers as well: per kappa it
caches one table of int coefficients c_t over a common scale, one per
distinct set of extra exponents, adds c_t N(g, exps + extra_t) as ints, and
makes its single division, by scale 2^(4g - 2 + n) prod (2d_i + 1)!!, when
it builds the one Fraction it returns. A pure descendant value is
kmz_expand at kappa = 0, whose table is the one term c = 1 with no extra
exponents over scale 1.

The DVV genus-drop and split terms come in mirror pairs: with
r + s = d_1 - 2, the term at r and the one at s (for a split, with I and J
swapped) have equal products. So r runs only up to s, and a term with
r < s counts twice.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .multiindex import (
    ZERO,
    MultiIndex,
    multiset_partitions,
    multiset_splits,
    ordered_nonempty_partitions,
)
from .numbers import descending, double_factorial, moduli_dim

_partition_terms_cache: dict[MultiIndex, tuple[tuple[Fraction, tuple[int, ...]], ...]] = {}


def kappa_partition_terms(
    kappa: MultiIndex,
) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """Signed descendant substitutions for one kappa monomial.

    Yields (coefficient, extra exponents) pairs: the pairing of kappa(b)
    against any fixed class equals the coefficient-weighted sum of pairings
    with the extra descendant insertions appended. The zero index gives the
    single pair (1, ()).
    """
    found = _partition_terms_cache.get(kappa)
    if found is not None:
        return found
    q = kappa.length
    collected: list[tuple[Fraction, tuple[int, ...]]] = []
    for k in range(q + 1):
        sign = -1 if (q - k) % 2 else 1
        base = Fraction(sign, math.factorial(k))
        for parts, ways in ordered_nonempty_partitions(kappa, k):
            exps = tuple(sorted((p.weight + 1 for p in parts), reverse=True))
            collected.append((base * ways, exps))
    return _partition_terms_cache.setdefault(kappa, tuple(collected))


class KmzOracle:
    """Mixed correlators by reduction to pure descendant integrals."""

    def __init__(self) -> None:
        self._psi_memo: dict[tuple[int, tuple[int, ...]], int] = {
            (0, (0, 0, 0)): 2,
            (1, (1,)): 1,
        }
        self._expansions: dict[
            MultiIndex, tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]
        ] = {}

    def pure_psi(self, genus: int, psi) -> Fraction:
        """Descendant integral with no kappa factors: kmz_expand at kappa = 0.

        Zero off-dimension or on unstable signatures; exponents must be
        nonnegative.
        """
        return self.kmz_expand(genus, ZERO, psi)

    @staticmethod
    def _canonical(genus: int, psi) -> tuple[int, ...]:
        """Descending exponents, after rejecting a negative genus or exponent."""
        if genus < 0:
            raise ValueError(f"negative genus {genus}")
        return descending(psi)

    def _scaled(self, genus: int, exps: tuple[int, ...]) -> int:
        """N(g, d) = 2^(4g - 2 + n) prod (2d_i + 1)!! <tau_d>_g, an int.

        With r + s = d_1 - 2, DVV reads N = sum_v 2 c_v (2v + 1) N(g, merged)
        + 4 sum_r N(g - 1, others + (r, s)) + sum_(I, J, r) ways
        N(g_i, I + r) N(g - g_i, J + s) from N(0, (0, 0, 0)) = 2 and
        N(1, (1,)) = 1: each move's power of two covers its halvings, so
        nothing is divided. g_i = (r + sum(I) + 2 - len(I)) / 3 is solved.
        """
        if sum(exps) != moduli_dim(genus, len(exps)):
            return 0
        key = (genus, exps)
        found = self._psi_memo.get(key)
        if found is not None:
            return found

        d1 = exps[0]
        others = exps[1:]
        total = 0

        removed: dict[int, tuple[int, ...]] = {}
        for pos, v in enumerate(others):
            if v not in removed:
                removed[v] = others[:pos] + others[pos + 1 :]
        for v, rest in removed.items():
            total += (
                2
                * others.count(v)
                * (2 * v + 1)
                * self._scaled(genus, tuple(sorted(rest + (d1 + v - 1,), reverse=True)))
            )

        if d1 >= 2:
            # The terms at r and at s = d1 - 2 - r are mirrors with equal
            # products, so r runs up to s and a term with r < s counts twice.
            top_r = d1 // 2 - 1
            if genus >= 1:
                for r in range(top_r + 1):
                    s = d1 - 2 - r
                    total += (4 if r == s else 8) * self._scaled(
                        genus - 1, tuple(sorted(others + (r, s), reverse=True))
                    )
            for part_i, part_j, ways in multiset_splits(others):
                dim_i = sum(part_i) + 2 - len(part_i)
                # g_i = (dim_i + r) / 3 must be an integer in 0..genus.
                low = max(0, -dim_i)
                low += -(dim_i + low) % 3
                for r in range(low, min(top_r, 3 * genus - dim_i) + 1, 3):
                    gi = (dim_i + r) // 3
                    left = self._scaled(gi, tuple(sorted(part_i + (r,), reverse=True)))
                    s = d1 - 2 - r
                    right = self._scaled(
                        genus - gi, tuple(sorted(part_j + (s,), reverse=True))
                    )
                    total += (ways if r == s else 2 * ways) * left * right

        return self._psi_memo.setdefault(key, total)

    def kmz_expand(self, genus: int, kappa: MultiIndex, psi) -> Fraction:
        """Mixed correlator through the ordered-partition descendant sum.

        Gates (stability, dimension) are identical to the pivot engine's so
        the two routes agree on the whole input space, not only on-shell.
        """
        exps = self._canonical(genus, psi)
        if kappa.weight + sum(exps) != moduli_dim(genus, len(exps)):
            return Fraction(0)

        scale, terms = self._expansion(kappa)
        total = 0
        for c, extra in terms:
            total += c * self._scaled(genus, tuple(sorted(exps + extra, reverse=True)))
        denom = scale * 2 ** (4 * genus - 2 + len(exps))
        for d in exps:
            denom *= double_factorial(2 * d + 1)
        return Fraction(total, denom)

    def _expansion(
        self, kappa: MultiIndex
    ) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
        """(scale, ((c_t, extra_t), ...)) for one kappa, built once.

        The kappa_partition_terms with equal extra exponents are merged, so
        each extra_t appears once, with w_t the sum of their coefficients.
        c_t = scale w_t / (2^k_t prod_(e in extra_t) (2e + 1)!!) is an int,
        with k_t = len(extra_t). As <tau_(d + extra_t)>_g is
        N(g, d + extra_t) / (2^(4g - 2 + n + k_t) prod (2d_i + 1)!!
        prod (2e + 1)!!), the expansion equals
        sum_t c_t N(g, d + extra_t) / (scale 2^(4g - 2 + n) prod (2d_i + 1)!!).
        """
        found = self._expansions.get(kappa)
        if found is not None:
            return found
        weights: dict[tuple[int, ...], Fraction] = {}
        for coeff, extra in kappa_partition_terms(kappa):
            den = 1 << len(extra)
            for e in extra:
                den *= double_factorial(2 * e + 1)
            weights[extra] = weights.get(extra, 0) + coeff / den
        scale = math.lcm(*(w.denominator for w in weights.values()))
        table = (
            scale,
            tuple(
                (w.numerator * (scale // w.denominator), extra)
                for extra, w in weights.items()
                if w
            ),
        )
        return self._expansions.setdefault(kappa, table)

    def kmz_expand_unordered(self, genus: int, kappa: MultiIndex, psi) -> Fraction:
        """Same sum regrouped over unordered partitions with multiplicities.

        A small-input cross-check on the partition bookkeeping: each
        unordered shape with part counts a_1, ..., a_r carries weight
        (-1)^(q - k)/(a_1! ... a_r!) where k = sum(a_i).
        """
        exps = self._canonical(genus, psi)
        if kappa.weight + sum(exps) != moduli_dim(genus, len(exps)):
            return Fraction(0)

        q = kappa.length
        total = Fraction(0)
        for shape in multiset_partitions(kappa):
            k = sum(count for _, count in shape)
            sign = -1 if (q - k) % 2 else 1
            denom = 1
            dealt = 1
            new: tuple[int, ...] = ()
            for part, count in shape:
                denom *= math.factorial(count)
                dealt *= part.factorial() ** count
                new += (part.weight + 1,) * count
            total += (
                Fraction(sign, denom)
                * (kappa.factorial() // dealt)
                * self.pure_psi(genus, exps + new)
            )
        return total
