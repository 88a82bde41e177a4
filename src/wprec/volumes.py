"""Volume polynomials: kappa monomials paired against exponent-zero points.

The volume V_{g,n}(kappa(b)) is the correlator of kappa(b) with n plain
(exponent-zero) insertions. This module computes it without descending to
general correlators: a closed recursion trades genus and kappa length
against each other, so the dual computation against the pivot engine is a
genuine cross-check of both. The module imports nothing from the pivot
engine; the KdV and shift identities on correlators live beside the other
correlator identities in correlator.py.

The n >= 1 recursion inducts on (g, length(b)) lexicographically. Its
genus-preserving terms (separating splits minus merges) are one method,
VolumeEngine._bracket, which serves both the recursion and the expanded
genus ladder of check_expanded_volume. The insertion-free counterpart
(g >= 2) inducts on length(b) alone, landing in n >= 1 volumes; one memo,
keyed (g, n, kappa), holds both, with n = 0 when closed. A kappa factor of
index zero is a scalar 2g - 2 + n, never a multi-index entry; _times_kappa
keeps that case separate.

Both recursions solve the dimension count instead of scanning terms that it
sets to zero. In _bracket the split V_{g_i,r+2}(L) V_{g-g_i,n+1-r}(L') is
on dimension only at r = wt(L) + 1 - 3g_i (kept when 0 <= r < n), and then
so is its second factor, as wt(L) + wt(L') = 3g - 3 + n. In volume_closed
the three-way split's factor V_{g_i,1}(kappa(e) kappa_wt(L)) needs
wt(e) + wt(L) = 3g_i - 2, which fixes g_i. Every split comes from
multiindex.splits2 together with its count C(b, L); the three-way split is
splits2 nested in splits2, weighted by the product of the two counts.
Integer weights multiply each term, but the fractional ones are applied to
whole sums: _bracket halves its split sum once, and volume_closed divides
its V_{g-1,3} sum by 6 once.

No Fraction arithmetic happens inside a sum either. Each sub-value is read
once as an integer pair and its weighted term added into an unreduced pair
(numbers.add_ratio); each evaluation builds one normalised Fraction at its
end: _bracket from its split and merge pairs, volume when it divides by
2g - 1 + q, volume_closed when it divides by its prefactor. The sums are
exact, so this grouping cannot change a value.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .multiindex import (
    ZERO,
    MultiIndex,
    delta,
    splits2,
)
from .numbers import add_ratio, double_factorial, moduli_dim


class VolumeEngine:
    """Self-contained evaluator for the volume recursions."""

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int, MultiIndex], Fraction] = {}

    def volume(self, genus: int, n: int, kappa: MultiIndex = ZERO) -> Fraction:
        """V_{g,n}(kappa(b)); zero off-dimension or on unstable (g, n)."""
        if genus < 0:
            raise ValueError(f"negative genus {genus}")
        if n < 0:
            raise ValueError(f"negative point count {n}")
        if kappa.weight != moduli_dim(genus, n):
            return Fraction(0)
        if n == 0:
            return self.volume_closed(genus, kappa)
        key = (genus, n, kappa)
        found = self._memo.get(key)
        if found is not None:
            return found
        if genus == 0 and kappa.length <= 1:
            # The dimension gate already forces kappa = 0 with n = 3, or a
            # single index n - 3: both integrate to 1.
            return self._memo.setdefault(key, Fraction(1))

        num, den = self._bracket(genus, n, kappa).as_integer_ratio()
        if genus >= 1:
            vn, vd = self.volume(genus - 1, n + 3, kappa).as_integer_ratio()
            num, den = add_ratio(num, den, vn, 12 * vd)
        result = Fraction(num, den * (2 * genus - 1 + kappa.length))
        return self._memo.setdefault(key, result)

    def _bracket(self, genus: int, n: int, kappa: MultiIndex) -> Fraction:
        """Genus-preserving terms of the n >= 1 recursion: over L + L' = kappa,
        the splits 1/2 C(kappa, L) C(n - 1, r) V_{g_i,r+2}(L) V_{g-g_i,n+1-r}(L')
        (L, L' nonempty) minus the merges C(kappa, L) V_{g,n}(L + delta_wt(L'))
        (len L' >= 2). A split term is nonzero only at r = wt(L) + 1 - 3g_i,
        which then puts V_{g-g_i,n+1-r}(L') on its dimension as well."""
        splits_n, splits_d = 0, 1
        merges_n, merges_d = 0, 1
        for left, right, cb in splits2(kappa):
            if right.length >= 2:
                vn, vd = self.volume(
                    genus, n, left + delta(right.weight)
                ).as_integer_ratio()
                merges_n, merges_d = add_ratio(merges_n, merges_d, cb * vn, vd)
            if not left or not right:
                continue
            for gi in range(genus + 1):
                r = left.weight + 1 - 3 * gi
                if r < 0:
                    break
                if r >= n:
                    continue
                fn, fd = self.volume(gi, r + 2, left).as_integer_ratio()
                if fn:
                    sn, sd = self.volume(
                        genus - gi, n + 1 - r, right
                    ).as_integer_ratio()
                    splits_n, splits_d = add_ratio(
                        splits_n, splits_d, cb * comb(n - 1, r) * fn * sn, fd * sd
                    )
        return Fraction(*add_ratio(splits_n, 2 * splits_d, -merges_n, merges_d))

    def volume_closed(self, genus: int, kappa: MultiIndex = ZERO) -> Fraction:
        """V_g(kappa(b)) on the unpointed space; needs genus >= 2."""
        if genus < 2:
            raise ValueError(f"closed volumes need genus >= 2, got {genus}")
        if kappa.weight != moduli_dim(genus, 0):
            return Fraction(0)
        key = (genus, 0, kappa)
        found = self._memo.get(key)
        if found is not None:
            return found

        q = kappa.length
        total_n, total_d = 0, 1
        sixths_n, sixths_d = 0, 1
        for left, right, cb in splits2(kappa):
            vn, vd = self.volume(
                genus, 1, left + delta(right.weight + 1)
            ).as_integer_ratio()
            total_n, total_d = add_ratio(total_n, total_d, 5 * cb * vn, vd)
            xn, xd = self._times_kappa(genus - 1, 3, left, right.weight)
            sixths_n, sixths_d = add_ratio(sixths_n, sixths_d, cb * xn, xd)
            for mid, rest, cm in splits2(right):
                # V_{g_i,1}(kappa(mid) kappa_wt(left)) needs
                # wt(mid) + wt(left) = 3g_i - 2, both when wt(left) = 0 (the
                # scalar case) and when it adds delta_wt(left).
                gi, off = divmod(mid.weight + left.weight + 2, 3)
                if off or gi > genus:
                    continue
                fn, fd = self._times_kappa(gi, 1, mid, left.weight)
                if fn:
                    sn, sd = self.volume(genus - gi, 2, rest).as_integer_ratio()
                    total_n, total_d = add_ratio(
                        total_n, total_d, -cb * cm * fn * sn, fd * sd
                    )
            if right.length < 2:
                continue
            bumped = left + delta(right.weight)
            vn, vd = self.volume_closed(genus, bumped).as_integer_ratio()
            total_n, total_d = add_ratio(
                total_n, total_d, -(2 * genus - 1 + q) * cb * vn, vd
            )
            for e, f, ce in splits2(bumped):
                xn, xd = self._times_kappa(genus, 0, e, f.weight)
                total_n, total_d = add_ratio(total_n, total_d, -cb * ce * xn, xd)
        total_n, total_d = add_ratio(total_n, total_d, -sixths_n, 6 * sixths_d)

        prefactor = (2 * genus - 1) * (2 * genus - 2) + (4 * genus - 3) * q + q * q
        result = Fraction(total_n, total_d * prefactor)
        return self._memo.setdefault(key, result)

    def _times_kappa(
        self, genus: int, n: int, m: MultiIndex, a: int
    ) -> tuple[int, int]:
        """V_{g,n}(kappa(m) kappa_a) with the index-zero scalar convention,
        as an integer pair (numerator, positive denominator)."""
        if a == 0:
            num, den = self.volume(genus, n, m).as_integer_ratio()
            return (2 * genus - 2 + n) * num, den
        return self.volume(genus, n, m + delta(a)).as_integer_ratio()


def check_expanded_volume(
    volumes: VolumeEngine, genus: int, n: int, kappa
) -> tuple[Fraction, Fraction]:
    """Compare the recursion against its fully expanded genus ladder.

    The expansion trades every genus-lowering step at once: a delta term for
    kappa length 0 or 1 plus one bracket (VolumeEngine._bracket at genus h
    with n + 3(g - h) points) per intermediate genus h, weighted
    by (2h - 3 + q)!!/(12^(g-h) (2g - 1 + q)!!). A bracket's double
    factorial is left unevaluated when the bracket itself vanishes (at
    q <= 1 the shape (2h - 3 + q) can drop below -1, but every such bracket
    is an empty sum).
    """
    if n < 1:
        raise ValueError("the expanded form needs n >= 1")
    if kappa.weight != moduli_dim(genus, n):
        raise ValueError("the expanded form applies on-dimension only")
    lhs = volumes.volume(genus, n, kappa)

    q = kappa.length
    rhs = Fraction(0)
    if q == 0:
        rhs += 1
    if q == 1:
        rhs += Fraction(1, 24**genus * factorial(genus))
    for h in range(genus + 1):
        bracket = volumes._bracket(h, n + 3 * (genus - h), kappa)
        if bracket:
            rhs += (
                Fraction(
                    double_factorial(2 * h - 3 + q),
                    12 ** (genus - h) * double_factorial(2 * genus - 1 + q),
                )
                * bracket
            )
    return lhs, rhs

