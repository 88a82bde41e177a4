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
(g >= 2) inducts on length(b) alone, landing in n >= 1 volumes. A kappa
factor of index zero is a scalar 2g - 2 + n, never a multi-index entry;
_times_kappa keeps that case separate.

Both recursions solve the dimension count instead of scanning terms that it
sets to zero. In _bracket the split V_{g_i,r+2}(L) V_{g-g_i,n+1-r}(L') is
on dimension only at r = wt(L) + 1 - 3g_i (kept when 0 <= r < n), and then
so is its second factor, as wt(L) + wt(L') = 3g - 3 + n. In volume_closed
the three-way split's factor V_{g_i,1}(kappa(e) kappa_wt(L)) needs
wt(e) + wt(L) = 3g_i - 2, which fixes g_i. Integer weights multiply each
term, but the fractional ones are applied to whole sums: _bracket halves
its split sum once, and volume_closed divides its V_{g-1,3} sum by 6 once.
Fraction sums are exact, so this grouping cannot change a value.
"""

from __future__ import annotations

from fractions import Fraction

from .multiindex import (
    ZERO,
    MultiIndex,
    delta,
    multi_binomial,
    multi_multinomial,
    splits2,
    splits3,
)
from .numbers import IdentityReport, binomial, double_factorial, factorial, moduli_dim


class VolumeEngine:
    """Self-contained evaluator for the volume recursions."""

    def __init__(self) -> None:
        self._open_memo: dict[tuple[int, int, MultiIndex], Fraction] = {}
        self._closed_memo: dict[tuple[int, MultiIndex], Fraction] = {}

    def volume(self, genus: int, n: int, kappa: MultiIndex = ZERO) -> Fraction:
        """V_{g,n}(kappa(b)); zero off-dimension or on unstable (g, n)."""
        if genus < 0:
            raise ValueError(f"negative genus {genus}")
        if n < 0:
            raise ValueError(f"negative point count {n}")
        if not isinstance(kappa, MultiIndex):
            kappa = MultiIndex(kappa)
        if kappa.weight != moduli_dim(genus, n):
            return Fraction(0)
        if n == 0:
            return self.volume_closed(genus, kappa)
        key = (genus, n, kappa)
        found = self._open_memo.get(key)
        if found is not None:
            return found
        if genus == 0 and kappa.length <= 1:
            # The dimension gate already forces kappa = 0 with n = 3, or a
            # single index n - 3: both integrate to 1.
            return self._open_memo.setdefault(key, Fraction(1))

        total = self._bracket(genus, n, kappa)
        if genus >= 1:
            total += Fraction(1, 12) * self.volume(genus - 1, n + 3, kappa)
        result = total / (2 * genus - 1 + kappa.length)
        return self._open_memo.setdefault(key, result)

    def _bracket(self, genus: int, n: int, kappa: MultiIndex) -> Fraction:
        """Genus-preserving terms of the n >= 1 recursion: over L + L' = kappa,
        the splits 1/2 C(kappa, L) C(n - 1, r) V_{g_i,r+2}(L) V_{g-g_i,n+1-r}(L')
        (L, L' nonempty) minus the merges C(kappa, L) V_{g,n}(L + delta_wt(L'))
        (len L' >= 2). A split term is nonzero only at r = wt(L) + 1 - 3g_i,
        which then puts V_{g-g_i,n+1-r}(L') on its dimension as well."""
        splits = Fraction(0)
        merges = Fraction(0)
        for left, right in splits2(kappa):
            cb = multi_binomial(kappa, left)
            if right.length >= 2:
                merges += cb * self.volume(genus, n, left + delta(right.weight))
            if not left or not right:
                continue
            for gi in range(genus + 1):
                r = left.weight + 1 - 3 * gi
                if r < 0:
                    break
                if r >= n:
                    continue
                first = self.volume(gi, r + 2, left)
                if first:
                    splits += (cb * binomial(n - 1, r)) * (
                        first * self.volume(genus - gi, n + 1 - r, right)
                    )
        return splits / 2 - merges

    def volume_closed(self, genus: int, kappa: MultiIndex = ZERO) -> Fraction:
        """V_g(kappa(b)) on the unpointed space; needs genus >= 2."""
        if genus < 2:
            raise ValueError(f"closed volumes need genus >= 2, got {genus}")
        if not isinstance(kappa, MultiIndex):
            kappa = MultiIndex(kappa)
        if kappa.weight != moduli_dim(genus, 0):
            return Fraction(0)
        key = (genus, kappa)
        found = self._closed_memo.get(key)
        if found is not None:
            return found

        q = kappa.length
        total = Fraction(0)
        sixths = Fraction(0)
        for left, right in splits2(kappa):
            cb = multi_binomial(kappa, left)
            total += 5 * cb * self.volume(
                genus, 1, left + delta(right.weight + 1)
            )
            sixths += cb * self._times_kappa(genus - 1, 3, left, right.weight)
        total -= sixths / 6
        for left, mid, rest in splits3(kappa):
            # V_{g_i,1}(kappa(mid) kappa_wt(left)) needs
            # wt(mid) + wt(left) = 3g_i - 2, both when wt(left) = 0 (the
            # scalar case) and when it adds delta_wt(left).
            gi, off = divmod(mid.weight + left.weight + 2, 3)
            if off or gi > genus:
                continue
            first = self._times_kappa(gi, 1, mid, left.weight)
            if first:
                total -= (
                    multi_multinomial(kappa, left, mid)
                    * first
                    * self.volume(genus - gi, 2, rest)
                )
        for left, right in splits2(kappa):
            if right.length < 2:
                continue
            cb = multi_binomial(kappa, left)
            bumped = left + delta(right.weight)
            total -= (2 * genus - 1 + q) * cb * self.volume_closed(genus, bumped)
            inner = Fraction(0)
            for e, f in splits2(bumped):
                inner += multi_binomial(bumped, e) * self._times_kappa(
                    genus, 0, e, f.weight
                )
            total -= cb * inner

        prefactor = (2 * genus - 1) * (2 * genus - 2) + (4 * genus - 3) * q + q * q
        result = total / prefactor
        return self._closed_memo.setdefault(key, result)

    def _times_kappa(self, genus: int, n: int, m: MultiIndex, a: int) -> Fraction:
        """V_{g,n}(kappa(m) kappa_a) with the index-zero scalar convention."""
        if genus < 0:
            return Fraction(0)
        if a == 0:
            return (2 * genus - 2 + n) * self.volume(genus, n, m)
        return self.volume(genus, n, m + delta(a))


def check_expanded_volume(volumes: VolumeEngine, genus: int, n: int, kappa) -> IdentityReport:
    """Compare the recursion against its fully expanded genus ladder.

    The expansion trades every genus-lowering step at once: a delta term for
    kappa length 0 or 1 plus one bracket (VolumeEngine._bracket at genus h
    with n + 3(g - h) points) per intermediate genus h, weighted
    by (2h - 3 + q)!!/(12^(g-h) (2g - 1 + q)!!). A bracket's double
    factorial is left unevaluated when the bracket itself vanishes (at
    q <= 1 the shape (2h - 3 + q) can drop below -1, but every such bracket
    is an empty sum).
    """
    if not isinstance(kappa, MultiIndex):
        kappa = MultiIndex(kappa)
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
    return IdentityReport(lhs == rhs, lhs, rhs)

