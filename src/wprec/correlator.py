"""Pivot-recursion engine for mixed kappa/descendant correlators.

A correlator is indexed by a genus, a kappa multi-index b and a multiset of
descendant exponents. It vanishes unless the signature is stable
(2g - 2 + n > 0) and the degrees fill the dimension exactly
(weight(b) + sum(d) == 3g - 3 + n). On-shell values are produced by trading
the distinguished insertion of largest exponent against the rest: the pivot
either merges with another insertion (kappa shedding a sub-index L into the
merged exponent, weighted by the alpha table), drops the genus by splitting
into a pair of fresh insertions, or separates the surface into two factors.
Each move lowers the dimension 3g - 3 + n, so the recursion terminates on
the three dimension-one-or-zero seeds. In a separating split the genus
g_i = (dim_i + r) / 3 is solved, so r runs over one residue class mod 3.
No Fraction arithmetic happens inside an evaluation: each sub-value is
read once as an integer pair, each L's terms are added with int weights
into an unreduced pair (numbers.add_ratio), alpha(L) C(b, L) folds that pair
into the evaluation's pair, and the one division, by 2 (2d + 1)!!, builds
the single normalised Fraction that the memo stores.

The genus-drop and separating-split terms come in mirror pairs. With
r + s = d + wt(L) - 2, the term at r and the one at s (for a split, with
the two kappa parts and the two exponent parts swapped too) have equal
products, because C(L', .), the dealing counts and (2r + 1)!! (2s + 1)!!
are symmetric. So r runs only up to s, and a term with r < s is weighted
2; the mirror of a term with r = s is again such a term, so those count
once each. The splits I + J of the other exponents are built at the first
bracket that needs them and grouped by sum(I) + 2 - len(I), so the residue
and range of r are worked out once per (part of L', group), not once per
split.
Sub-values are read from the memo with plain (g, kappa, psi) tuples, and a
CorrelatorKey is built only when a lookup misses.

The pivot is the first exponent of d: _value passes the canonical tuple,
and correlator_via_pivot moves its chosen exponent to the front. One L's
terms, its bracket, hold kappa(L') and the pivot exponent d_1 + wt(L). On
shell wt(L) = 3g - 3 + n - sum(d) - wt(L') is fixed by the rest, so the
bracket depends only on (g, L', d) and is shared by every b that contains
L' with the same weight. Each engine keeps its brackets under that key in
its own table, as gcd-reduced integer pairs: per engine because they hold
sub-values, which depend on the alpha table. Brackets with wt(L) <= 1 are
not kept: L is then the only index of its weight, so no other b reads
them. The value cache never stores brackets.

Insertion-free correlators (n = 0, forced g >= 2) are first traded for
one-point ones through the signed dilaton-type relation
(2g - 2) <kappa(b)> = sum over L + L' = b of
(-1)^len(L) C(b, L) <tau_(weight(L)+1) kappa(L')>, whose right side never
re-enters the n = 0 case. It is _signed_point_sum with shift 1, so the
dilaton identity holds at n = 0 by construction; closed volumes
(VolumeEngine.volume_closed) are the independent check of n = 0 values.

The identity checks against the engine (transfer, string, dilaton, KdV and
shift) live at the end of this module and share two sums, _split_pairs and
_signed_point_sum. Each returns its two sides as a (lhs, rhs) pair; the
caller compares them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .constants import ALPHA, ConstantTable
from .multiindex import (
    ZERO,
    MultiIndex,
    multiset_splits,
    splits2,
)
from .numbers import add_ratio, descending, double_factorial, moduli_dim

_HALF = Fraction(1, 2)


def parse_psi(text: str) -> tuple[int, ...]:
    """The exponents of a --psi list or of a cache key: comma separated."""
    if not text:
        return ()
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"bad psi list {text!r}") from None


class CorrelatorKey(NamedTuple):
    """Canonical (genus, kappa, descending psi exponents) triple."""

    genus: int
    kappa: MultiIndex
    psi: tuple[int, ...]

    @classmethod
    def make(cls, genus: int, kappa: MultiIndex = ZERO, psi=()) -> "CorrelatorKey":
        if genus < 0:
            raise ValueError(f"negative genus {genus}")
        return cls(genus, kappa, descending(psi))

    def text(self) -> str:
        return "{}|{}|{}".format(
            self.genus, self.kappa.to_text(), ",".join(map(str, self.psi))
        )

    @classmethod
    def from_text(cls, text: str) -> "CorrelatorKey":
        parts = text.split("|")
        if len(parts) != 3:
            raise ValueError(f"bad correlator key {text!r}")
        genus, kappa, psi = parts
        return cls.make(int(genus), MultiIndex.from_text(kappa), parse_psi(psi))


# The recursion cannot produce these three values; they are its seeds and
# lie outside the domain of every identity derived from it.
INITIAL_VALUES: dict[CorrelatorKey, Fraction] = {
    CorrelatorKey(0, ZERO, (0, 0, 0)): Fraction(1),
    CorrelatorKey(1, ZERO, (1,)): Fraction(1, 24),
    CorrelatorKey(1, MultiIndex({1: 1}), (0,)): Fraction(1, 24),
}


class CorrelatorEngine:
    """Memoizing evaluator; one instance per coefficient table."""

    def __init__(self, alpha_table: ConstantTable | None = None):
        self._alpha = (alpha_table or ALPHA).value
        self.memo: dict[CorrelatorKey, Fraction] = {}
        # (g, L', d) -> one L's bracket; see the module docstring.
        self.brackets: dict[tuple, tuple[int, int]] = {}

    def correlator(self, genus: int, kappa: MultiIndex = ZERO, psi=()) -> Fraction:
        return self._value(CorrelatorKey.make(genus, kappa, psi))

    def correlator_via_pivot(
        self, genus: int, kappa: MultiIndex, psi, pivot: int
    ) -> Fraction:
        """On-shell value recomputed around the given insertion.

        The recursion is valid around any distinguished insertion, not just
        the largest; `pivot` is a position into the canonical descending
        exponent tuple, and that exponent moves to the front. Seeds, n = 0
        and off-shell signatures take their usual route.
        """
        key = CorrelatorKey.make(genus, kappa, psi)
        d = key.psi
        if d and not 0 <= pivot < len(d):
            raise ValueError(f"pivot {pivot} out of range for {d}")
        if (
            not d
            or key in INITIAL_VALUES
            or kappa.weight + sum(d) != moduli_dim(genus, len(d))
        ):
            return self._value(key)
        return self._pivot_eval(genus, kappa, (d[pivot],) + d[:pivot] + d[pivot + 1 :])

    def _value(self, key: CorrelatorKey) -> Fraction:
        found = self.memo.get(key)
        if found is not None:
            return found
        g, b, d = key
        n = len(d)
        if b.weight + sum(d) != moduli_dim(g, n):
            return Fraction(0)
        seed = INITIAL_VALUES.get(key)
        if seed is not None:
            return self.memo.setdefault(key, seed)
        if n == 0:
            result = _signed_point_sum(self, g, b, (), 1) / (2 * g - 2)
        else:
            result = self._pivot_eval(g, b, d)
        return self.memo.setdefault(key, result)

    def _pivot_eval(self, g: int, b: MultiIndex, d: tuple[int, ...]) -> Fraction:
        dp = d[0]
        others = d[1:]
        alpha = self._alpha
        value = self._value
        memo_get = self.memo.get
        brackets = self.brackets

        def read(genus: int, kappa: MultiIndex, exps: tuple[int, ...]):
            """One sub-value as an integer pair. The memo is read with a
            plain tuple, which hashes and compares like CorrelatorKey;
            _value, the only memo writer, gets a CorrelatorKey on a miss."""
            psi = tuple(sorted(exps, reverse=True))
            found = memo_get((genus, kappa, psi))
            if found is None:
                found = value(CorrelatorKey(genus, kappa, psi))
            return found.as_integer_ratio()

        counts: dict[int, int] = {}
        removed: dict[int, tuple[int, ...]] = {}
        for pos, v in enumerate(others):
            counts[v] = counts.get(v, 0) + 1
            if v not in removed:
                removed[v] = others[:pos] + others[pos + 1 :]
        # shift -> the splits I + J of the others with sum(I) + 2 - len(I)
        # = shift, built at the first bracket that needs them.
        groups: dict[int, list] | None = None

        total_n, total_d = 0, 1
        for left, rest_kappa, cb in splits2(b):
            # On shell wt(L) is fixed by (g, L', d), so the key omits L.
            key = (g, rest_kappa, d)
            bracket = brackets.get(key)
            if bracket is None:
                base = left.weight + dp
                # 2 / (alpha(L) C(b, L)) times this L's terms, as acc_n / acc_d.
                acc_n, acc_d = 0, 1
                for v, c in counts.items():
                    merged = base + v - 1
                    if merged < 0:
                        continue
                    vn, vd = read(g, rest_kappa, removed[v] + (merged,))
                    acc_n, acc_d = add_ratio(
                        acc_n,
                        acc_d,
                        2
                        * c
                        * double_factorial(2 * (base + v) - 1)
                        // double_factorial(2 * v - 1)
                        * vn,
                        vd,
                    )
                # The genus-drop and split terms at r and at s = base - 2 - r
                # are mirrors with equal products, so r runs up to s and
                # odd[r] = (2r + 1)!! (2s + 1)!! is doubled when r < s.
                odd = [
                    (1 if 2 * r == base - 2 else 2)
                    * double_factorial(2 * r + 1)
                    * double_factorial(2 * (base - r) - 3)
                    for r in range(base // 2)
                ]
                if g >= 1:
                    for r, weight in enumerate(odd):
                        vn, vd = read(g - 1, rest_kappa, others + (r, base - 2 - r))
                        acc_n, acc_d = add_ratio(acc_n, acc_d, weight * vn, vd)
                if base >= 2:
                    if groups is None:
                        groups = {}
                        for split in multiset_splits(others):
                            shift = sum(split[0]) + 2 - len(split[0])
                            groups.setdefault(shift, []).append(split)
                    top_r = base // 2 - 1
                    for mid, rest, cm in splits2(rest_kappa):
                        for shift, group in groups.items():
                            dim_i = mid.weight + shift
                            # g_i = (dim_i + r) / 3 must be an integer in 0..g.
                            low = max(0, -dim_i)
                            low += -(dim_i + low) % 3
                            for r in range(low, min(top_r, 3 * g - dim_i) + 1, 3):
                                gi = (dim_i + r) // 3
                                s = base - 2 - r
                                weight = cm * odd[r]
                                for part_i, part_j, ways in group:
                                    fn, fd = read(gi, mid, part_i + (r,))
                                    sn, sd = read(g - gi, rest, part_j + (s,))
                                    acc_n, acc_d = add_ratio(
                                        acc_n, acc_d, weight * ways * fn * sn, fd * sd
                                    )
                common = gcd(acc_n, acc_d)
                bracket = acc_n // common, acc_d // common
                # Below weight 2 L is the only index of its weight, so only
                # this b, whose value the memo keeps, reaches the key.
                if left.weight >= 2:
                    brackets[key] = bracket
            acc_n, acc_d = bracket
            if acc_n:
                an, ad = alpha(left).as_integer_ratio()
                total_n, total_d = add_ratio(
                    total_n,
                    total_d,
                    an * cb * acc_n,
                    ad * acc_d,
                )

        return Fraction(total_n, 2 * total_d * double_factorial(2 * dp + 1))


def _split_pairs(
    engine: CorrelatorEngine,
    genus: int,
    kappa: MultiIndex,
    exps: tuple[int, ...],
    head_i: tuple[int, ...],
    head_j: tuple[int, ...],
) -> Fraction:
    """Separating-node sum shared by the transfer, KdV and shift identities.

    Sum over L + L' = kappa of C(kappa, L), over complement pairs I, J of
    exps and over g_i = 0..genus of
    <kappa(L) head_i I>_(g_i) <kappa(L') head_j J>_(genus - g_i).
    The correlators depend on I and J only through their values, so the
    sum runs over the distinct value splits of exps, each weighted by the
    number of position subsets that give it (multiset_splits).
    """
    total = Fraction(0)
    for left, right, cb in splits2(kappa):
        for part_i, part_j, ways in multiset_splits(exps):
            for gi in range(genus + 1):
                first = engine.correlator(gi, left, head_i + part_i)
                if not first:
                    continue
                total += (
                    cb
                    * ways
                    * first
                    * engine.correlator(genus - gi, right, head_j + part_j)
                )
    return total


def _signed_point_sum(
    engine: CorrelatorEngine, genus: int, kappa: MultiIndex, exps, shift: int
) -> Fraction:
    """Sum over L + L' = kappa of (-1)^len(L) C(kappa, L) times
    <kappa(L') exps tau_(weight(L) + shift)>: the added point of the string
    (shift 0) and dilaton (shift 1) identities with its kappa corrections.
    """
    total = Fraction(0)
    for left, rest, cb in splits2(kappa):
        sign = -1 if left.length % 2 else 1
        total += (
            sign
            * cb
            * engine.correlator(genus, rest, exps + (left.weight + shift,))
        )
    return total


def check_transfer_identity(
    engine: CorrelatorEngine, genus: int, kappa: MultiIndex, psi
) -> tuple[Fraction, Fraction]:
    """Signed kappa-to-descendant transfer around the first exponent.

    The left side swaps sub-indices of kappa into the distinguished
    insertion with alternating signs; the right side is the corresponding
    merge/genus-drop/split move sum with kappa kept whole (split over
    ordered sub-index pairs). Both sides vanish unless
    weight(kappa) + sum(psi) == 3g - 3 + n, so the check is meaningful on
    exactly the in-dimension signatures. The three INITIAL_VALUES
    signatures are outside the identity's domain: there the right side is
    an empty sum while the left side contains the seed itself.
    """
    exps = tuple(psi)
    if not exps:
        raise ValueError("transfer identity needs a distinguished insertion")
    d1 = exps[0]
    others = exps[1:]

    lhs = Fraction(0)
    for left, rest, cb in splits2(kappa):
        sign = -1 if left.length % 2 else 1
        lhs += (
            sign
            * cb
            * Fraction(
                double_factorial(2 * d1 + 2 * left.weight + 1),
                double_factorial(2 * left.weight + 1),
            )
            * engine.correlator(genus, rest, (d1 + left.weight,) + others)
        )

    rhs = Fraction(0)
    for pos, v in enumerate(others):
        merged = d1 + v - 1
        if merged < 0:
            continue
        rest_psi = others[:pos] + others[pos + 1 :]
        rhs += Fraction(
            double_factorial(2 * (d1 + v) - 1), double_factorial(2 * v - 1)
        ) * engine.correlator(genus, kappa, (merged,) + rest_psi)
    for r in range(d1 - 1):
        s = d1 - 2 - r
        weight = _HALF * double_factorial(2 * r + 1) * double_factorial(2 * s + 1)
        if genus >= 1:
            rhs += weight * engine.correlator(genus - 1, kappa, (r, s) + others)
        rhs += weight * _split_pairs(engine, genus, kappa, others, (r,), (s,))
    return lhs, rhs


def check_string_identity(
    engine: CorrelatorEngine, genus: int, kappa: MultiIndex, psi
) -> tuple[Fraction, Fraction]:
    """Adding an exponent-zero insertion, with kappa correction terms.

    Nontrivial when weight(kappa) + sum(psi) == 3g - 2 + n; both sides
    vanish termwise otherwise.
    """
    exps = tuple(psi)
    lhs = _signed_point_sum(engine, genus, kappa, exps, 0)
    rhs = Fraction(0)
    for pos, v in enumerate(exps):
        if v == 0:
            continue
        rhs += engine.correlator(
            genus, kappa, exps[:pos] + (v - 1,) + exps[pos + 1 :]
        )
    return lhs, rhs


def check_dilaton_identity(
    engine: CorrelatorEngine, genus: int, kappa: MultiIndex, psi
) -> tuple[Fraction, Fraction]:
    """Adding an exponent-one insertion, with kappa correction terms."""
    exps = tuple(psi)
    lhs = _signed_point_sum(engine, genus, kappa, exps, 1)
    rhs = (2 * genus - 2 + len(exps)) * engine.correlator(genus, kappa, exps)
    return lhs, rhs


def check_kdv_identity(
    engine: CorrelatorEngine, genus: int, kappa: MultiIndex, psi
) -> tuple[Fraction, Fraction]:
    """Genus-lowering form for a correlator carrying both tau_0 and tau_1."""
    exps = tuple(psi)
    lhs = engine.correlator(genus, kappa, (0, 1) + exps)
    rhs = _HALF * _split_pairs(engine, genus, kappa, exps, (0, 0), (0, 0))
    if genus >= 1:
        rhs += Fraction(1, 12) * engine.correlator(
            genus - 1, kappa, (0, 0, 0, 0) + exps
        )
    return lhs, rhs


def check_shift_identity(
    engine: CorrelatorEngine, genus: int, kappa: MultiIndex, psi, r: int
) -> tuple[Fraction, Fraction]:
    """Trading tau_1 tau_r for tau_0 tau_(r+1) plus lower terms."""
    if r < 0:
        raise ValueError(f"negative shift exponent {r}")
    exps = tuple(psi)
    lhs = engine.correlator(genus, kappa, (1, r) + exps)
    rhs = (2 * r + 3) * engine.correlator(genus, kappa, (0, r + 1) + exps)
    if genus >= 1:
        rhs -= Fraction(1, 6) * engine.correlator(
            genus - 1, kappa, (0, 0, 0, r) + exps
        )
    rhs -= _split_pairs(engine, genus, kappa, exps, (0, r), (0, 0))
    return lhs, rhs
