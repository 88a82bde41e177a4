"""Pairings of kappa/descendant monomials against the two socle classes.

Two evaluation tags: "lambda_g_lambda_gm1" pairs against the product of the
top two Chern classes of the Hodge bundle (degree condition
weight(b) + sum(d) = g - 2 + n) and "lambda_g" against the top class alone
(degree 2g - 3 + n). Both integrals are determined by a single one-point
seed per genus together with recursions that never change the genus.

Seeds default to the classical closed forms

    <psi^(2g-2) lambda_g>          = (2^(2g-1) - 1)/2^(2g-1) |B_2g|/(2g)!
    <psi^(g-1) lambda_g lambda_(g-1)> = |B_2g| / (2^(2g-1) (2g-1)!! 2g)

proved by Faber and Pandharipande (Invent. Math. 139 (2000) and the lambda_g
conjecture literature); any other provider of one-point values, an object
with base_value(genus, tag) -> Fraction, can be substituted and all outputs
scale linearly with it.

Two independent kappa-handling routes are exposed. The primary route
rewrites kappa factors as signed descendant insertions and reduces the pure
pairing by the two-distinguished-insertions rule. The direct route keeps
kappa factors in play with table-weighted coefficients (the same rule with
its exponents shifted by the weight of a kappa sub-index), plus three
forgetful-map identities covering the shapes the table recursion cannot
reach (a point-adding step needs two insertions with the rest positive):
a string step with kappa corrections, a kappa-removal step trading one
kappa factor for a fresh insertion, and the insertion-free dilaton scaling
<|lambda> = <tau_1|lambda>/(2g-2). All three follow from the standard
comparisons kappa_a = pull(kappa_a) + psi_(n+1)^a, psi_j = pull(psi_j) + D_j
with psi_(n+1) D_j = 0, and push(psi_(n+1)^(a+1)) = kappa_a.

The two-insertions rule is written once, as _two_point_terms, and serves the
pure recursion, the direct route and check_pairing_reduction; the string
step of both routes is the one generator _lowered.

Each engine keeps one memo keyed (tag, genus, kappa, exps). The pure
recursion writes kappa = ZERO, and the direct route hands kappa = 0 to it
before reading the memo, so the two routes never share a key.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator

from .constants import GAMMA_FACT, GAMMA_ODD
from .kmz import kappa_partition_terms
from .multiindex import ZERO, MultiIndex, delta, splits2
from .numbers import bernoulli, descending, double_factorial

LAMBDA_G = "lambda_g"
LAMBDA_G_GM1 = "lambda_g_lambda_gm1"

# The direct-route table of each tag. Its denominator sequence f, k! for
# lambda_g and (2k - 1)!! for lambda_g lambda_(g-1), also gives the two
# coefficient rules of the pure recursion as ratios of f values.
_GAMMA = {LAMBDA_G: GAMMA_FACT, LAMBDA_G_GM1: GAMMA_ODD}


def pairing_degree(tag: str, genus: int, n: int) -> int:
    """Total kappa/psi degree forced by the dimension at (tag, genus, n)."""
    if tag == LAMBDA_G:
        return 2 * genus - 3 + n
    if tag == LAMBDA_G_GM1:
        return genus - 2 + n
    raise ValueError(f"unknown pairing tag {tag!r}")


class DefaultBaseValues:
    """Faber-Pandharipande closed forms, any genus >= 1."""

    def base_value(self, genus: int, tag: str) -> Fraction:
        if genus < 1:
            raise LookupError(f"base value unavailable (g={genus}, tag={tag})")
        b2g = abs(bernoulli(2 * genus))
        if tag == LAMBDA_G:
            half_pow = 2 ** (2 * genus - 1)
            return Fraction(half_pow - 1, half_pow) * b2g / factorial(2 * genus)
        if tag == LAMBDA_G_GM1:
            return b2g / (
                2 ** (2 * genus - 1)
                * double_factorial(2 * genus - 1)
                * 2
                * genus
            )
        raise ValueError(f"unknown pairing tag {tag!r}")


class FileBaseValues:
    """Seed values from a text file of lines ``genus,tag,num/den``.

    Blank lines and lines starting with ``#`` are ignored. A malformed line,
    or a repeat of a (genus, tag) with a different value, raises ValueError
    naming its file position; missing entries raise LookupError so a
    partial table fails loudly, never silently.
    """

    def __init__(self, path: str):
        self._values: dict[tuple[int, str], Fraction] = {}
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            content = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(
                f"{path}:{line_no}: cannot decode byte 0x{data[exc.start]:02x} as utf-8"
            ) from None
        for line_no, raw in enumerate(content.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected genus,tag,value")
            tag = parts[1]
            if tag not in _GAMMA:
                raise ValueError(f"{path}:{line_no}: unknown tag {tag!r}")
            try:
                key, value = (int(parts[0]), tag), Fraction(parts[2])
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if self._values.setdefault(key, value) != value:
                raise ValueError(
                    f"{path}:{line_no}: conflicting value for {parts[0]},{tag}"
                )

    def base_value(self, genus: int, tag: str) -> Fraction:
        try:
            return self._values[(genus, tag)]
        except KeyError:
            raise LookupError(
                f"base value unavailable (g={genus}, tag={tag})"
            ) from None


class HodgeEngine:
    """Both evaluation routes over one seed provider, fixed at construction:
    any object with base_value(genus, tag) -> Fraction, by default
    DefaultBaseValues."""

    def __init__(self, provider=None):
        self._provider = provider or DefaultBaseValues()
        self._memo: dict[tuple[str, int, MultiIndex, tuple[int, ...]], Fraction] = {}

    def pure_pairing(self, genus: int, tag: str, psi) -> Fraction:
        return self._pure(genus, tag, self._canonical(genus, psi))

    def correlator(self, genus: int, tag: str, kappa: MultiIndex = ZERO, psi=()) -> Fraction:
        """Primary route: kappa factors traded for signed descendants."""
        exps = self._canonical(genus, psi)
        if self._gated(genus, tag, kappa, exps):
            return Fraction(0)
        total = Fraction(0)
        for coeff, extra in kappa_partition_terms(kappa):
            total += coeff * self._pure(
                genus, tag, tuple(sorted(exps + extra, reverse=True))
            )
        return total

    def correlator_direct(
        self, genus: int, tag: str, kappa: MultiIndex = ZERO, psi=()
    ) -> Fraction:
        """Direct route: kappa factors consumed by the table recursion."""
        return self._direct(genus, tag, kappa, self._canonical(genus, psi))

    @staticmethod
    def _canonical(genus: int, psi) -> tuple[int, ...]:
        """Descending exponents; the genus must be >= 1, each exponent >= 0."""
        if genus < 1:
            raise ValueError(f"pairings need genus >= 1, got {genus}")
        return descending(psi)

    @staticmethod
    def _gated(genus, tag, kappa, exps) -> bool:
        # Genus >= 1 leaves (1, 0) the only unstable signature, and its
        # pairing degree is -1, so the degree test alone gates it.
        return kappa.weight + sum(exps) != pairing_degree(tag, genus, len(exps))

    def _pure(self, genus: int, tag: str, exps: tuple[int, ...]) -> Fraction:
        n = len(exps)
        if sum(exps) != pairing_degree(tag, genus, n):
            return Fraction(0)
        key = (tag, genus, ZERO, exps)
        found = self._memo.get(key)
        if found is not None:
            return found

        if n == 0:
            result = self._pure(genus, tag, (1,)) / (2 * genus - 2)
        elif n == 1:
            result = self._provider.base_value(genus, tag)
        elif exps[-1] == 0:
            result = Fraction(0)
            for lowered in _lowered(exps[:-1]):
                result += self._pure(genus, tag, lowered)
        else:
            result = Fraction(0)
            for coeff, merged in _two_point_terms(tag, exps[0], exps[1], exps[2:], 0):
                result += coeff * self._pure(genus, tag, merged)
        return self._memo.setdefault(key, result)

    def _direct(
        self, genus: int, tag: str, kappa: MultiIndex, exps: tuple[int, ...]
    ) -> Fraction:
        if self._gated(genus, tag, kappa, exps):
            return Fraction(0)
        if not kappa:
            return self._pure(genus, tag, exps)
        key = (tag, genus, kappa, exps)
        found = self._memo.get(key)
        if found is not None:
            return found

        n = len(exps)
        if n <= 1:
            # Trade the smallest kappa index for a fresh insertion.
            a = kappa.entries[0][0]
            m = kappa - delta(a)
            result = Fraction(0)
            for left, right, cb in splits2(m):
                sign = -1 if right.length % 2 else 1
                fresh = tuple(sorted(exps + (a + 1 + right.weight,), reverse=True))
                result += sign * cb * self._direct(genus, tag, left, fresh)
        elif exps[-1] == 0:
            rest = exps[:-1]
            result = Fraction(0)
            for lowered in _lowered(rest):
                result += self._direct(genus, tag, kappa, lowered)
            for left, right, cb in splits2(kappa):
                if not right:
                    continue
                if right.weight == 1:
                    result += (
                        cb
                        * (2 * genus - 2 + n - 1)
                        * self._direct(genus, tag, left, rest)
                    )
                else:
                    result += cb * self._direct(
                        genus, tag, left + delta(right.weight - 1), rest
                    )
        else:
            gamma = _GAMMA[tag].value
            result = Fraction(0)
            for left, right, cb in splits2(kappa):
                gcb = gamma(left) * cb
                for coeff, merged in _two_point_terms(
                    tag, exps[0], exps[1], exps[2:], left.weight
                ):
                    result += gcb * coeff * self._direct(genus, tag, right, merged)
        return self._memo.setdefault(key, result)


def _lowered(exps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The string step: each positive exponent lowered by one, re-sorted."""
    for pos, v in enumerate(exps):
        if v:
            yield tuple(sorted(exps[:pos] + (v - 1,) + exps[pos + 1 :], reverse=True))


def _two_point_terms(
    tag: str, d: int, d0: int, others: tuple[int, ...], w: int
) -> Iterator[tuple[Fraction, tuple[int, ...]]]:
    """The two-distinguished-insertions rule around (d, d0), shifted by w.

    Yields (coefficient, sorted exponents): d and d0 merged into d + d0 + w - 1
    (when >= 0), weighted f(d + d0 + w)/(f(d0) f(d)), then d joined with each
    other v into v + d + w - 1, weighted f(v + d + w - 1)/(f(v - 1) f(d)); f is
    the denominator sequence of the tag's gamma table.
    """
    f = _GAMMA[tag].denom
    if d + d0 + w - 1 >= 0:
        coeff = Fraction(f(d + d0 + w), f(d0) * f(d))
        yield coeff, tuple(sorted((d + d0 + w - 1,) + others, reverse=True))
    for pos, v in enumerate(others):
        coeff = Fraction(f(v + d + w - 1), f(v - 1) * f(d))
        joined = (d0, v + d + w - 1) + others[:pos] + others[pos + 1 :]
        yield coeff, tuple(sorted(joined, reverse=True))


def check_pairing_reduction(
    engine: HodgeEngine, genus: int, tag: str, d: int, d0: int, rest
) -> tuple[Fraction, Fraction]:
    """Two-distinguished-insertions rule on pure pairings, checked literally.

    The pair (d, d0) is any two insertions, not only the two largest that
    the recursion pivots on. Requires every non-distinguished exponent
    positive, as the rule does.
    """
    others = tuple(rest)
    if any(v < 1 for v in others):
        raise ValueError("non-distinguished exponents must be >= 1")
    if d < 0 or d0 < 0:
        raise ValueError("distinguished exponents must be >= 0")
    lhs = engine.pure_pairing(genus, tag, (d, d0) + others)
    rhs = Fraction(0)
    for coeff, merged in _two_point_terms(tag, d, d0, others, 0):
        rhs += coeff * engine.pure_pairing(genus, tag, merged)
    return lhs, rhs
