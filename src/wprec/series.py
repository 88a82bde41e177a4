"""Weight-truncated generating series over the kappa and descendant variables.

The algebra has kappa variables s_1..s_S (s_i of weight i) and descendant
variables t_0..t_T (t_k of weight k). Series are sparse polynomial maps
from exponent pairs to rationals, truncated at a fixed total weight; the
weight-zero variable t_0 is uncapped, finiteness coming from the series
being built out of finitely many terms.

The headline consistency statement: the mixed series (coefficients are
correlators divided by the factorials of their exponent patterns) equals
the pure-descendant series with every t_k (k >= 2) shifted by a fixed
polynomial in the s variables of weight k - 1. The shift lowers weight by
at most one per shifted factor, so a source term of weight w with m
factors t_k (k >= 2) lands no lower than w - m: the check builds only the
pure terms with w - m <= W, all of weight at most 2W, and substitutes them
into the algebra at the target cutoff W. Truncating every product there
is exact, because weights are nonnegative and add under multiplication,
so a partial product above W never comes back down.

Both series walk the stable signatures of ``sweeps``, the enumeration the
verify suites use, keeping those whose variables the algebra has.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .constants import shift_polynomial
from .correlator import CorrelatorEngine
from .kmz import KmzOracle
from .multiindex import ZERO, MultiIndex
from .sweeps import Report, correlator_signatures, psi_lists, run_cases, stable_windows

MonomialKey = tuple[tuple[int, ...], tuple[int, ...]]


class TruncatedSeries:
    """Sparse truncated polynomial in s_1..s_S and t_0..t_T."""

    __slots__ = ("cutoff", "s_vars", "t_vars", "coeffs")

    def __init__(
        self,
        cutoff: int,
        s_vars: int,
        t_vars: int,
        coeffs: dict[MonomialKey, Fraction] | None = None,
    ):
        if cutoff < 0 or s_vars < 0 or t_vars < 0:
            raise ValueError("cutoff and variable counts must be nonnegative")
        self.cutoff = cutoff
        self.s_vars = s_vars
        self.t_vars = t_vars
        cleaned: dict[MonomialKey, Fraction] = {}
        for (se, te), value in (coeffs or {}).items():
            if len(se) != s_vars or len(te) != t_vars + 1:
                raise ValueError(f"exponent shape mismatch at {(se, te)}")
            if not value:
                continue
            if self._weight(se, te) > cutoff:
                continue
            cleaned[(se, te)] = Fraction(value)
        self.coeffs = cleaned

    @staticmethod
    def _weight(se: tuple[int, ...], te: tuple[int, ...]) -> int:
        return sum((i + 1) * e for i, e in enumerate(se)) + sum(
            k * e for k, e in enumerate(te)
        )

    @classmethod
    def constant(
        cls, value, cutoff: int, s_vars: int, t_vars: int
    ) -> "TruncatedSeries":
        key = ((0,) * s_vars, (0,) * (t_vars + 1))
        return cls(cutoff, s_vars, t_vars, {key: Fraction(value)})

    def _like(self, coeffs: dict[MonomialKey, Fraction]) -> "TruncatedSeries":
        out = object.__new__(TruncatedSeries)
        out.cutoff = self.cutoff
        out.s_vars = self.s_vars
        out.t_vars = self.t_vars
        out.coeffs = coeffs
        return out

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if (
            self.cutoff != other.cutoff
            or self.s_vars != other.s_vars
            or self.t_vars != other.t_vars
        ):
            raise ValueError("series live in different truncated algebras")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out: dict[MonomialKey, Fraction] = {}
        cutoff = self.cutoff
        for (se1, te1), v1 in self.coeffs.items():
            w1 = self._weight(se1, te1)
            for (se2, te2), v2 in other.coeffs.items():
                if w1 + self._weight(se2, te2) > cutoff:
                    continue
                key = (
                    tuple(a + b for a, b in zip(se1, se2)),
                    tuple(a + b for a, b in zip(te1, te2)),
                )
                total = out.get(key, Fraction(0)) + v1 * v2
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return self._like(out)

    def power(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError(f"negative power {exponent}")
        result = TruncatedSeries.constant(1, self.cutoff, self.s_vars, self.t_vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def substitute_t(
        self, subs: dict[int, "TruncatedSeries"]
    ) -> "TruncatedSeries":
        """Replace each t_k in `subs` by the given series, t_j fixed else.

        The result lives in the algebra of the substituted series, whose
        cutoff may lie below this series' own. Every product is truncated
        there, and a source term is skipped when the least weight its image
        can have (its unsubstituted part plus e_k times the least term
        weight of subs[k] for each substituted t_k^e_k) is above the
        cutoff. The result is exact when this series holds every term that
        can land within the cutoff; a weight-lowering substitution needs a
        source cut off high enough for that (see the module docstring).
        """
        target = next(iter(subs.values()), self)
        if target.cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        for k, series in subs.items():
            if not 0 <= k <= self.t_vars:
                raise ValueError(f"no variable t_{k} in this algebra")
            target._check_compatible(series)
        if (self.s_vars, self.t_vars) != (target.s_vars, target.t_vars):
            raise ValueError("series live in different truncated algebras")
        cutoff = target.cutoff
        least = {
            k: min((self._weight(*key) for key in series.coeffs), default=cutoff + 1)
            for k, series in subs.items()
        }
        powers: dict[tuple[int, int], TruncatedSeries] = {}
        total: dict[MonomialKey, Fraction] = {}
        for (se, te), value in self.coeffs.items():
            fixed = tuple(0 if k in subs else e for k, e in enumerate(te))
            lowest = self._weight(se, fixed) + sum(
                e * least[k] for k, e in enumerate(te) if k in subs
            )
            if lowest > cutoff:
                continue
            piece = target._like({(se, fixed): value})
            for k, e in enumerate(te):
                if e and k in subs:
                    if (k, e) not in powers:
                        powers[k, e] = subs[k].power(e)
                    piece = piece * powers[k, e]
            for key, v in piece.coeffs.items():
                bucket = total.get(key, Fraction(0)) + v
                if bucket:
                    total[key] = bucket
                else:
                    total.pop(key, None)
        return target._like(total)

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries(cutoff={self.cutoff}, s_vars={self.s_vars},"
            f" t_vars={self.t_vars}, terms={len(self.coeffs)})"
        )


def _monomial(
    kappa: MultiIndex, psi: tuple[int, ...], s_vars: int, t_vars: int
) -> tuple[MonomialKey, int]:
    """The (se, te) exponent key of kappa and psi, and its factorial
    denominator: the product of the factorials of the exponents."""
    te = [0] * (t_vars + 1)
    for k in psi:
        te[k] += 1
    denom = kappa.factorial()
    for count in te:
        denom *= factorial(count)
    return (tuple(kappa[i] for i in range(1, s_vars + 1)), tuple(te)), denom


def build_psi_series(
    cutoff: int, s_vars: int, t_vars: int, oracle: KmzOracle, *, shifted: bool = False
) -> TruncatedSeries:
    """Pure-descendant generating series up to the weight cutoff.

    With `shifted`, it holds instead the terms that can land at weight
    `cutoff` or below once every t_k (k >= 2) is shifted: those of weight w
    with m such factors and w - m <= cutoff, in an algebra at twice the
    cutoff, which is the most such a term can weigh.
    """
    reach = 2 * cutoff if shifted else cutoff
    coeffs: dict[MonomialKey, Fraction] = {}
    for genus, n, dim in stable_windows(reach, 1):
        for psi in psi_lists(dim, n):
            lands = dim - sum(d >= 2 for d in psi) if shifted else dim
            if psi[0] <= t_vars and lands <= cutoff:
                key, denom = _monomial(ZERO, psi, s_vars, t_vars)
                coeffs[key] = oracle.pure_psi(genus, psi) / denom
    return TruncatedSeries(reach, s_vars, t_vars, coeffs)


def build_mixed_series(
    cutoff: int, s_vars: int, t_vars: int, engine: CorrelatorEngine
) -> TruncatedSeries:
    """Mixed kappa/descendant generating series up to the weight cutoff."""
    coeffs: dict[MonomialKey, Fraction] = {}
    for genus, kappa, psi in correlator_signatures(cutoff, min_n=0):
        if (kappa and kappa.entries[-1][0] > s_vars) or (psi and psi[0] > t_vars):
            continue
        key, denom = _monomial(kappa, psi, s_vars, t_vars)
        coeffs[key] = engine.correlator(genus, kappa, psi) / denom
    return TruncatedSeries(cutoff, s_vars, t_vars, coeffs)


def canonical_shifts(
    cutoff: int, s_vars: int, t_vars: int
) -> dict[int, TruncatedSeries]:
    """t_k plus its weight-(k-1) kappa-variable shift, for k = 2..T.

    Shift terms mentioning kappa variables beyond s_S are dropped: both
    series in the comparison live in the restriction where those variables
    vanish.
    """
    subs: dict[int, TruncatedSeries] = {}
    zero_t = (0,) * (t_vars + 1)
    for k in range(2, t_vars + 1):
        coeffs: dict[MonomialKey, Fraction] = {}
        te = tuple(1 if j == k else 0 for j in range(t_vars + 1))
        coeffs[((0,) * s_vars, te)] = Fraction(1)
        for index, value in shift_polynomial(k, cutoff).items():
            if index.entries and index.entries[-1][0] > s_vars:
                continue
            se = tuple(index[i] for i in range(1, s_vars + 1))
            coeffs[(se, zero_t)] = value
        subs[k] = TruncatedSeries(cutoff, s_vars, t_vars, coeffs)
    return subs


def shift_check(
    cutoff: int,
    s_vars: int,
    t_vars: int,
    engine: CorrelatorEngine,
    oracle: KmzOracle,
) -> Report:
    """Mixed series versus shift-substituted pure series, coefficientwise,
    one case per monomial in sorted order.

    Only the pure terms that can land within the cutoff are built, and
    they are substituted into the algebra at the cutoff (module docstring).
    The algebra stops at t_T, so the shifts of t_k with k > T are dropped.
    The first of them has weight max(T, 1); with kappa variables present
    its terms would show as mismatches if that weight is within the cutoff,
    so such a check is refused rather than reported as failed.
    """
    if s_vars and max(t_vars, 1) <= cutoff:
        raise ValueError(
            f"the shift check at cutoff {cutoff} with kappa variables"
            f" needs t_vars >= {cutoff + 1}, got {t_vars}"
        )
    mixed = build_mixed_series(cutoff, s_vars, t_vars, engine).coeffs
    source = build_psi_series(cutoff, s_vars, t_vars, oracle, shifted=True)
    shifts = canonical_shifts(cutoff, s_vars, t_vars)
    shifted = source.substitute_t(shifts).coeffs
    sides = ("mixed ", "shifted pure ")
    return run_cases(
        (f"monomial {key}", mixed.get(key, 0), shifted.get(key, 0), sides)
        for key in sorted(set(mixed) | set(shifted))
    )
