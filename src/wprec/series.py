"""Weight-truncated generating series over the kappa and descendant variables.

The algebra has kappa variables s_1..s_S (s_i of weight i) and descendant
variables t_0..t_T (t_k of weight k). Series are sparse polynomial maps
from exponent pairs to rationals, truncated at a fixed total weight; the
weight-zero variable t_0 is uncapped, finiteness coming from the series
being built out of finitely many terms.

The headline consistency statement: the mixed series (coefficients are
correlators divided by the factorials of their exponent patterns) equals
the pure-descendant series with every t_k (k >= 2) shifted by a fixed
polynomial in the s variables of weight k - 1. Because the shift lowers
weight, coefficients of the target up to weight W draw on source terms up
to weight 2W exactly (the worst case replaces every factor of t_2^W), so
the check builds the pure series at doubled cutoff, substitutes there
(where no truncation can bite: term weights only grow as a product
accumulates factors), then truncates down for the comparison.

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

    def truncated(self, cutoff: int) -> "TruncatedSeries":
        if cutoff > self.cutoff:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(
            cutoff,
            self.s_vars,
            self.t_vars,
            {k: v for k, v in self.coeffs.items() if self._weight(*k) <= cutoff},
        )

    def substitute_t(
        self, subs: dict[int, "TruncatedSeries"]
    ) -> "TruncatedSeries":
        """Replace each t_k in `subs` by the given series, t_j fixed else.

        Exact whenever every substituted series is weight-non-decreasing or
        the source terms stay within the cutoff after substitution; a
        weight-lowering substitution should be performed in an algebra cut
        off high enough for its sources (see the module docstring).
        """
        for k, series in subs.items():
            if not 0 <= k <= self.t_vars:
                raise ValueError(f"no variable t_{k} in this algebra")
            self._check_compatible(series)
        power_cache: dict[tuple[int, int], TruncatedSeries] = {}

        def sub_power(k: int, e: int) -> TruncatedSeries:
            found = power_cache.get((k, e))
            if found is None:
                found = subs[k].power(e)
                power_cache[(k, e)] = found
            return found

        total: dict[MonomialKey, Fraction] = {}
        for (se, te), value in self.coeffs.items():
            fixed = tuple(
                e if k not in subs else 0 for k, e in enumerate(te)
            )
            piece = self._like({(se, fixed): value})
            for k, e in enumerate(te):
                if e and k in subs:
                    piece = piece * sub_power(k, e)
            for key, v in piece.coeffs.items():
                bucket = total.get(key, Fraction(0)) + v
                if bucket:
                    total[key] = bucket
                else:
                    total.pop(key, None)
        return self._like(total)

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
    cutoff: int, s_vars: int, t_vars: int, oracle: KmzOracle
) -> TruncatedSeries:
    """Pure-descendant generating series up to the weight cutoff."""
    coeffs: dict[MonomialKey, Fraction] = {}
    for genus, n, dim in stable_windows(cutoff, 1):
        for psi in psi_lists(dim, n):
            if psi[0] <= t_vars:
                key, denom = _monomial(ZERO, psi, s_vars, t_vars)
                coeffs[key] = oracle.pure_psi(genus, psi) / denom
    return TruncatedSeries(cutoff, s_vars, t_vars, coeffs)


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

    The pure series is built internally at twice the cutoff so the
    weight-lowering substitution is exact for every surviving coefficient.
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
    source = build_psi_series(2 * cutoff, s_vars, t_vars, oracle)
    shifts = canonical_shifts(2 * cutoff, s_vars, t_vars)
    shifted = source.substitute_t(shifts).truncated(cutoff).coeffs
    sides = ("mixed ", "shifted pure ")
    return run_cases(
        (f"monomial {key}", mixed.get(key, 0), shifted.get(key, 0), sides)
        for key in sorted(set(mixed) | set(shifted))
    )
