"""Generating series over the kappa and descendant variables, and the shift
check between them.

There are kappa variables s_1..s_S (s_i of weight i) and descendant
variables t_0..t_T (t_k of weight k). A series is a plain dict from
exponent pairs (se, te) to nonzero rationals, se over s_1..s_S and te over
t_0..t_T.

The headline consistency statement: the mixed series (coefficients are
correlators divided by the factorials of their exponent patterns) equals
the pure-descendant series with every t_k (k >= 2) shifted by a fixed
kappa polynomial P_k, homogeneous of weight k - 1. So a pure term
c * t^te of weight w expands binomially: putting P_k in j_k of its e_k
factors t_k gives

    c * prod C(e_k, j_k) * prod P_k^(j_k) * t^(te - j),

and every monomial of that product weighs exactly w - sum(j). The check at
cutoff W builds only the pure terms that can land at weight W or below
(weight w with m factors t_k, k >= 2, and w - m <= W, so w <= 2W), and
expands only the choices j with w - sum(j) <= W: nothing is built and then
dropped.

Both series walk the stable signatures of ``sweeps``, the enumeration the
verify suites use, keeping those whose variables the series has.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .constants import shift_polynomial
from .correlator import CorrelatorEngine
from .kmz import KmzOracle
from .multiindex import ZERO, MultiIndex
from .sweeps import Report, correlator_signatures, psi_lists, run_cases, stable_windows

MonomialKey = tuple[tuple[int, ...], tuple[int, ...]]
Series = dict[MonomialKey, Fraction]
Polynomial = dict[MultiIndex, Fraction]


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
) -> Series:
    """The pure-descendant terms that can land at weight `cutoff` or below
    once every t_k (k >= 2) is shifted: weight w, m such factors,
    w - m <= cutoff."""
    series: Series = {}
    for genus, n, dim in stable_windows(2 * cutoff, 1):
        for psi in psi_lists(dim, n):
            if psi[0] <= t_vars and dim - sum(d >= 2 for d in psi) <= cutoff:
                key, denom = _monomial(ZERO, psi, s_vars, t_vars)
                value = oracle.pure_psi(genus, psi) / denom
                if value:
                    series[key] = value
    return series


def build_mixed_series(
    cutoff: int, s_vars: int, t_vars: int, engine: CorrelatorEngine
) -> Series:
    """Mixed kappa/descendant generating series up to the weight cutoff."""
    series: Series = {}
    for genus, kappa, psi in correlator_signatures(cutoff, min_n=0):
        if (kappa and kappa.entries[-1][0] > s_vars) or (psi and psi[0] > t_vars):
            continue
        key, denom = _monomial(kappa, psi, s_vars, t_vars)
        value = engine.correlator(genus, kappa, psi) / denom
        if value:
            series[key] = value
    return series


def canonical_shifts(s_vars: int, t_vars: int) -> dict[int, Polynomial]:
    """The kappa polynomial P_k that shifts t_k, for k = 2..T.

    Terms mentioning kappa variables beyond s_S are dropped: both series in
    the comparison live in the restriction where those variables vanish.
    """
    return {
        k: {
            index: value
            for index, value in shift_polynomial(k).items()
            if index.entries[-1][0] <= s_vars
        }
        for k in range(2, t_vars + 1)
    }


def _times(a: Polynomial, b: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for index_a, value_a in a.items():
        for index_b, value_b in b.items():
            index = index_a + index_b
            out[index] = out.get(index, 0) + value_a * value_b
    return out


def shifted_series(
    source: Series, shifts: dict[int, Polynomial], cutoff: int
) -> Series:
    """The pure series `source` with each t_k in `shifts` replaced by
    t_k + P_k, at weight `cutoff` or below, expanded binomially (module
    docstring). Zero coefficients are dropped."""
    # prod P_k^(j_k) per choice ((k, j_k), ...) with every j_k >= 1, each
    # built from the choice with its last j_k one lower.
    powers: dict[tuple[tuple[int, int], ...], Polynomial] = {(): {ZERO: Fraction(1)}}

    def power(choice: tuple[tuple[int, int], ...]) -> Polynomial:
        if choice not in powers:
            k, j = choice[-1]
            lower = choice[:-1] + (((k, j - 1),) if j > 1 else ())
            powers[choice] = _times(power(lower), shifts[k])
        return powers[choice]

    image: Series = {}
    for (se, te), value in source.items():
        weight = sum(k * e for k, e in enumerate(te))
        shifted = [k for k in shifts if te[k]]
        for js in product(*(range(te[k] + 1) for k in shifted)):
            if weight - sum(js) > cutoff:
                continue
            coeff = value
            rest = list(te)
            for k, j in zip(shifted, js):
                coeff *= comb(te[k], j)
                rest[k] -= j
            rest = tuple(rest)
            choice = tuple((k, j) for k, j in zip(shifted, js) if j)
            for index, v in power(choice).items():
                key = (tuple(index[i] for i in range(1, len(se) + 1)), rest)
                image[key] = image.get(key, 0) + coeff * v
    return {key: value for key, value in image.items() if value}


def shift_check(
    cutoff: int,
    s_vars: int,
    t_vars: int,
    engine: CorrelatorEngine,
    oracle: KmzOracle,
) -> Report:
    """Mixed series versus shift-substituted pure series, coefficientwise,
    one case per monomial in the sorted union of both sides' monomials.

    The pure terms that can land within the cutoff are expanded binomially,
    keeping only the choices whose exact image weight is within it (module
    docstring). P_k weighs k - 1, so only the shifts of t_2..t_(W+1) can
    land, and no term that can land mentions s_i (i > W) or t_k
    (k > W + 1): the keys stop at s_min(S, W) and t_min(T, W + 1). The
    series stop at t_T, so the shifts of t_k with k > T are dropped. The
    first of them has weight max(T, 1); with kappa variables present its
    terms would show as mismatches if that weight is within the cutoff, so
    such a check is refused rather than reported as failed.
    """
    if s_vars and max(t_vars, 1) <= cutoff:
        raise ValueError(
            f"the shift check at cutoff {cutoff} with kappa variables"
            f" needs t_vars >= {cutoff + 1}, got {t_vars}"
        )
    s_vars, t_vars = min(s_vars, cutoff), min(t_vars, cutoff + 1)
    mixed = build_mixed_series(cutoff, s_vars, t_vars, engine)
    source = build_psi_series(cutoff, s_vars, t_vars, oracle)
    shifts = canonical_shifts(s_vars, t_vars)
    shifted = shifted_series(source, shifts, cutoff)
    sides = ("mixed ", "shifted pure ")
    return run_cases(
        (f"monomial {key}", mixed.get(key, 0), shifted.get(key, 0), sides)
        for key in sorted(set(mixed) | set(shifted))
    )
