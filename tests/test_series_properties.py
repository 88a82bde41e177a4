"""Property test: the binomial shift expansion equals the literal one on
random sparse pure series."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import literal_shift  # noqa: E402
from wprec.multiindex import partitions  # noqa: E402
from wprec.series import canonical_shifts, shifted_series  # noqa: E402


@st.composite
def pure_series(draw):
    """(W, S, T, source) with W <= 4, S <= 3, T = W + 1 and a sparse pure
    series: the terms the shift check at cutoff W expands (weight w <= 2W,
    with m factors t_k, k >= 2, and w - m <= W, at most t_0^2), each with a
    drawn rational coefficient, the zero ones left out."""
    cutoff = draw(st.integers(0, 4))
    s_vars = draw(st.integers(0, 3))
    t_vars = cutoff + 1
    terms = [
        (e0,) + tuple(parts.count(k) for k in range(1, t_vars + 1))
        for weight in range(2 * cutoff + 1)
        for parts in partitions(weight, t_vars)
        if weight - sum(d >= 2 for d in parts) <= cutoff
        for e0 in range(3)
    ]
    coeffs = st.fractions(-2, 2, max_denominator=4)
    drawn = draw(st.lists(coeffs, min_size=len(terms), max_size=len(terms)))
    source = {((0,) * s_vars, te): c for te, c in zip(terms, drawn) if c}
    return cutoff, s_vars, t_vars, source


# No shrink phase: shrinking a failing draw re-runs the literal expansion at
# every step, so a failure would take minutes to report instead of seconds.
NO_SHRINK = tuple(p for p in hypothesis.Phase if p is not hypothesis.Phase.shrink)


@hypothesis.settings(max_examples=30, deadline=None, database=None, phases=NO_SHRINK)
# t_2^2 with one kappa variable at cutoff 3: putting P_2 in one of its two
# t_2 factors carries C(2, 1) = 2, so a lost binomial factor fails every run.
@hypothesis.example((3, 1, 4, {((0,), (0, 0, 2, 0, 0)): Fraction(1)}))
@hypothesis.given(pure_series())
def test_binomial_expansion_equals_the_literal_one(case):
    cutoff, s_vars, t_vars, source = case
    shifts = canonical_shifts(s_vars, t_vars)
    assert shifted_series(source, shifts, cutoff) == literal_shift(
        source, shifts, cutoff
    )
