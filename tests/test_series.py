"""Truncated series algebra and the kappa-to-shift consistency check."""

import ast
from fractions import Fraction

import pytest

from wprec.correlator import CorrelatorEngine
from wprec.kmz import KmzOracle
from wprec.series import (
    TruncatedSeries,
    build_mixed_series,
    build_psi_series,
    canonical_shifts,
    shift_check,
)


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


@pytest.fixture(scope="module")
def oracle():
    return KmzOracle()


def _series(cutoff, s_vars, t_vars, entries):
    coeffs = {}
    for se, te, value in entries:
        coeffs[(tuple(se), tuple(te))] = Fraction(value)
    return TruncatedSeries(cutoff, s_vars, t_vars, coeffs)


def _plus(a, b):
    """a + b coefficientwise; the shift check itself never adds series."""
    coeffs = dict(a.coeffs)
    for key, value in b.coeffs.items():
        coeffs[key] = coeffs.get(key, 0) + value
    return TruncatedSeries(a.cutoff, a.s_vars, a.t_vars, coeffs)


def test_algebra_basics():
    one = TruncatedSeries.constant(1, 4, 1, 2)
    s1 = _series(4, 1, 2, [((1,), (0, 0, 0), 1)])
    assert (one * s1).coeffs == s1.coeffs
    one_plus_s1 = _series(4, 1, 2, [((0,), (0, 0, 0), 1), ((1,), (0, 0, 0), 1)])
    square = one_plus_s1 * one_plus_s1
    assert square.coeffs[((1,), (0, 0, 0))] == 2
    assert square.coeffs[((2,), (0, 0, 0))] == 1
    assert one_plus_s1.power(4).coeffs[((3,), (0, 0, 0))] == 4
    with pytest.raises(ValueError):
        s1.power(-1)


def test_truncation_drops_heavy_terms():
    s1 = _series(2, 1, 2, [((1,), (0, 0, 0), 1)])
    cube = s1 * s1 * s1
    assert cube.coeffs == {}
    # Construction also drops anything over the cutoff.
    heavy = _series(1, 1, 2, [((0,), (0, 0, 1), 7)])
    assert heavy.coeffs == {}
    with pytest.raises(ValueError):
        _series(3, 1, 2, [((1, 1), (0, 0, 0), 1)])
    with pytest.raises(ValueError):
        TruncatedSeries(-1, 1, 1)


def test_incompatible_algebras():
    a = TruncatedSeries.constant(1, 3, 1, 2)
    b = TruncatedSeries.constant(1, 3, 2, 2)
    with pytest.raises(ValueError):
        a * b


def test_generating_series_coefficients(engine, oracle):
    G = build_mixed_series(3, 2, 4, engine)
    assert G.coeffs[((0, 0), (3, 0, 0, 0, 0))] == Fraction(1, 6)
    assert G.coeffs[((1, 0), (1, 0, 0, 0, 0))] == Fraction(1, 24)
    assert G.coeffs[((0, 0), (0, 1, 0, 0, 0))] == Fraction(1, 24)
    F = build_psi_series(3, 2, 4, oracle)
    assert ((0, 0), (2, 1, 0, 0, 0)) not in F.coeffs
    # With every s variable at zero the two builds must agree verbatim.
    assert {k: v for k, v in G.coeffs.items() if not any(k[0])} == F.coeffs


def test_shift_check_reports_a_missing_monomial_as_zero(engine, oracle, monkeypatch):
    # A monomial on one side only compares against 0, at its position in
    # the sorted union of both sides' monomials.
    real = build_mixed_series(3, 2, 4, engine)
    key = sorted(real.coeffs)[2]
    value = real.coeffs[key]

    def dropped(*args):
        kept = {k: v for k, v in real.coeffs.items() if k != key}
        return TruncatedSeries(3, 2, 4, kept)

    monkeypatch.setattr("wprec.series.build_mixed_series", dropped)
    assert shift_check(3, 2, 4, engine, oracle) == (
        False,
        3,
        f"monomial {key}: mixed 0 != shifted pure {value}",
    )


def test_substitution_is_a_homomorphism():
    """(f + g) o sigma and (fg) o sigma, sigma weight-non-decreasing."""
    cutoff, s_vars, t_vars = 4, 1, 2
    t2 = _series(cutoff, s_vars, t_vars, [((0,), (0, 0, 1), 1)])
    s1t2 = _series(cutoff, s_vars, t_vars, [((1,), (0, 0, 1), 1)])
    sigma = {1: t2, 2: _plus(t2, s1t2)}
    f = _series(
        cutoff,
        s_vars,
        t_vars,
        [((0,), (1, 1, 0), 2), ((1,), (0, 0, 1), 3)],
    )
    g = _series(
        cutoff,
        s_vars,
        t_vars,
        [((0,), (0, 2, 0), 1), ((0,), (2, 0, 0), Fraction(1, 2))],
    )
    lhs = _plus(f, g).substitute_t(sigma)
    rhs = _plus(f.substitute_t(sigma), g.substitute_t(sigma))
    assert lhs.coeffs == rhs.coeffs
    lhs = (f * g).substitute_t(sigma)
    rhs = f.substitute_t(sigma) * g.substitute_t(sigma)
    assert lhs.coeffs == rhs.coeffs
    with pytest.raises(ValueError):
        f.substitute_t({5: t2})


def test_substitute_from_a_higher_cutoff_source():
    # t_2 -> t_2 + s_1 at cutoff 3: t_2^3 lands as s_1^3 (the cross terms
    # weigh more than 3), and t_2^4 can land no lower than weight 4.
    source = _series(8, 1, 2, [((0,), (0, 0, 3), 5), ((0,), (0, 0, 4), 7)])
    shift = _series(3, 1, 2, [((0,), (0, 0, 1), 1), ((1,), (0, 0, 0), 1)])
    image = source.substitute_t({2: shift})
    assert image.cutoff == 3
    assert image.coeffs == {((3,), (0, 0, 0)): 5}
    with pytest.raises(ValueError):
        source.substitute_t({2: _series(3, 2, 2, [((1, 0), (0, 0, 0), 1)])})
    with pytest.raises(ValueError):
        _series(2, 1, 2, []).substitute_t({2: shift})


@pytest.mark.parametrize("cutoff", range(6))
def test_pruned_shift_equals_the_doubled_route(engine, oracle, monkeypatch, cutoff):
    # The shift check builds only the pure terms that can land within the
    # cutoff; substituting the whole pure series at twice the cutoff and
    # then dropping the terms above the cutoff must give the same series.
    t_vars = cutoff + 1
    for s_vars in range(4):
        source = build_psi_series(2 * cutoff, s_vars, t_vars, oracle)
        image = source.substitute_t(canonical_shifts(2 * cutoff, s_vars, t_vars))
        reference = TruncatedSeries(cutoff, s_vars, t_vars, image.coeffs)
        monkeypatch.setattr(
            "wprec.series.build_mixed_series", lambda *args: reference
        )
        report = shift_check(cutoff, s_vars, t_vars, engine, oracle)
        assert report == (True, len(reference.coeffs), None), report


def test_shift_check_small(engine, oracle):
    report = shift_check(3, 2, 4, engine, oracle)
    assert report.equal, report.detail
    assert report.cases > 10
    report = shift_check(0, 1, 2, engine, oracle)
    assert report.equal


def test_doubled_cutoff_is_necessary(engine, oracle):
    """At cutoff 1 the s_1 t_0 target coefficient has its only source at
    weight 2 (the t_0 t_2 term), so substituting inside the small algebra
    loses it while the doubled build keeps it."""
    report = shift_check(1, 1, 2, engine, oracle)
    assert report.equal
    source_small = build_psi_series(1, 1, 2, oracle)
    lossy = source_small.substitute_t(canonical_shifts(1, 1, 2))
    assert ((1,), (1, 0, 0)) not in lossy.coeffs
    mixed = build_mixed_series(1, 1, 2, engine)
    assert mixed.coeffs[((1,), (1, 0, 0))] == Fraction(1, 24)


def test_corrupted_shift_detected(engine, oracle, monkeypatch):
    # Doubling the s_1 entry of the k = 2 shift must surface as a mismatch
    # at some monomial with s_1 support.
    def corrupted(cutoff, s_vars, t_vars):
        shifts = canonical_shifts(cutoff, s_vars, t_vars)
        bump = _series(cutoff, s_vars, t_vars, [((1, 0), (0,) * (t_vars + 1), 1)])
        shifts[2] = _plus(shifts[2], bump)
        return shifts

    monkeypatch.setattr("wprec.series.canonical_shifts", corrupted)
    report = shift_check(3, 2, 4, engine, oracle)
    assert not report.equal
    key = report.detail.split(": ")[0].removeprefix("monomial ")
    (se, _) = ast.literal_eval(key)
    assert se[0] >= 1


def test_shift_check_refuses_dropped_shift(engine, oracle):
    # t_0..t_3 cannot carry the t_4 shift, whose weight 3 is within the
    # cutoff once kappa variables are present.
    with pytest.raises(ValueError, match="t_vars >= 4"):
        shift_check(3, 1, 3, engine, oracle)
    assert shift_check(3, 0, 3, engine, oracle).equal
