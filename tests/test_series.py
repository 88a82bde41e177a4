"""The generating series and the kappa-to-shift consistency check."""

import ast
from fractions import Fraction

import pytest

from conftest import literal_shift
from wprec.correlator import CorrelatorEngine
from wprec.kmz import KmzOracle
from wprec.multiindex import MultiIndex
from wprec.series import (
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


def test_generating_series_coefficients(engine, oracle):
    G = build_mixed_series(3, 2, 4, engine)
    assert G[((0, 0), (3, 0, 0, 0, 0))] == Fraction(1, 6)
    assert G[((1, 0), (1, 0, 0, 0, 0))] == Fraction(1, 24)
    assert G[((0, 0), (0, 1, 0, 0, 0))] == Fraction(1, 24)
    F = build_psi_series(3, 2, 4, oracle)
    assert ((0, 0), (2, 1, 0, 0, 0)) not in F
    # With every s variable at zero the two builds must agree verbatim up
    # to weight 3; the pure build also holds heavier terms that can land.
    within = {
        (se, te): v
        for (se, te), v in F.items()
        if sum(k * e for k, e in enumerate(te)) <= 3
    }
    assert {k: v for k, v in G.items() if not any(k[0])} == within
    assert len(within) < len(F)


def test_shift_check_reports_a_missing_monomial_as_zero(engine, oracle, monkeypatch):
    # A monomial on one side only compares against 0, at its position in
    # the sorted union of both sides' monomials.
    real = build_mixed_series(3, 2, 4, engine)
    key = sorted(real)[2]
    value = real[key]

    def dropped(*args):
        return {k: v for k, v in real.items() if k != key}

    monkeypatch.setattr("wprec.series.build_mixed_series", dropped)
    assert shift_check(3, 2, 4, engine, oracle) == (
        False,
        3,
        f"monomial {key}: mixed 0 != shifted pure {value}",
    )


@pytest.mark.parametrize("cutoff", range(5))
def test_shift_check_equals_the_literal_expansion(engine, oracle, monkeypatch, cutoff):
    # The shift check expands the pure terms that can land within the
    # cutoff binomially; the literal expansion of the build at twice the
    # cutoff, a superset of those terms, must give the same series. The
    # check keys s_1..s_min(S, W), so s_vars up to 3 also covers S > W.
    t_vars = cutoff + 1
    for s_vars in range(4):
        width = min(s_vars, cutoff)
        source = build_psi_series(2 * cutoff, width, t_vars, oracle)
        reference = literal_shift(source, canonical_shifts(width, t_vars), cutoff)
        monkeypatch.setattr(
            "wprec.series.build_mixed_series", lambda *args: reference
        )
        report = shift_check(cutoff, s_vars, t_vars, engine, oracle)
        assert report == (True, len(reference), None), report


def test_shift_check_small(engine, oracle):
    report = shift_check(3, 2, 4, engine, oracle)
    assert report.equal, report.detail
    assert report.cases > 10
    report = shift_check(0, 1, 2, engine, oracle)
    assert report.equal


def test_doubled_cutoff_is_necessary(engine, oracle):
    """At cutoff 1 the s_1 t_0 target coefficient has its only source at
    weight 2 (the t_0 t_2 term), so the pure build at cutoff 1 must hold it."""
    report = shift_check(1, 1, 2, engine, oracle)
    assert report.equal
    source = build_psi_series(1, 1, 2, oracle)
    assert source[((0,), (1, 0, 1))] == Fraction(1, 24)
    mixed = build_mixed_series(1, 1, 2, engine)
    assert mixed[((1,), (1, 0, 0))] == Fraction(1, 24)


def test_corrupted_shift_detected(engine, oracle, monkeypatch):
    # Doubling the s_1 entry of the k = 2 shift must surface as a mismatch
    # at some monomial with s_1 support.
    def corrupted(s_vars, t_vars):
        shifts = canonical_shifts(s_vars, t_vars)
        shifts[2][MultiIndex({1: 1})] += 1
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
