"""What verify prints: FAIL lines that name the right sides and the position
of the first mismatch, and usage errors for negative sizes."""

from fractions import Fraction

import pytest

import wprec.series
from conftest import run
from wprec.correlator import CorrelatorEngine
from wprec.kmz import KmzOracle


def test_shift_fail_line_labels_and_position(capsys, monkeypatch):
    real = wprec.series.build_mixed_series

    def tampered(*args):
        series = real(*args)
        key = sorted(series)[5]
        series[key] += 1
        return series

    monkeypatch.setattr(wprec.series, "build_mixed_series", tampered)
    code, out, err = run(capsys, "verify", "--shift", "--cutoff", "3")
    assert code == 1 and err == ""
    assert out == (
        "FAIL after 6 cases: monomial ((0, 0, 0), (2, 0, 0, 1, 0)):"
        " mixed 49/48 != shifted pure 1/48\n"
    )


def test_oracle_fail_line_on_a_value_that_is_not_positive(capsys, monkeypatch):
    # Both routes give 0, so they agree and only the positivity check fails.
    monkeypatch.setattr(CorrelatorEngine, "correlator", lambda *a: Fraction(0))
    monkeypatch.setattr(KmzOracle, "kmz_expand", lambda *a: Fraction(0))
    code, out, err = run(capsys, "verify", "--suite", "oracle")
    assert code == 1 and err == ""
    assert out == "FAIL after 1 cases: 0||0,0,0: expected a positive value, got 0\n"


def test_cache_fail_line_gives_position(capsys, tmp_path):
    path = tmp_path / "values.cache"
    argv = ("compute", "-g", "2", "--psi", "3,2", "--cache", str(path))
    assert run(capsys, *argv)[0] == 0
    lines = path.read_text().split("\n")
    assert len([line for line in lines[1:] if line]) == 8
    lines[1] = lines[1].rsplit("\t", 1)[0] + "\t9/7"
    path.write_text("\n".join(lines))
    code, out, _ = run(capsys, "verify", "--suite", "cache", "--cache", str(path))
    assert code == 1
    assert out == "FAIL after 1 cases: 0||0,0,0: cached 9/7 != recomputed 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "oracle", "--max-dim", "-3"),
        ("verify", "--suite", "hodge", "--max-genus", "-2"),
        ("verify", "--shift", "--cutoff", "-1"),
        ("verify", "--shift", "--s-vars", "-1"),
        ("verify", "--shift", "--t-vars", "-1"),
    ],
)
def test_verify_refuses_negative_sizes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err
