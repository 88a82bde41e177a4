"""Inputs that must fail cleanly: poisoned cache seeds, a size option a
suite does not take, signatures deeper than the recursion limit, and
negative exponents in the unordered descendant expansion."""

import pytest

from wprec.cli import main
from wprec.kmz import KmzOracle
from wprec.multiindex import ZERO, MultiIndex


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cache_cannot_override_a_seed(capsys, tmp_path):
    path = tmp_path / "values.cache"
    path.write_bytes(b"wprec-cache v1\n0||0,0,0\t5/1\n")
    before = path.read_bytes()
    code, out, err = run(
        capsys, "compute", "-g", "0", "--psi", "1,0,0,0", "--cache", str(path)
    )
    assert code == 2 and out == ""
    assert "disagrees" in err
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "suite, option",
    [("hodge", "--max-genus"), ("shift", "--cutoff"), ("cache", "--cache")],
)
def test_verify_refuses_max_dim_where_it_does_not_size(
    capsys, tmp_path, suite, option
):
    path = tmp_path / "values.cache"
    path.write_text("wprec-cache v1\n")
    code, out, err = run(
        capsys, "verify", "--suite", suite, "--max-dim", "0", "--cache", str(path)
    )
    assert code == 2 and out == ""
    assert "--max-dim" in err and option in err


def test_too_deep_signature_fails_cleanly(capsys):
    psi = ",".join(["1000"] + ["0"] * 1002)
    code, out, err = run(capsys, "compute", "-g", "0", "--psi", psi)
    assert code == 1 and out == ""
    assert err.startswith("wprec: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "kappa, psi", [(MultiIndex({1: 1}), (1, -1, 0, 0, 0)), (ZERO, (2, -1, 0, 0))]
)
def test_unordered_expansion_rejects_negative_exponents(kappa, psi):
    with pytest.raises(ValueError, match="negative psi exponent"):
        KmzOracle().kmz_expand_unordered(0, kappa, psi)
