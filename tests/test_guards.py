"""Inputs that must fail cleanly: poisoned cache seeds, undecodable cache
and provider bytes, verify options no named suite reads, malformed Hodge
provider lines, signatures deeper than the recursion limit, and negative
exponents in the unordered descendant expansion; and shift-check widths far
beyond the cutoff, which must pass with no more memory than narrow ones."""

import sys

import pytest

from conftest import run
from wprec.kmz import KmzOracle
from wprec.multiindex import ZERO, MultiIndex


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


@pytest.mark.parametrize(
    "suite, given, refused, reads",
    [
        (
            "volume",
            ("--cutoff", "2", "--provider", "nothing", "--max-genus", "9"),
            "--cutoff, --max-genus, --provider",
            "--max-dim",
        ),
        ("oracle", ("--s-vars", "1"), "--s-vars", "--max-dim"),
        ("shift", ("--max-genus", "2"), "--max-genus", "--cutoff, --s-vars, --t-vars"),
        ("hodge", ("--cache", "x"), "--cache", "--max-genus, --provider"),
        ("cache", ("--t-vars", "3"), "--t-vars", "--cache"),
    ],
)
def test_verify_refuses_options_the_suite_does_not_read(
    capsys, suite, given, refused, reads
):
    code, out, err = run(capsys, "verify", "--suite", suite, *given)
    assert code == 2 and out == ""
    assert err == (
        f"wprec: the {suite} suite does not read {refused}; it reads {reads}\n"
    )


def test_verify_run_refuses_only_options_no_named_suite_reads(capsys):
    argv = ("verify", "--suite", "volume", "--suite", "oracle", "--max-dim", "1")
    assert run(capsys, *argv, "--cutoff", "2") == (
        2,
        "",
        "wprec: the run of the oracle, volume suites does not read --cutoff;"
        " it reads --max-dim\n",
    )
    # Each suite takes a size that only the other reads.
    argv = ("verify", "--suite", "oracle", "--suite", "hodge", "--max-dim", "1")
    assert run(capsys, *argv, "--max-genus", "1") == (
        0,
        "PASS (5 cases)\nPASS (32 cases)\n",
        "",
    )
    # With no size given, each suite takes its own default: 7 and 6.
    assert run(capsys, "verify", "--suite", "oracle", "--suite", "kdv") == (
        0,
        "PASS (741 cases)\nPASS (166 cases)\n",
        "",
    )


@pytest.mark.parametrize(
    "line", [b"1,lambda_g,1/0", b"x,lambda_g,1", b"1,lambda_g,x", b"1,lambda_g,1/\xff"]
)
@pytest.mark.parametrize(
    "command",
    [
        ("hodge", "-g", "2", "--tag", "lambda_g", "--psi", "0,3"),
        ("verify", "--suite", "hodge"),
    ],
)
def test_bad_provider_line_names_its_position(capsys, tmp_path, line, command):
    path = tmp_path / "base.txt"
    path.write_bytes(b"# seeds\n" + line + b"\n")
    code, out, err = run(capsys, *command, "--provider", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"wprec: {path}:2: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [("compute", "-g", "1", "--psi", "1"), ("verify", "--suite", "cache")],
)
def test_non_ascii_cache_byte_names_its_line(capsys, tmp_path, command):
    path = tmp_path / "values.cache"
    path.write_bytes(b"wprec-cache v1\n1||1\t1/24\n2||3,2\t29/5760\xc3\xa9\n")
    code, out, err = run(capsys, *command, "--cache", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"wprec: {path}:3: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "suite, given, exit_code",
    [("cache", None, 2), ("cache", "missing", 1), ("hodge", "malformed", 2)],
)
def test_verify_reads_every_input_file_before_the_first_suite(
    capsys, monkeypatch, tmp_path, suite, given, exit_code
):
    # An input file that cannot be read fails the run before the oracle
    # suite, which runs first, prints its line.
    monkeypatch.delenv("WPREC_CACHE", raising=False)
    (tmp_path / "malformed").write_text("no genus here\n")
    argv = ["verify", "--suite", "oracle", "--suite", suite, "--max-dim", "1"]
    if given:
        argv += ["--cache" if suite == "cache" else "--provider", str(tmp_path / given)]
    code, out, err = run(capsys, *argv)
    assert code == exit_code and out == ""
    assert err.startswith("wprec: ") and err.count("\n") == 1


def test_too_deep_signature_fails_cleanly(capsys):
    # A lowered limit reaches the clean failure after a few hundred
    # evaluations instead of the thousand the default limit needs.
    psi = ",".join(["300"] + ["0"] * 302)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        code, out, err = run(capsys, "compute", "-g", "0", "--psi", psi)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 1 and out == ""
    assert err.startswith("wprec: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "kappa, psi", [(MultiIndex({1: 1}), (1, -1, 0, 0, 0)), (ZERO, (2, -1, 0, 0))]
)
def test_unordered_expansion_rejects_negative_exponents(kappa, psi):
    with pytest.raises(ValueError, match="negative psi exponent"):
        KmzOracle().kmz_expand_unordered(0, kappa, psi)


@pytest.mark.parametrize(
    "widths, cases",
    [(("--s-vars", "0", "--t-vars", "1000000"), 7), (("--s-vars", "1000000"), 15)],
)
def test_huge_shift_widths_build_only_the_keys_that_can_land(capsys, widths, cases):
    # At cutoff 2 no kept monomial mentions s_i with i > 2 or t_k with
    # k > 3, so a million variables cost no more than those.
    code, out, err = run(capsys, "verify", "--shift", "--cutoff", "2", *widths)
    assert (code, out, err) == (0, f"PASS ({cases} cases)\n", "")


def test_memory_error_is_one_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr("wprec.cli._cmd_compute", exhausted)
    code, out, err = run(capsys, "compute", "-g", "0", "--psi", "0,0,0")
    assert (code, out, err) == (1, "", "wprec: out of memory\n")
