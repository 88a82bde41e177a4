"""Command line behaviour, run in-process through main(argv)."""

import csv
import io
import json
from fractions import Fraction

import pytest

from conftest import run
from wprec.cli import main
from wprec.kmz import KmzOracle


def test_compute_examples(capsys):
    code, out, _ = run(capsys, "compute", "-g", "1", "--kappa", "1:1", "--psi", "0")
    assert code == 0 and out.strip() == "1/24"
    code, out, _ = run(capsys, "compute", "-g", "0", "--psi", "0,0,0")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "compute", "-g", "1", "--kappa", "1:1", "--psi", "1")
    assert code == 0 and out.strip() == "0"


def test_compute_strict_gate(capsys):
    code, out, err = run(
        capsys, "compute", "-g", "1", "--kappa", "1:1", "--psi", "1", "--strict"
    )
    assert code == 1 and out == ""
    assert "off-dimension" in err
    code, _, _ = run(
        capsys, "compute", "-g", "1", "--kappa", "1:1", "--psi", "0", "--strict"
    )
    assert code == 0


def test_compute_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "compute", "-g", "2", "--psi", "3,2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 2
    assert payload["psi"] == [3, 2]
    assert Fraction(payload["value"]) == Fraction(29, 5760)


def test_decimal_rendering(capsys):
    code, out, _ = run(
        capsys, "compute", "-g", "1", "--psi", "1", "--decimal", "6"
    )
    assert code == 0 and out.strip() == "0.041667"
    code, out, _ = run(
        capsys, "compute", "-g", "0", "--psi", "0,0,0", "--decimal", "0"
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys,
        "compute", "-g", "1", "--psi", "1", "--decimal", "4", "--json",
    )
    payload = json.loads(out)
    assert payload["decimal"] == "0.0417"
    code, _, err = run(
        capsys, "compute", "-g", "1", "--psi", "1", "--decimal", "-2"
    )
    assert code == 2 and "decimal" in err


def test_parse_errors_exit_two(capsys):
    code, _, err = run(capsys, "compute", "-g", "1", "--psi", "x")
    assert code == 2 and "bad psi list" in err
    code, _, err = run(capsys, "compute", "-g", "1", "--kappa", "1-2")
    assert code == 2
    code, _, err = run(capsys, "compute", "-g", "-1", "--psi", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, chunk",
    [
        (("compute", "-g", "2", "--kappa", "1:x"), "1:x"),
        (("compute", "-g", "2", "--kappa", "x:1"), "x:1"),
        (("compute", "-g", "2", "--kappa", "1"), "1"),
        (("volume", "-g", "2", "-n", "0", "--kappa", "3:1:1"), "3:1:1"),
        (("volume", "-g", "2", "-n", "0", "--kappa", "1:1,,2:1"), ""),
        (("hodge", "-g", "2", "--tag", "lambda_g", "--kappa", "1:"), "1:"),
    ],
)
def test_bad_kappa_entry_is_named(capsys, argv, chunk):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"wprec: bad multi-index entry {chunk!r}\n"


def test_volume_command(capsys):
    code, out, _ = run(capsys, "volume", "-g", "0", "-n", "4", "--kappa", "1:1")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "volume", "-g", "2", "-n", "0", "--kappa", "3:1")
    assert code == 0 and out.strip() == "1/1152"
    code, out, _ = run(
        capsys, "volume", "-g", "1", "-n", "1", "--kappa", "1:1", "--json"
    )
    payload = json.loads(out)
    assert payload["n"] == 1 and Fraction(payload["value"]) == Fraction(1, 24)


def test_hodge_command(capsys, tmp_path):
    base = ["hodge", "-g", "1", "--tag", "lambda_g", "--psi", "0"]
    code, out, _ = run(capsys, *base)
    assert code == 0 and out.strip() == "1/24"
    code, direct_out, _ = run(capsys, *base, "--route", "direct")
    assert code == 0 and direct_out == out

    table = tmp_path / "seeds.txt"
    table.write_text("1, lambda_g, 7/24\n")
    code, out, _ = run(capsys, *base, "--provider", str(table))
    assert code == 0 and out.strip() == "7/24"
    # The same provider lacks genus 2: a loud failure, exit 1.
    code, _, err = run(
        capsys,
        "hodge", "-g", "2", "--tag", "lambda_g", "--psi", "2",
        "--provider", str(table),
    )
    assert code == 1 and "base value unavailable" in err


def test_table_constants(capsys):
    code, out, _ = run(capsys, "table", "--constants", "alpha", "--max-weight", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["weight", "kappa", "value"]
    assert ["1", "1:1", "1/3"] in rows
    assert ["3", "1:1,2:1", "11/315"] in rows
    # The quoted multi-entry kappa survives the csv layer intact.
    assert all(len(r) == 3 for r in rows)

    code, out, _ = run(
        capsys, "table", "--constants", "alpha", "--max-weight", "2", "--json"
    )
    data = json.loads(out)
    assert {"weight": 1, "kappa": "1:1", "value": "1/3"} in data
    # csv is the only other form, so it has no flag of its own.
    assert run(capsys, "table", "--csv", "--constants", "alpha")[0] == 2


def test_table_volumes(capsys):
    code, out, _ = run(
        capsys, "table", "--volumes", "--max-genus", "1", "--max-n", "3"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["genus", "n", "kappa", "value"]
    assert ["0", "3", "", "1"] in rows
    assert ["1", "1", "1:1", "1/24"] in rows
    assert not any(r[:2] == ["1", "0"] for r in rows[1:])


def test_verify_needs_a_suite_and_runs_every_named_one(capsys):
    assert run(capsys, "verify") == (2, "", "wprec: choose a suite (--suite NAME)\n")
    sizes = ("--max-dim", "1", "--cutoff", "2", "--s-vars", "1")
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--shift", *sizes)
    assert (code, err) == (0, "")
    assert out == "PASS (5 cases)\nPASS (13 cases)\n"


@pytest.mark.parametrize(
    "suites",
    [
        (("--suite", "oracle"), ("--suite", "volume")),
        (("--oracle",), ("--suite", "volume")),
    ],
)
def test_verify_runs_several_suites_in_suite_order(capsys, suites):
    # Each suite prints what it prints alone, in SUITES order, whatever the
    # order on the command line.
    alone = [
        run(capsys, "verify", "--suite", name, "--max-dim", "4")
        for name in ("oracle", "volume")
    ]
    assert alone == [(0, "PASS (87 cases)\n", ""), (0, "PASS (31 cases)\n", "")]
    joined = (0, alone[0][1] + alone[1][1], "")
    for order in (suites, suites[::-1]):
        argv = [arg for suite in order for arg in suite]
        assert run(capsys, "verify", *argv, "--max-dim", "4") == joined


def test_cache_workflow(capsys, tmp_path, monkeypatch):
    path = tmp_path / "values.cache"
    args = ("compute", "-g", "2", "--psi", "3,2", "--cache", str(path))
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.strip() == "29/5760"
    first = path.read_bytes()
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.strip() == "29/5760"
    assert path.read_bytes() == first

    code, out, _ = run(capsys, "verify", "--suite", "cache", "--cache", str(path))
    assert code == 0 and out.startswith("PASS (")

    # Bare --cache rides on WPREC_CACHE; without it, a usage error.
    monkeypatch.delenv("WPREC_CACHE", raising=False)
    code, _, err = run(capsys, "compute", "-g", "1", "--psi", "1", "--cache")
    assert code == 2 and "WPREC_CACHE" in err
    monkeypatch.setenv("WPREC_CACHE", str(path))
    code, out, _ = run(capsys, "compute", "-g", "1", "--psi", "1", "--cache")
    assert code == 0 and out.strip() == "1/24"


def test_cache_detects_tampering(capsys, tmp_path):
    path = tmp_path / "values.cache"
    run(capsys, "compute", "-g", "1", "--psi", "1", "--cache", str(path))
    lines = path.read_text().split("\n")
    lines[1] = lines[1].rsplit("\t", 1)[0] + "\t1/7"
    path.write_text("\n".join(lines))
    code, out, _ = run(capsys, "verify", "--suite", "cache", "--cache", str(path))
    assert code == 1 and out.startswith("FAIL after")


def test_unknown_arguments_exit_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "-g", "1", "--nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, out",
    [
        (("--suite", "oracle", "--max-dim", "4"), "PASS (87 cases)\n"),
        (("--suite", "transfer", "--max-dim", "4"), "PASS (84 cases)\n"),
        (("--suite", "string", "--max-dim", "4"), "PASS (164 cases)\n"),
        (("--suite", "dilaton", "--max-dim", "4"), "PASS (90 cases)\n"),
        (("--suite", "kdv", "--max-dim", "4"), "PASS (32 cases)\n"),
        (("--suite", "rshift", "--max-dim", "4"), "PASS (56 cases)\n"),
        (("--suite", "volume", "--max-dim", "4"), "PASS (31 cases)\n"),
        (("--suite", "hodge", "--max-genus", "2"), "PASS (121 cases)\n"),
        (("--shift", "--cutoff", "3", "--t-vars", "4"), "PASS (38 cases)\n"),
        (("--shift", "--cutoff", "3"), "PASS (38 cases)\n"),
        (("--suite", "hodge", "--max-genus", "4"), "PASS (650 cases)\n"),
        (
            ("--shift", "--cutoff", "2", "--s-vars", "1", "--t-vars", "3"),
            "PASS (13 cases)\n",
        ),
    ],
)
def test_verify_golden_output(capsys, argv, out):
    assert run(capsys, "verify", *argv) == (0, out, "")


def test_verify_fail_line_names_first_mismatch(capsys, monkeypatch):
    expand = KmzOracle.kmz_expand
    monkeypatch.setattr(
        KmzOracle, "kmz_expand", lambda self, *a: expand(self, *a) + 1
    )
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-dim", "1")
    assert code == 1
    assert out == "FAIL after 1 cases: 0||0,0,0: engine 1 != expansion 2\n"
    # A failing suite does not stop the next one; the run exits 1.
    argv = ("verify", "--oracle", "--suite", "volume", "--max-dim", "1")
    assert run(capsys, *argv) == (1, out + "PASS (3 cases)\n", "")


def test_verify_shift_refuses_too_few_t_vars(capsys):
    # At cutoff 3 the dropped t_4 shift has weight 3: a usage error, not a
    # FAIL of the identity.
    code, out, err = run(
        capsys, "verify", "--shift", "--cutoff", "3", "--t-vars", "3"
    )
    assert code == 2 and out == ""
    assert err.startswith("wprec: ") and "t_vars >= 4" in err
