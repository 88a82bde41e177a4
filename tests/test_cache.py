"""Cache file format: roundtrips, append-only behaviour, validation."""

import re
from fractions import Fraction

import pytest

from conftest import run
from wprec.cache import (
    CACHE_HEADER,
    default_cache_path,
    load_cache,
    save_new_records,
    seed_engine,
)
from wprec.correlator import CorrelatorEngine, CorrelatorKey


def _key(text):
    return CorrelatorKey.from_text(text)


def test_roundtrip(tmp_path):
    path = tmp_path / "values.cache"
    records = {
        _key("1||1"): Fraction(1, 24),
        _key("2||3,2"): Fraction(29, 5760),
        _key("0|1:1|0,0,0,0"): Fraction(1),
    }
    assert save_new_records(path, records) == 3
    assert load_cache(path) == records
    lines = path.read_text().split("\n")
    assert lines[0] == CACHE_HEADER
    assert lines[1] == "0|1:1|0,0,0,0\t1/1"


def test_append_only_and_byte_identical_resave(tmp_path):
    path = tmp_path / "values.cache"
    save_new_records(path, {_key("1||1"): Fraction(1, 24)})
    first = path.read_bytes()
    # Saving the same records again writes nothing.
    assert save_new_records(path, {_key("1||1"): Fraction(1, 24)}) == 0
    assert path.read_bytes() == first
    # New keys append after the existing ones.
    assert save_new_records(path, {_key("2||4"): Fraction(1, 1152)}) == 1
    assert path.read_bytes().startswith(first)


def test_conflicting_save_rejected(tmp_path):
    path = tmp_path / "values.cache"
    save_new_records(path, {_key("1||1"): Fraction(1, 24)})
    with pytest.raises(ValueError, match="disagrees"):
        save_new_records(path, {_key("1||1"): Fraction(1, 25)})


def test_load_validation(capsys, tmp_path):
    path = tmp_path / "bad.cache"
    path.write_text("wrong header\n")
    with pytest.raises(ValueError, match=r"bad\.cache:1"):
        load_cache(path)
    path.write_text(f"{CACHE_HEADER}\n1||1 1/24\n")
    with pytest.raises(ValueError, match=r"bad\.cache:2"):
        load_cache(path)
    path.write_text(f"{CACHE_HEADER}\n1||1\tnot-a-number\n")
    with pytest.raises(ValueError, match=r"bad\.cache:2"):
        load_cache(path)
    path.write_text(f"{CACHE_HEADER}\nno pipes\t1/2\n")
    with pytest.raises(ValueError, match=r"bad\.cache:2"):
        load_cache(path)
    path.write_text(f"{CACHE_HEADER}\n1||1\t1/0\n")
    with pytest.raises(ValueError, match=r"bad\.cache:2"):
        load_cache(path)
    path.write_text(f"{CACHE_HEADER}\n1||1\t1/24\n1||1\t1/25\n")
    with pytest.raises(ValueError, match="conflicting"):
        load_cache(path)
    # A duplicate with the same value is tolerated.
    path.write_text(f"{CACHE_HEADER}\n1||1\t1/24\n1||1\t1/24\n")
    assert load_cache(path) == {_key("1||1"): Fraction(1, 24)}
    # Exponent lists are read by the rule of --psi: no empty chunk. The
    # writer never leaves a blank line, so one inside the file is malformed.
    for body, error in [
        ("2||3,,2\t29/5760\n", "2: bad psi list '3,,2'"),
        ("1||,1\t1/24\n", "2: bad psi list ',1'"),
        ("1||1\t1/24\n\n2||4\t1/1152\n", "3: expected '<key>\\t<num/den>'"),
    ]:
        path.write_text(f"{CACHE_HEADER}\n{body}")
        message = f"{path}:{error}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_cache(path)
        argv = ("verify", "--suite", "cache", "--cache", str(path))
        assert run(capsys, *argv) == (2, "", f"wprec: {message}\n")


def test_seed_engine_short_circuits_computation(tmp_path):
    engine = CorrelatorEngine()
    planted = {_key("2||3,2"): Fraction(7)}
    seed_engine(engine, planted)
    # The planted (wrong) value is served from the memo, proving the seed
    # is honoured; a fresh engine computes the true one.
    assert engine.correlator(2, psi=(3, 2)) == 7
    assert CorrelatorEngine().correlator(2, psi=(3, 2)) == Fraction(29, 5760)


def test_check_cache_detects_corruption(capsys, tmp_path):
    path = tmp_path / "values.cache"
    engine = CorrelatorEngine()
    engine.correlator(2, psi=(3, 2))
    save_new_records(path, engine.memo)
    argv = ("verify", "--suite", "cache", "--cache", str(path))
    assert len(engine.memo) == 8
    assert run(capsys, *argv) == (0, "PASS (8 cases)\n", "")
    # Change the stored value of the seventh record in key order.
    text = path.read_text()
    assert "\n2||3,2\t29/5760\n" in text
    path.write_text(text.replace("\t29/5760\n", "\t9/7\n"))
    fail = "FAIL after 7 cases: 2||3,2: cached 9/7 != recomputed 29/5760\n"
    assert run(capsys, *argv) == (1, fail, "")


def test_default_cache_path(monkeypatch):
    monkeypatch.delenv("WPREC_CACHE", raising=False)
    assert default_cache_path() is None
    monkeypatch.setenv("WPREC_CACHE", "/tmp/somewhere.cache")
    assert default_cache_path() == "/tmp/somewhere.cache"
    monkeypatch.setenv("WPREC_CACHE", "")
    assert default_cache_path() is None


def test_unterminated_final_line_is_dropped_and_cut(capsys, tmp_path):
    path = tmp_path / "values.cache"
    # What a crash in the middle of appending "2||3,2<TAB>29/5760" leaves.
    path.write_text(f"{CACHE_HEADER}\n1||1\t1/24\n2||3,2\t29/57")
    assert load_cache(path) == {_key("1||1"): Fraction(1, 24)}
    warning = f"wprec: warning: {path}:3: unterminated final line dropped\n"
    assert capsys.readouterr().err == warning
    assert save_new_records(path, {_key("2||4"): Fraction(1, 1152)}) == 1
    assert capsys.readouterr().err == ""
    assert path.read_text() == f"{CACHE_HEADER}\n1||1\t1/24\n2||4\t1/1152\n"


def test_unterminated_header_is_refused(tmp_path):
    path = tmp_path / "values.cache"
    path.write_text(CACHE_HEADER)
    with pytest.raises(ValueError, match=r"values\.cache:1: expected header"):
        load_cache(path)
    with pytest.raises(ValueError, match=r"values\.cache:1: expected header"):
        save_new_records(path, {_key("1||1"): Fraction(1, 24)})
    assert path.read_text() == CACHE_HEADER


def test_crash_tail_is_recomputed_from_the_cli(capsys, tmp_path):
    path = tmp_path / "values.cache"
    path.write_text(f"{CACHE_HEADER}\n2||3,2\t29/57")
    code, out, err = run(
        capsys, "compute", "-g", "2", "--psi", "3,2", "--cache", str(path)
    )
    assert code == 0 and out == "29/5760\n"
    assert err == f"wprec: warning: {path}:2: unterminated final line dropped\n"
    # The save cut the tail off before appending, so the file now loads
    # cleanly and later commands neither warn nor fail.
    code, out, err = run(
        capsys, "compute", "-g", "1", "--psi", "2,0", "--cache", str(path)
    )
    assert (code, out, err) == (0, "1/24\n", "")
    assert load_cache(path)[_key("2||3,2")] == Fraction(29, 5760)
    code, out, err = run(capsys, "verify", "--suite", "cache", "--cache", str(path))
    assert code == 0 and out.startswith("PASS") and err == ""
