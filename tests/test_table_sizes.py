"""table refuses negative sizes with a usage error, as verify does."""

import pytest

from conftest import run


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--volumes", "--max-genus", "-1"),
        ("table", "--volumes", "--max-n", "-3"),
        ("table", "--constants", "alpha", "--max-weight", "-2"),
    ],
)
def test_table_refuses_negative_sizes(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err


def test_table_accepts_zero_sizes(capsys):
    code, out, err = run(
        capsys, "table", "--volumes", "--max-genus", "0", "--max-n", "0"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0].startswith("genus")
