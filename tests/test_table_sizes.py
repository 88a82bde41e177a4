"""table refuses negative sizes, and sizes its table does not read, with a
usage error, as verify does."""

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


# (table argv, the sizes it reads, the given sizes it refuses)
UNREAD = [
    (
        ("--constants", "alpha", "--max-weight", "1")
        + ("--max-genus", "9", "--max-n", "3"),
        "--max-weight",
        "--max-genus, --max-n",
    ),
    (
        ("--volumes", "--max-genus", "1", "--max-n", "1", "--max-weight", "7"),
        "--max-genus, --max-n",
        "--max-weight",
    ),
    (
        ("--volumes", "--json", "--max-weight", "0"),
        "--max-genus, --max-n",
        "--max-weight",
    ),
]


@pytest.mark.parametrize(
    "argv, reads, refused", UNREAD, ids=["constants", "volumes", "volumes-json"]
)
def test_table_refuses_sizes_it_does_not_read(capsys, argv, reads, refused):
    kind = argv[0][2:]
    err = f"wprec: the {kind} table does not read {refused}; it reads {reads}\n"
    assert run(capsys, "table", *argv) == (2, "", err)
