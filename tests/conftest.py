"""Helpers shared by the tests: the literal subset enumeration and an
in-process run of the command line."""

import itertools

from wprec.cli import main


def subsets(items):
    """All 2^n complement pairs (I, J) of positions of items, as values."""
    for size in range(len(items) + 1):
        for picked in itertools.combinations(range(len(items)), size):
            yield (
                tuple(items[i] for i in picked),
                tuple(v for i, v in enumerate(items) if i not in picked),
            )


def run(capsys, *argv):
    """Run the CLI in-process; return (exit code, stdout, stderr).

    An argparse usage error leaves through SystemExit; its code is returned
    like any other.
    """
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err
