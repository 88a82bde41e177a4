"""Helpers shared by the tests: the literal subset enumeration, the literal
shift of a pure series, and an in-process run of the command line."""

import itertools

from wprec.cli import main
from wprec.multiindex import ZERO


def subsets(items):
    """All 2^n complement pairs (I, J) of positions of items, as values."""
    for size in range(len(items) + 1):
        for picked in itertools.combinations(range(len(items)), size):
            yield (
                tuple(items[i] for i in picked),
                tuple(v for i, v in enumerate(items) if i not in picked),
            )


def literal_shift(source, shifts, cutoff):
    """`source` with each factor t_k (k in `shifts`) of each term, one at a
    time, kept or replaced by one term of P_k; the products of weight at
    most `cutoff`, summed, zero coefficients dropped."""
    image = {}
    for (se, te), value in source.items():
        factors = [k for k, e in enumerate(te) for _ in range(e)]
        fixed = [k for k in factors if k not in shifts]
        for replaced, kept in subsets([k for k in factors if k in shifts]):
            rest = [0] * len(te)
            for k in fixed + list(kept):
                rest[k] += 1
            for picks in itertools.product(*(shifts[k].items() for k in replaced)):
                index, coeff = ZERO, value
                for term, c in picks:
                    index, coeff = index + term, coeff * c
                if index.weight + sum(k * e for k, e in enumerate(rest)) > cutoff:
                    continue
                key = (tuple(index[i] for i in range(1, len(se) + 1)), tuple(rest))
                image[key] = image.get(key, 0) + coeff
    return {key: value for key, value in image.items() if value}


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
