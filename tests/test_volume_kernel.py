"""The bookkeeping of the volume kernel: the weight and length that splits2
carries through its trusted constructor and the count C(b, L) it yields with
each split, and the genus-preserving bracket
whose point count r is solved from the dimension rather than scanned."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from wprec.multiindex import (
    MultiIndex,
    delta,
    indices_of_weight,
    multi_binomial,
    splits2,
)
from wprec.sweeps import volume_signatures
from wprec.volumes import VolumeEngine


def reference_splits(b):
    """(L, b - L) for every L <= b, last position fastest, both sides built
    by the checked constructor."""
    entries = b.entries
    for counts in itertools.product(*(range(m + 1) for _, m in entries)):
        yield (
            MultiIndex([(i, c) for (i, _), c in zip(entries, counts)]),
            MultiIndex([(i, m - c) for (i, m), c in zip(entries, counts)]),
        )


def reference_bracket(volumes, genus, n, kappa):
    """VolumeEngine._bracket with every (g_i, r), 0 <= g_i <= g and
    0 <= r < n, scanned and the 1/2 applied per term."""
    total = Fraction(0)
    for left, right in reference_splits(kappa):
        cb = multi_binomial(kappa, left)
        if right.length >= 2:
            total -= cb * volumes.volume(genus, n, left + delta(right.weight))
        if not left or not right:
            continue
        for gi in range(genus + 1):
            for r in range(n):
                total += (
                    Fraction(1, 2)
                    * cb
                    * comb(n - 1, r)
                    * volumes.volume(gi, r + 2, left)
                    * volumes.volume(genus - gi, n + 1 - r, right)
                )
    return total


def test_splits2_sides_match_the_checked_constructor():
    for w in range(9):
        for b in indices_of_weight(w):
            triples = list(splits2(b))
            pairs = [(left, right) for left, right, _ in triples]
            expected = list(reference_splits(b))
            assert pairs == expected, b
            for left, _, ways in triples:
                assert ways == multi_binomial(b, left), (b, left)
            count = 1
            for _, m in b.entries:
                count *= m + 1
            assert len(pairs) == count, b
            for got, want in zip(
                itertools.chain.from_iterable(pairs),
                itertools.chain.from_iterable(expected),
            ):
                assert got.entries == want.entries
                assert (got.weight, got.length) == (want.weight, want.length)
                assert hash(got) == hash(want)
            for left, right in pairs:
                assert left + right == b


def test_delta_is_the_checked_single_entry():
    for a in range(1, 6):
        want = MultiIndex([(a, 1)])
        got = delta(a)
        assert got == want and hash(got) == hash(want)
        assert (got.weight, got.length) == (a, 1)
    with pytest.raises(ValueError):
        delta(0)


def test_bracket_matches_the_full_scan():
    volumes = VolumeEngine()
    signatures = list(volume_signatures(7))
    assert len(signatures) > 100
    nonzero = 0
    for genus, n, kappa in signatures:
        got = volumes._bracket(genus, n, kappa)
        assert got == reference_bracket(volumes, genus, n, kappa), (
            genus,
            n,
            kappa,
        )
        nonzero += got != 0
    assert nonzero > 0
