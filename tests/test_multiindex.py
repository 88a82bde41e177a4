"""Multi-index arithmetic and the splitting/partition enumerators.

Counting oracles used here are independent of the implementation:
prod(m+1) for two-way splits, 2^n for subsets, a plain partition-count
recurrence for indices_of_weight.
"""

import copy
import itertools
import pickle
from math import comb, factorial, prod

import pytest

from conftest import subsets
from wprec.multiindex import (
    ZERO,
    MultiIndex,
    delta,
    indices_of_weight,
    multi_binomial,
    multiset_partitions,
    multiset_splits,
    ordered_nonempty_partitions,
    splits2,
    splits3,
)


def test_construction_and_canonical_form():
    b = MultiIndex({2: 1, 1: 3})
    assert b.entries == ((1, 3), (2, 1))
    assert b.weight == 5
    assert b.length == 4
    assert b[1] == 3 and b[2] == 1 and b[7] == 0
    # Zero multiplicities are dropped; duplicate pairs merge.
    assert MultiIndex(((3, 0), (1, 1), (1, 1))) == MultiIndex({1: 2})
    assert not MultiIndex({})
    assert ZERO == MultiIndex(())


def test_construction_rejects_bad_entries():
    with pytest.raises(ValueError):
        MultiIndex({0: 1})
    with pytest.raises(ValueError):
        MultiIndex({2: -1})


def test_ordering_and_hash():
    a = MultiIndex({1: 2})
    b = MultiIndex({1: 2})
    c = MultiIndex({2: 1})
    assert a == b and hash(a) == hash(b)
    assert a < c
    assert a != (1, 2)
    assert sorted({a, b, c}) == [a, c]


def test_indices_are_interned():
    """One object per entries tuple, whichever constructor built it."""
    assert delta(3) is delta(3)
    for b in indices_of_weight(6):
        seen = {}
        for left, right, _ in splits2(b):
            for side in (left, right):
                assert seen.setdefault(side.entries, side) is side
    a = MultiIndex({1: 1, 3: 2})
    b = delta(1)
    total = a + b
    assert total is MultiIndex({1: 2, 3: 2})
    assert total - b is a
    assert total - a is b
    public = MultiIndex({2: 1, 1: 3})
    trusted = MultiIndex._raw(((1, 3), (2, 1)), 5, 4)
    assert public == trusted and hash(public) == hash(trusted)
    assert public is trusted
    assert MultiIndex(()) is ZERO
    # Copies come back interned and leave ZERO alone.
    assert copy.copy(public) is public
    assert pickle.loads(pickle.dumps(public)) is public
    assert ZERO.entries == () and ZERO.weight == 0


def test_arithmetic():
    a = MultiIndex({1: 1, 3: 2})
    b = MultiIndex({1: 1, 3: 1})
    assert a + ZERO == a
    assert ZERO + a == a
    assert a - b == delta(3)
    assert (a - a) == ZERO
    assert a.contains(b) and not b.contains(a)
    with pytest.raises(ValueError):
        b - a
    assert MultiIndex({1: 3, 2: 2}).factorial() == 12


def test_text_roundtrip():
    for b in indices_of_weight(6):
        assert MultiIndex.from_text(b.to_text()) == b
    assert MultiIndex.from_text("") == ZERO
    assert MultiIndex.from_text(" 1:2,3:1 ") == MultiIndex({1: 2, 3: 1})
    with pytest.raises(ValueError):
        MultiIndex.from_text("1-2")
    assert repr(delta(2)) == "MultiIndex('2:1')"


def test_multi_binomial_and_multinomial():
    b = MultiIndex({1: 3, 2: 2})
    sub = MultiIndex({1: 1, 2: 2})
    assert multi_binomial(b, sub) == 3
    assert multi_binomial(b, ZERO) == 1
    assert multi_binomial(b, b) == 1
    with pytest.raises(ValueError):
        multi_binomial(sub, b)
    with pytest.raises(ValueError):
        multi_binomial(b, MultiIndex({3: 1}))


def test_splits2_count_order_and_sum():
    for b in indices_of_weight(7):
        pairs = [(left, right) for left, right, _ in splits2(b)]
        assert len(pairs) == prod(m + 1 for _, m in b)
        assert pairs[0] == (ZERO, b)
        assert pairs[-1] == (b, ZERO)
        assert len(set(pairs)) == len(pairs)
        for left, right in pairs:
            assert left + right == b


def test_splits2_is_one_kept_tuple_of_the_literal_splits():
    for b in (ZERO, delta(3), MultiIndex({1: 2, 2: 1}), MultiIndex({1: 3, 4: 2})):
        kept = splits2(b)
        assert type(kept) is tuple and splits2(b) is kept
        literal = []
        for counts in itertools.product(*(range(m + 1) for _, m in b.entries)):
            pairs = list(zip(b.entries, counts))
            literal.append(
                (
                    MultiIndex((i, c) for (i, _), c in pairs),
                    MultiIndex((i, m - c) for (i, m), c in pairs),
                    prod(comb(m, c) for (_, m), c in pairs),
                )
            )
        assert kept == tuple(literal)


def test_splits3_matches_iterated_splits2():
    for b in indices_of_weight(5):
        triples = list(splits3(b))
        assert all(l + e + f == b for l, e, f in triples)
        # |splits3| = sum over left of |splits2(rest)|.
        assert len(triples) == sum(
            1 for _, rest, _ in splits2(b) for _ in splits2(rest)
        )
        assert len(set(triples)) == len(triples)


def test_ordered_nonempty_partitions():
    m = MultiIndex({1: 2, 2: 1})
    assert list(ordered_nonempty_partitions(m, 0)) == []
    assert list(ordered_nonempty_partitions(ZERO, 0)) == [((), 1)]
    assert list(ordered_nonempty_partitions(m, 1)) == [((m,), 1)]
    for k in range(1, 5):
        dealt = list(ordered_nonempty_partitions(m, k))
        parts = [p for p, _ in dealt]
        assert all(sum(p, ZERO) == m for p in parts)
        assert all(all(q for q in p) for p in parts)
        assert len(set(parts)) == len(parts)
        for p, ways in dealt:
            assert ways == m.factorial() // prod(q.factorial() for q in p)
    # length 3: three singletons, the two 1s interchangeable: 3!/2! = 3.
    assert len(list(ordered_nonempty_partitions(m, 3))) == 3
    assert list(ordered_nonempty_partitions(m, 4)) == []


def test_multiset_partitions_consistent_with_ordered():
    """Each unordered partition accounts for (sum c_i)!/prod(c_i!) orderings."""
    for w in range(1, 6):
        for m in indices_of_weight(w):
            by_k: dict[int, int] = {}
            for groups in multiset_partitions(m):
                total = sum(
                    (m_part for m_part, c in groups for _ in range(c)), ZERO
                )
                assert total == m
                k = sum(c for _, c in groups)
                orderings = factorial(k) // prod(
                    factorial(c) for _, c in groups
                )
                by_k[k] = by_k.get(k, 0) + orderings
            for k, expected in by_k.items():
                got = sum(1 for _ in ordered_nonempty_partitions(m, k))
                assert got == expected


def test_multiset_splits_regroups_subsets():
    for items in [(), (2,), (1, 1), (3, 1, 1), (2, 2, 2), (4, 3, 1, 1)]:
        grouped = list(multiset_splits(items))
        assert sum(c for _, _, c in grouped) == 2 ** len(items)
        # Weighted sum of a separable statistic equals the literal subset
        # sum: f(I) g(J) with f = sum, g = product.
        literal = sum(
            sum(i_vals) * prod(j_vals) for i_vals, j_vals in subsets(items)
        )
        weighted = sum(
            c * sum(i_vals) * prod(j_vals) for i_vals, j_vals, c in grouped
        )
        assert weighted == literal
        keys = [(i_vals, j_vals) for i_vals, j_vals, _ in grouped]
        assert len(set(keys)) == len(keys)


def _partition_count(w):
    # Euler's recurrence-free DP: ways[j] = partitions of j.
    ways = [1] + [0] * w
    for part in range(1, w + 1):
        for j in range(part, w + 1):
            ways[j] += ways[j - part]
    return ways[w]


def test_indices_of_weight_counts_and_bounds():
    assert list(indices_of_weight(0)) == [ZERO]
    assert list(indices_of_weight(-1)) == []
    for w in range(1, 11):
        all_of_w = list(indices_of_weight(w))
        assert len(all_of_w) == _partition_count(w)
        assert all(b.weight == w for b in all_of_w)
        assert len(set(all_of_w)) == len(all_of_w)
        # Descending in the expanded partition tuple: (3,), (2, 1), (1, 1, 1).
        expanded = [
            tuple(i for i, m in reversed(b.entries) for _ in range(m))
            for b in all_of_w
        ]
        assert expanded == sorted(expanded, reverse=True)
    short = list(indices_of_weight(6, max_length=2))
    assert all(b.length <= 2 for b in short)
    assert len(short) == 4
    brute = [b for b in indices_of_weight(6) if b.length <= 3]
    assert sorted(indices_of_weight(6, max_length=3)) == sorted(brute)
