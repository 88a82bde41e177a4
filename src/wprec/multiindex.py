"""Multi-indices with finite support and the splitting combinatorics on them.

A multi-index assigns a nonnegative multiplicity to each positive integer
index; only finitely many are nonzero. Weight is sum(i * m(i)), length is
sum(m(i)). Instances are immutable, hashable and totally ordered by their
canonical entry tuple, so they work as dict keys and sort stably in output.

The text form is ``i:m`` pairs joined by commas in ascending index order
("1:2,3:1"); the zero index is the empty string.

Each combinatorial object has one enumerator here, and an enumerator that
weights its objects yields the weight with the object, worked out where the
object is built: splits2 gives C(b, L) with each split, and
ordered_nonempty_partitions and multiset_splits their dealing counts.
partitions is the one integer-partition enumerator; indices_of_weight
filters it.

splits2(b) returns a tuple, built on the first call and kept on b itself
(the _splits slot), so every route that splits the same index again, the
pivot and volume kernels included, reads the kept tuple. The cost is
memory: each index that was ever split holds prod(b(i) + 1) triples for as
long as it lives, which, interned, is the whole process.

Instances are interned: the trusted constructor MultiIndex._raw, which the
public constructor ends in, returns one object per entries tuple, kept in
the module-level dict _INTERN. So splits2, __add__, __sub__ and delta hand
back shared objects, memo keys hold no duplicate index objects, and a dict
hit on an index key is decided by identity before any __eq__ runs. The
dict grows only with the distinct indices a process builds; nothing is
evicted.
"""

from __future__ import annotations

import itertools
from math import comb, factorial
from typing import Iterable, Iterator


_INTERN: dict[tuple[tuple[int, int], ...], "MultiIndex"] = {}


class MultiIndex:
    """Immutable finitely-supported map from positive indices to counts."""

    __slots__ = ("_entries", "_weight", "_length", "_hash", "_splits")

    def __new__(
        cls, source: Iterable[tuple[int, int]] | dict[int, int] = ()
    ) -> "MultiIndex":
        if isinstance(source, dict):
            items = source.items()
        else:
            items = tuple(source)
        merged: dict[int, int] = {}
        for i, m in items:
            if i < 1:
                raise ValueError(f"multi-index positions start at 1, got {i}")
            if m < 0:
                raise ValueError(f"negative multiplicity {m} at position {i}")
            if m:
                merged[i] = merged.get(i, 0) + m
        entries = tuple(sorted(merged.items()))
        return cls._raw(
            entries, sum(i * m for i, m in entries), sum(m for _, m in entries)
        )

    @classmethod
    def _raw(
        cls, entries: tuple[tuple[int, int], ...], weight: int, length: int
    ) -> "MultiIndex":
        """Trusted, interning constructor: entries already sorted, positive,
        merged, with their weight and length already summed by the caller."""
        self = _INTERN.get(entries)
        if self is None:
            self = _INTERN[entries] = object.__new__(cls)
            self._entries = entries
            self._weight = weight
            self._length = length
            self._hash = hash(entries)
            self._splits = None
        return self

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return self._entries

    @property
    def weight(self) -> int:
        """sum(i * m(i)): the total degree the index carries."""
        return self._weight

    @property
    def length(self) -> int:
        """sum(m(i)): how many factors the index stands for."""
        return self._length

    def __getitem__(self, i: int) -> int:
        for j, m in self._entries:
            if j == i:
                return m
        return 0

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiIndex):
            return NotImplemented
        return self._entries == other._entries

    def __lt__(self, other: "MultiIndex") -> bool:
        return self._entries < other._entries

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # copy and pickle must come back through the interning constructor,
        # not fill in the slots of whatever MultiIndex() returns.
        return MultiIndex, (self._entries,)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if not other._entries:
            return self
        if not self._entries:
            return other
        merged = dict(self._entries)
        for i, m in other._entries:
            merged[i] = merged.get(i, 0) + m
        return MultiIndex._raw(
            tuple(sorted(merged.items())),
            self._weight + other._weight,
            self._length + other._length,
        )

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        merged = dict(self._entries)
        for i, m in other._entries:
            left = merged.get(i, 0) - m
            if left < 0:
                raise ValueError(f"{other} is not contained in {self}")
            if left:
                merged[i] = left
            else:
                merged.pop(i, None)
        return MultiIndex._raw(
            tuple(sorted(merged.items())),
            self._weight - other._weight,
            self._length - other._length,
        )

    def contains(self, other: "MultiIndex") -> bool:
        return all(self[i] >= m for i, m in other._entries)

    def factorial(self) -> int:
        """Product of m(i)! over the support."""
        out = 1
        for _, m in self._entries:
            out *= factorial(m)
        return out

    def to_text(self) -> str:
        return ",".join(f"{i}:{m}" for i, m in self._entries)

    @classmethod
    def from_text(cls, text: str) -> "MultiIndex":
        text = text.strip()
        if not text:
            return ZERO
        pairs = []
        for chunk in text.split(","):
            try:
                i_text, m_text = chunk.split(":")
                pairs.append((int(i_text), int(m_text)))
            except ValueError:
                raise ValueError(f"bad multi-index entry {chunk!r}") from None
        return cls(pairs)

    def __repr__(self) -> str:
        return f"MultiIndex({self.to_text()!r})"


ZERO = MultiIndex._raw((), 0, 0)


def delta(a: int) -> MultiIndex:
    """The multi-index with a single 1 at position a."""
    if a < 1:
        raise ValueError(f"multi-index positions start at 1, got {a}")
    return MultiIndex._raw(((a, 1),), a, 1)


def multi_binomial(b: MultiIndex, sub: MultiIndex) -> int:
    """Product of C(b(i), sub(i)); sub must be contained in b."""
    counts = dict(b.entries)
    out = 1
    for i, m in sub.entries:
        have = counts.get(i, 0)
        if have < m:
            raise ValueError(f"{sub} is not contained in {b}")
        out *= comb(have, m)
    return out


def splits2(b: MultiIndex) -> tuple[tuple[MultiIndex, MultiIndex, int], ...]:
    """All ordered pairs (L, L') with L + L' = b, each with C(b, L).

    The first pair is (0, b) and the last is (b, 0); there are
    prod(b(i) + 1) pairs in total. Each pair is built in one pass over b's
    entries, which sums L's weight and length and multiplies the count
    C(b, L) = prod C(b(i), L(i)) on the way; L' gets b's weight and length
    minus L's, and both go through the trusted constructor. The tuple is
    built once per index and kept on it.
    """
    found = b._splits
    if found is not None:
        return found
    entries = b.entries
    weight, length = b.weight, b.length
    raw = MultiIndex._raw
    out = []
    for counts in itertools.product(*(range(m + 1) for _, m in entries)):
        left = []
        right = []
        w = n = 0
        ways = 1
        for (i, m), c in zip(entries, counts):
            if c:
                left.append((i, c))
                w += i * c
                n += c
                if c != m:
                    right.append((i, m - c))
                    ways *= comb(m, c)
            else:
                right.append((i, m))
        out.append(
            (raw(tuple(left), w, n), raw(tuple(right), weight - w, length - n), ways)
        )
    b._splits = found = tuple(out)
    return found


def splits3(
    b: MultiIndex,
) -> Iterator[tuple[MultiIndex, MultiIndex, MultiIndex]]:
    """All ordered triples (L, e, f) with L + e + f = b."""
    for left, rest, _ in splits2(b):
        for mid, right, _ in splits2(rest):
            yield left, mid, right


def ordered_nonempty_partitions(
    m: MultiIndex, k: int
) -> Iterator[tuple[tuple[MultiIndex, ...], int]]:
    """Ordered k-tuples of nonzero multi-indices summing to m, each with the
    number of ways m!/prod(part!) to deal m's copies into those parts."""
    if k == 0:
        if not m:
            yield (), 1
        return
    if m.length < k:
        return
    if k == 1:
        yield (m,), 1
        return
    for first, rest, ways in splits2(m):
        if not first:
            continue
        for tail, tail_ways in ordered_nonempty_partitions(rest, k - 1):
            yield (first,) + tail, ways * tail_ways


def multiset_partitions(
    m: MultiIndex,
) -> Iterator[tuple[tuple[MultiIndex, int], ...]]:
    """Unordered partitions of m into nonzero parts, with repetition counts.

    Each yield is ((part, count), ...) with parts strictly decreasing in the
    canonical order, so every partition shape appears exactly once: all
    copies of a given part are consumed in one step, and the tail only uses
    strictly smaller parts.
    """

    def canonical(
        remaining: MultiIndex, bound: MultiIndex | None
    ) -> Iterator[tuple[tuple[MultiIndex, int], ...]]:
        if not remaining:
            yield ()
            return
        for part, _, _ in splits2(remaining):
            if not part:
                continue
            if bound is not None and not part < bound:
                continue
            rest = remaining
            count = 0
            while rest.contains(part):
                rest = rest - part
                count += 1
                for tail in canonical(rest, part):
                    yield ((part, count),) + tail

    yield from canonical(m, None)


def multiset_splits(values: tuple) -> Iterator[tuple[tuple, tuple, int]]:
    """Complement pairs of `values` grouped by distinct submultiset.

    Yields (I, J, count) with count = number of position-subsets realizing
    the value-multiset I; summing count over all yields gives 2^len(values).
    Equal values are interchangeable in a symmetric sum, so weighting each
    distinct split by its count reproduces the full subset sum exactly.
    """
    groups: list[tuple[object, int]] = []
    for v in sorted(values):
        if groups and groups[-1][0] == v:
            groups[-1] = (v, groups[-1][1] + 1)
        else:
            groups.append((v, 1))
    # Per group, the (picked, left, C(c, t)) of each take t, made once.
    options = [
        [((v,) * t, (v,) * (c - t), comb(c, t)) for t in range(c + 1)]
        for v, c in groups
    ]
    for choice in itertools.product(*options):
        picked: tuple = ()
        left: tuple = ()
        count = 1
        for part_i, part_j, ways in choice:
            picked += part_i
            left += part_j
            count *= ways
        yield picked, left, count


def partitions(
    total: int, max_part: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive tuples summing to total; () for zero.

    Tuples come in descending lexicographic order.
    """
    if total < 0:
        return
    if total == 0:
        yield ()
        return
    top = total if max_part is None else min(total, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def indices_of_weight(
    w: int, max_length: int | None = None
) -> Iterator[MultiIndex]:
    """All multi-indices of weight w, optionally bounded in length, in the
    order of their partitions of w.

    Weight 0 yields only the zero index.
    """
    for parts in partitions(w):
        if max_length is None or len(parts) <= max_length:
            yield MultiIndex((i, 1) for i in parts)
