"""Seeded generator of single-value ``wprec`` commands for ``point-queries``.

The generator knows only the CLI's input language: genus, kappa text
(``i:m`` pairs), psi exponents, Hodge tags and routes. It enumerates the
stable, in-dimension signatures itself, so a change to the package's own
sweeps cannot change the benchmark's inputs.

Queries come in rounds of six: two ``compute`` (dim <= 9, with a value
cache), one open and one closed ``volume`` (dim <= 7), and one ``hodge``
on each route (g <= 6). Only the signatures are drawn from the seed, so
every seed gives the same mix of kinds.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

COMPUTE_MAX_DIM = 9
VOLUME_MAX_DIM = 7
HODGE_MAX_GENUS = 6
HODGE_MAX_N = 3
HODGE_MAX_KAPPA_LENGTH = 2
LAMBDA_G = "lambda_g"
LAMBDA_G_GM1 = "lambda_g_lambda_gm1"


class Query(NamedTuple):
    """One CLI command and what is needed to re-derive its value."""

    kind: str  # compute | volume | hodge
    genus: int
    kappa: tuple[tuple[int, int], ...]  # ascending (index, multiplicity)
    psi: tuple[int, ...]  # descending exponents
    n: int = 0  # volume point count
    tag: str = ""  # hodge tag
    route: str = ""  # hodge route

    def argv(self, cache_path: str) -> list[str]:
        args = [self.kind, "-g", str(self.genus)]
        if self.kind == "volume":
            args += ["-n", str(self.n)]
        if self.kind == "hodge":
            args += ["--tag", self.tag, "--route", self.route]
        if self.kappa:
            args += ["--kappa", ",".join(f"{i}:{m}" for i, m in self.kappa)]
        if self.psi:
            args += ["--psi", ",".join(map(str, self.psi))]
        if self.kind == "compute":
            args += ["--cache", cache_path]
        return args


def kappa_weight(kappa: tuple[tuple[int, int], ...]) -> int:
    return sum(i * m for i, m in kappa)


def partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing positive tuples summing to total; () for zero."""
    if total == 0:
        yield ()
        return
    top = total if max_part is None else min(total, max_part)
    for first in range(top, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def kappas(weight: int, max_length: int | None = None) -> Iterator[tuple[tuple[int, int], ...]]:
    """Kappa multi-indices of the given weight, as (index, multiplicity) pairs."""
    for parts in partitions(weight):
        if max_length is not None and len(parts) > max_length:
            continue
        yield tuple((i, parts.count(i)) for i in sorted(set(parts)))


def psi_lists(total: int, n: int) -> Iterator[tuple[int, ...]]:
    """Descending exponent tuples of length n summing to total."""
    for parts in partitions(total):
        if len(parts) <= n:
            yield parts + (0,) * (n - len(parts))


def hodge_degree(tag: str, genus: int, n: int) -> int:
    return 2 * genus - 3 + n if tag == LAMBDA_G else genus - 2 + n


def stable_windows(max_dim: int, min_n: int) -> Iterator[tuple[int, int, int]]:
    """(genus, n, dim) with 2g - 2 + n > 0 and 0 <= dim = 3g - 3 + n <= max_dim."""
    for genus in range(max_dim // 3 + 2):
        for n in range(min_n, max_dim - 3 * genus + 4):
            dim = 3 * genus - 3 + n
            if 2 * genus - 2 + n > 0 and 0 <= dim <= max_dim:
                yield genus, n, dim


def compute_queries() -> list[Query]:
    out = []
    for genus, n, dim in stable_windows(COMPUTE_MAX_DIM, 0):
        for w in range(dim + 1):
            for kappa in kappas(w):
                for psi in psi_lists(dim - w, n):
                    out.append(Query("compute", genus, kappa, psi))
    return out


def open_volume_queries() -> list[Query]:
    return [
        Query("volume", genus, kappa, (), n=n)
        for genus, n, dim in stable_windows(VOLUME_MAX_DIM, 1)
        for kappa in kappas(dim)
    ]


def closed_volume_queries() -> list[Query]:
    return [
        Query("volume", genus, kappa, (), n=0)
        for genus in range(2, (VOLUME_MAX_DIM + 3) // 3 + 1)
        for kappa in kappas(3 * genus - 3)
    ]


def hodge_queries(route: str) -> list[Query]:
    out = []
    for genus in range(1, HODGE_MAX_GENUS + 1):
        for tag in (LAMBDA_G_GM1, LAMBDA_G):
            for n in range(HODGE_MAX_N + 1):
                degree = hodge_degree(tag, genus, n)
                if 2 * genus - 2 + n <= 0 or degree < 0:
                    continue
                for w in range(degree + 1):
                    for kappa in kappas(w, HODGE_MAX_KAPPA_LENGTH):
                        for psi in psi_lists(degree - w, n):
                            out.append(
                                Query("hodge", genus, kappa, psi, tag=tag, route=route)
                            )
    return out


def point_queries(seed: int, rounds: int) -> list[Query]:
    """The first `rounds` rounds of the query stream for `seed`."""
    computes = compute_queries()
    pools = [
        computes,
        computes,
        open_volume_queries(),
        closed_volume_queries(),
        hodge_queries("primary"),
        hodge_queries("direct"),
    ]
    rng = random.Random(seed)
    return [rng.choice(pool) for _ in range(rounds) for pool in pools]


def in_dimension(query: Query) -> bool:
    """Stable, with degrees filling the dimension the query's kind requires."""
    genus, n = query.genus, len(query.psi)
    if query.kind == "volume":
        n = query.n
    if 2 * genus - 2 + n <= 0:
        return False
    degree = kappa_weight(query.kappa) + sum(query.psi)
    if query.kind == "hodge":
        return degree == hodge_degree(query.tag, genus, n)
    return degree == 3 * genus - 3 + n
