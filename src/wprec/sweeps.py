"""Deterministic signature sweeps shared by the verify suites and tests,
and the one runner every suite's cases go through.

Each generator enumerates exactly the stable signatures in a bounded
window, ordered reproducibly (genus, then point count, then kappa weight).
The identity sweeps pick the degree shell on which the identity in
question is nontrivial; off-shell signatures make both sides vanish
termwise and would only pad the case counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .hodge import LAMBDA_G, LAMBDA_G_GM1, pairing_degree
from .multiindex import MultiIndex, indices_of_weight, partitions
from .numbers import moduli_dim


def psi_lists(total: int, n: int) -> Iterator[tuple[int, ...]]:
    """Descending exponent tuples of length n summing to total."""
    for shape in partitions(total):
        if len(shape) <= n:
            yield shape + (0,) * (n - len(shape))


def stable_windows(max_dim: int, min_n: int) -> Iterator[tuple[int, int, int]]:
    """Stable (genus, n >= min_n, dimension) with dimension at most max_dim."""
    for genus in range((max_dim + 3) // 3 + 1):
        for n in range(min_n, max_dim - 3 * genus + 4):
            dim = moduli_dim(genus, n)
            if 0 <= dim <= max_dim:
                yield genus, n, dim


def _fillings(
    degree: int, n: int, max_length: int | None = None
) -> Iterator[tuple[MultiIndex, tuple[int, ...]]]:
    """(kappa, psi) with n exponents and total degree `degree` (none if < 0),
    by kappa weight, then kappa index, then psi."""
    for w in range(degree + 1):
        for kappa in indices_of_weight(w, max_length=max_length):
            for psi in psi_lists(degree - w, n):
                yield kappa, psi


def correlator_signatures(
    max_dim: int, min_n: int = 1, shell: int = 0
) -> Iterator[tuple[int, MultiIndex, tuple[int, ...]]]:
    """Stable (genus, kappa, psi) with dimension at most max_dim.

    Degrees sum to dimension + shell; shell 0 walks the in-dimension
    signatures, shell 1 the shell on which point-adding identities bite.
    """
    for genus, n, dim in stable_windows(max_dim, min_n):
        for kappa, psi in _fillings(dim + shell, n):
            yield genus, kappa, psi


def volume_signatures(
    max_dim: int,
) -> Iterator[tuple[int, int, MultiIndex]]:
    """Stable (genus, n >= 1, kappa) with kappa filling the dimension."""
    for genus, n, dim in stable_windows(max_dim, 1):
        for kappa in indices_of_weight(dim):
            yield genus, n, kappa


def hodge_signatures(
    max_genus: int = 3,
) -> Iterator[tuple[int, str, MultiIndex, tuple[int, ...]]]:
    """In-dimension (genus, tag, kappa, psi) for both pairing tags, with at
    most 3 points and 2 kappa factors."""
    for genus in range(1, max_genus + 1):
        for tag in (LAMBDA_G_GM1, LAMBDA_G):
            for n in range(4):
                degree = pairing_degree(tag, genus, n)
                for kappa, psi in _fillings(degree, n, max_length=2):
                    yield genus, tag, kappa, psi


def _extension_windows(max_dim: int) -> Iterator[tuple[int, int, int]]:
    """(genus, n, shell) whose extension to (g, n + 2) is stable, dim <= max_dim.

    shell = dim - 1 is the degree left once the added tau_1 is placed.
    """
    for genus, n, dim in stable_windows(max_dim, 2):
        yield genus, n - 2, dim - 1


def kdv_cases(
    max_dim: int,
) -> Iterator[tuple[int, MultiIndex, tuple[int, ...]]]:
    """(genus, kappa, psi) whose tau_0 tau_1 extension is in-dimension."""
    for genus, n, shell in _extension_windows(max_dim):
        for kappa, psi in _fillings(shell, n):
            yield genus, kappa, psi


def rshift_cases(
    max_dim: int,
) -> Iterator[tuple[int, MultiIndex, tuple[int, ...], int]]:
    """(genus, kappa, psi, r) whose tau_1 tau_r extension is in-dimension."""
    for genus, n, shell in _extension_windows(max_dim):
        for w in range(shell + 1):
            for kappa in indices_of_weight(w):
                for partial in range(shell - w + 1):
                    for psi in psi_lists(partial, n):
                        yield genus, kappa, psi, shell - w - partial


def pairing_reduction_cases(
    max_genus: int = 3,
) -> Iterator[tuple[int, str, int, int, tuple[int, ...]]]:
    """(genus, tag, d, d0, rest) hitting the two-insertion rule in-dimension.

    rest holds at most 2 entries, all positive, as the rule requires.
    """
    for genus in range(1, max_genus + 1):
        for tag in (LAMBDA_G_GM1, LAMBDA_G):
            for extra in range(3):
                n = extra + 2
                degree = pairing_degree(tag, genus, n)
                for d in range(degree + 1):
                    for d0 in range(degree - d + 1):
                        leftover = degree - d - d0
                        for rest in partitions(leftover):
                            if len(rest) == extra:
                                yield genus, tag, d, d0, rest


class Report(NamedTuple):
    """Outcome of a suite: cases is the number of cases compared, or the
    1-based position of the first mismatch, which detail then names."""

    equal: bool
    cases: int
    detail: str | None


def run_cases(cases: Iterable[tuple], positive: bool = False) -> Report:
    """Suite runner over cases (name, lhs, rhs, sides): the values two routes
    give for one signature, and the labels that name those routes in a FAIL
    detail. Stops at the first mismatch, or with positive at the first lhs
    that is not positive."""
    count = 0
    for count, (name, lhs, rhs, (left, right)) in enumerate(cases, start=1):
        if lhs != rhs:
            return Report(False, count, f"{name}: {left}{lhs} != {right}{rhs}")
        if positive and lhs <= 0:
            detail = f"{name}: expected a positive value, got {lhs}"
            return Report(False, count, detail)
    return Report(True, count, None)
