"""Descendant-expansion oracle: frozen values, closed forms, dual bookkeeping."""

from fractions import Fraction
from math import factorial, prod

import pytest

from wprec.kmz import KmzOracle, kappa_partition_terms
from wprec.multiindex import ZERO, MultiIndex, delta
from wprec.sweeps import correlator_signatures, psi_lists


@pytest.fixture(scope="module")
def oracle():
    return KmzOracle()


def test_partition_terms_frozen():
    assert kappa_partition_terms(ZERO) == ((Fraction(1), ()),)
    assert kappa_partition_terms(delta(2)) == ((Fraction(1), (3,)),)
    assert kappa_partition_terms(delta(5)) == ((Fraction(1), (6,)),)
    two_ones = dict()
    for coeff, exps in kappa_partition_terms(MultiIndex({1: 2})):
        two_ones[exps] = two_ones.get(exps, Fraction(0)) + coeff
    assert two_ones == {(3,): Fraction(-1), (2, 2): Fraction(1)}


def test_partition_terms_three_ones_grouped():
    # Hand expansion of {1:3}: one 3-block (+1, exp 4), a 2+1 split in two
    # orders with 3 deals each (-1/2 * 6 = -3, exps 3,2), all singletons
    # dealt 3! ways (+1/6 * 6 = 1, exps 2,2,2).
    grouped: dict = {}
    for coeff, exps in kappa_partition_terms(MultiIndex({1: 3})):
        grouped[exps] = grouped.get(exps, Fraction(0)) + coeff
    assert grouped == {
        (4,): Fraction(1),
        (3, 2): Fraction(-3),
        (2, 2, 2): Fraction(1),
    }


def test_partition_terms_leading_coefficient():
    # The all-singletons term always carries coefficient q!/q! = 1: it is
    # the leading substitution kappa_1^q -> psi^2 insertions.
    for q in range(1, 6):
        grouped: dict = {}
        for coeff, exps in kappa_partition_terms(MultiIndex({1: q})):
            grouped[exps] = grouped.get(exps, Fraction(0)) + coeff
        assert grouped[(2,) * q] == 1


def test_genus_zero_closed_form(oracle):
    # <tau_{d_1} ... tau_{d_n}>_0 = (n-3)! / prod(d_i!) on the nose.
    for n in range(3, 9):
        for psi in psi_lists(n - 3, n):
            expected = Fraction(
                factorial(n - 3), prod(factorial(d) for d in psi)
            )
            assert oracle.pure_psi(0, psi) == expected


def test_pure_frozen_values(oracle):
    assert oracle.pure_psi(0, (0, 0, 0)) == 1
    assert oracle.pure_psi(1, (1,)) == Fraction(1, 24)
    assert oracle.pure_psi(1, (0, 2)) == Fraction(1, 24)
    assert oracle.pure_psi(1, (1, 1)) == Fraction(1, 24)
    assert oracle.pure_psi(2, (4,)) == Fraction(1, 1152)
    assert oracle.pure_psi(2, (2, 3)) == Fraction(29, 5760)
    assert oracle.pure_psi(2, (2, 2, 2)) == Fraction(7, 240)
    assert oracle.pure_psi(3, (7,)) == Fraction(1, 82944)


def test_mixed_frozen_values(oracle):
    assert oracle.kmz_expand(0, delta(1), (0, 0, 0, 0)) == 1
    assert oracle.kmz_expand(1, delta(1), (0,)) == Fraction(1, 24)
    assert oracle.kmz_expand(2, MultiIndex({1: 3}), ()) == Fraction(43, 2880)
    assert oracle.kmz_expand(2, delta(3), ()) == Fraction(1, 1152)


def test_gates(oracle):
    # Off-dimension and unstable signatures are zero, not errors.
    assert oracle.pure_psi(0, (1, 0, 0)) == 0
    assert oracle.pure_psi(1, (0,)) == 0
    assert oracle.pure_psi(0, (0, 0)) == 0
    for genus, kappa, psi in [
        (0, ZERO, (1, 0, 0)),
        (1, ZERO, (0,)),
        (0, ZERO, (0, 0)),
        (0, delta(1), (0, 0, 0)),
        (1, delta(1), (1,)),
        (1, ZERO, ()),
    ]:
        assert oracle.kmz_expand(genus, kappa, psi) == 0
        assert oracle.kmz_expand_unordered(genus, kappa, psi) == 0
    with pytest.raises(ValueError):
        oracle.pure_psi(-1, ())
    with pytest.raises(ValueError):
        oracle.pure_psi(0, (0, 0, -1))
    with pytest.raises(ValueError):
        oracle.kmz_expand(-2, ZERO, ())
    with pytest.raises(ValueError):
        oracle.kmz_expand(0, ZERO, (-3,))


def test_permutation_invariance(oracle):
    assert oracle.pure_psi(2, (3, 2)) == oracle.pure_psi(2, (2, 3))
    assert oracle.pure_psi(0, (2, 0, 0, 1, 0)) == oracle.pure_psi(
        0, (0, 0, 0, 1, 2)
    )
    b = MultiIndex({1: 1, 2: 1})
    assert oracle.kmz_expand(1, b, (0, 2, 0)) == oracle.kmz_expand(
        1, b, (2, 0, 0)
    )


def test_ordered_matches_unordered_expansion(oracle):
    """The two partition bookkeepings agree on every small signature."""
    cases = 0
    for genus, kappa, psi in correlator_signatures(6):
        if not kappa:
            continue
        a = oracle.kmz_expand(genus, kappa, psi)
        b = oracle.kmz_expand_unordered(genus, kappa, psi)
        assert a == b, (genus, kappa, psi)
        cases += 1
    assert cases > 100


def test_pure_string_equation(oracle):
    """Adding a tau_0 insertion lowers one exponent, summed over choices."""
    for genus in range(4):
        for n in range(1, 9 - 2 * genus):
            if 2 * genus - 2 + n <= 0:
                continue
            for psi in psi_lists(3 * genus - 3 + n + 1, n):
                lhs = oracle.pure_psi(genus, psi + (0,))
                rhs = sum(
                    oracle.pure_psi(
                        genus, psi[:j] + (psi[j] - 1,) + psi[j + 1 :]
                    )
                    for j in range(n)
                    if psi[j] > 0
                )
                assert lhs == rhs, (genus, psi)
