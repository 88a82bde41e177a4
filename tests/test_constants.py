"""Coefficient tables: defining relations, closed forms, classical sequences."""

from fractions import Fraction
from math import factorial

import pytest

from wprec.constants import (
    ALPHA,
    GAMMA_FACT,
    GAMMA_ODD,
    ConstantTable,
    shift_polynomial,
)
from wprec.multiindex import ZERO, MultiIndex, delta, indices_of_weight, splits2
from wprec.numbers import bernoulli, double_factorial, euler_number


def beta(l):
    """Generating constants: beta_l = (-1)^(l-1) 2^l (2^(2l) - 2) B_(2l)/(2l)!,
    with alpha({1: l}) = l! beta_l."""
    if l < 1:
        raise ValueError(f"beta defined for l >= 1, got {l}")
    sign = 1 if l % 2 else -1
    return sign * 2**l * (2 ** (2 * l) - 2) * bernoulli(2 * l) / factorial(2 * l)


def gamma_kdv(b):
    """Closed-form inverse row to alpha under the same convolution:
    (-1)^length(b) / (b! (2 weight(b) + 1)!!)."""
    sign = -1 if b.length % 2 else 1
    return Fraction(sign, b.factorial() * double_factorial(2 * b.weight + 1))


def _denominator(table):
    return {
        "alpha": lambda w: double_factorial(2 * w + 1),
        "gamma_odd": lambda w: double_factorial(2 * w - 1),
        "gamma_fact": factorial,
    }[table.kind]


def test_defining_convolution_all_tables():
    """Every row of the triangular system sums to zero, evaluated literally.

    The solver derives the b entry from the other terms of its row, so
    re-evaluating the whole row is an independent check of the algebra.
    """
    for table in (ALPHA, GAMMA_ODD, GAMMA_FACT):
        denom = _denominator(table)
        assert table.value(ZERO) == 1
        for w in range(1, 9):
            for b in indices_of_weight(w):
                row = Fraction(0)
                for left, right, _ in splits2(b):
                    sign = -1 if left.length % 2 else 1
                    row += (
                        sign
                        * table.value(left)
                        / (
                            left.factorial()
                            * right.factorial()
                            * denom(right.weight)
                        )
                    )
                assert row == 0, (table.kind, b)


def test_alpha_single_index_closed_form():
    for l in range(1, 16):
        assert ALPHA.value(delta(l)) == Fraction(1, double_factorial(2 * l + 1))


def test_alpha_repeated_ones_closed_form():
    assert beta(1) == Fraction(1, 3)
    assert beta(2) == Fraction(7, 90)
    # 3! beta_3 = alpha({1:3}) = 31/315, so beta_3 = 31/1890.
    assert beta(3) == Fraction(31, 1890)
    for l in range(1, 9):
        assert ALPHA.value(MultiIndex({1: l})) == factorial(l) * beta(l)
    with pytest.raises(ValueError):
        beta(0)


def test_alpha_small_frozen():
    assert ALPHA.value(ZERO) == 1
    assert ALPHA.value(delta(1)) == Fraction(1, 3)
    assert ALPHA.value(delta(3)) == Fraction(1, 105)
    assert ALPHA.value(MultiIndex({1: 1, 2: 1})) == Fraction(11, 315)
    assert ALPHA.value(MultiIndex({1: 3})) == Fraction(31, 315)


def test_gamma_odd_euler_sequence():
    # (2l-1)!! gamma_odd({1: l}) runs through the secant numbers.
    for l in range(9):
        b = MultiIndex({1: l}) if l else ZERO
        assert GAMMA_ODD.value(b) * double_factorial(2 * l - 1) == euler_number(l)


def test_gamma_fact_bessel_sequence():
    frozen = [
        Fraction(1),
        Fraction(1),
        Fraction(3, 2),
        Fraction(19, 6),
        Fraction(211, 24),
        Fraction(1217, 40),
    ]
    for k, value in enumerate(frozen):
        b = MultiIndex({1: k}) if k else ZERO
        assert GAMMA_FACT.value(b) == value


def test_gamma_single_index_rows():
    for l in range(1, 11):
        assert GAMMA_ODD.value(delta(l)) == Fraction(1, double_factorial(2 * l - 1))
        assert GAMMA_FACT.value(delta(l)) == Fraction(1, factorial(l))


def test_gamma_kdv_inverts_alpha():
    """sum over L + L' = b of (alpha_L / L!) gamma_kdv(L') = [b == 0]."""
    assert gamma_kdv(ZERO) == 1
    for w in range(9):
        for b in indices_of_weight(w):
            acc = sum(
                ALPHA.value(left) / left.factorial() * gamma_kdv(right)
                for left, right, _ in splits2(b)
            )
            assert acc == (1 if not b else 0), b


def test_gamma_kdv_closed_form():
    b = MultiIndex({1: 2, 3: 1})
    assert gamma_kdv(b) == Fraction(-1, 2 * double_factorial(11))
    assert gamma_kdv(delta(2)) == Fraction(-1, 15)


def test_shift_polynomial_frozen():
    s1 = delta(1)
    assert shift_polynomial(2) == {s1: Fraction(1)}
    assert shift_polynomial(3) == {
        delta(2): Fraction(1),
        MultiIndex({1: 2}): Fraction(-1, 2),
    }
    assert shift_polynomial(4) == {
        delta(3): Fraction(1),
        MultiIndex({1: 1, 2: 1}): Fraction(-1),
        MultiIndex({1: 3}): Fraction(1, 6),
    }


def test_shift_polynomial_truncation_and_errors():
    with pytest.raises(ValueError):
        shift_polynomial(1)


def test_fresh_table_matches_module_table():
    mine = ConstantTable("alpha", lambda w: double_factorial(2 * w + 1))
    for w in range(6):
        for b in indices_of_weight(w):
            assert mine.value(b) == ALPHA.value(b)
