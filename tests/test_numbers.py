"""Integer sequence tables: frozen values and independent oracles."""

from fractions import Fraction
from math import comb, prod

import pytest

from wprec.numbers import bernoulli, double_factorial, euler_number, moduli_dim


def test_double_factorial_frozen():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(7) == 105
    assert double_factorial(9) == 945


def test_double_factorial_product_oracle():
    # k!! = k (k-2) (k-4) ... down to 1 or 2.
    for k in range(-1, 26):
        assert double_factorial(k) == prod(range(k, 0, -2))


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)
    with pytest.raises(ValueError):
        double_factorial(-7)


def test_bernoulli_frozen():
    frozen = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
        14: Fraction(7, 6),
        16: Fraction(-3617, 510),
    }
    for m, value in frozen.items():
        assert bernoulli(m) == value


def test_bernoulli_defining_recurrence():
    """sum_{i=0}^{m} C(m+1, i) B_i == 0 for every m >= 1."""

    def b(i):
        # The vanishing odd values are rejected by the API; restore them
        # here so the defining sum can be formed literally.
        if i >= 3 and i % 2 == 1:
            return Fraction(0)
        return bernoulli(i)

    for m in range(1, 25):
        assert sum(comb(m + 1, i) * b(i) for i in range(m + 1)) == 0


def test_bernoulli_rejections():
    with pytest.raises(ValueError):
        bernoulli(3)
    with pytest.raises(ValueError):
        bernoulli(17)
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_euler_frozen():
    assert [euler_number(n) for n in range(7)] == [
        1, 1, 5, 61, 1385, 50521, 2702765,
    ]


def _zigzag(upto):
    """Boustrophedon triangle; row ends are the up/down numbers."""
    row = [1]
    ends = [1]
    for k in range(1, upto + 1):
        prev = row
        row = [0] * (k + 1)
        for i in range(1, k + 1):
            row[i] = row[i - 1] + prev[k - i]
        ends.append(row[k])
    return ends


def test_euler_against_boustrophedon_oracle():
    # Secant numbers sit at the even positions of the zigzag sequence.
    ends = _zigzag(20)
    for n in range(11):
        assert euler_number(n) == ends[2 * n]


def test_euler_rejects_negative():
    with pytest.raises(ValueError):
        euler_number(-1)


def test_moduli_dim_gate():
    # -1 exactly on the unstable (g, n), where no degree can match.
    unstable = {(0, 0), (0, 1), (0, 2), (1, 0)}
    for g in range(4):
        for n in range(5):
            expected = -1 if (g, n) in unstable else 3 * g - 3 + n
            assert moduli_dim(g, n) == expected
