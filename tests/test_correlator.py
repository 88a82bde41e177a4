"""Pivot engine: frozen values, gates, pivot independence, identity checks.

Expected numbers were computed with the descendant-expansion oracle first
and cross-checked against the classical tables before being frozen here.
"""

from fractions import Fraction

import pytest

import wprec.correlator
from conftest import subsets
from wprec.constants import ConstantTable
from wprec.correlator import (
    INITIAL_VALUES,
    CorrelatorEngine,
    CorrelatorKey,
    check_dilaton_identity,
    check_kdv_identity,
    check_shift_identity,
    check_string_identity,
    check_transfer_identity,
)
from wprec.multiindex import ZERO, MultiIndex, delta, multi_binomial, splits2
from wprec.numbers import double_factorial
from wprec.sweeps import correlator_signatures, kdv_cases, rshift_cases


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


def test_key_canonicalization_and_text():
    key = CorrelatorKey.make(1, MultiIndex({1: 1}), (0, 2, 1))
    assert key.psi == (2, 1, 0)
    assert key.kappa == delta(1)
    assert key.text() == "1|1:1|2,1,0"
    assert CorrelatorKey.from_text("1|1:1|2,1,0") == key
    assert CorrelatorKey.from_text("2||") == CorrelatorKey.make(2)
    with pytest.raises(ValueError):
        CorrelatorKey.from_text("1|1:1")
    with pytest.raises(ValueError):
        CorrelatorKey.make(-1)
    with pytest.raises(ValueError):
        CorrelatorKey.make(0, ZERO, (0, -1, 0))


def test_initial_values_served_exactly(engine):
    assert engine.correlator(0, ZERO, (0, 0, 0)) == 1
    assert engine.correlator(1, ZERO, (1,)) == Fraction(1, 24)
    assert engine.correlator(1, delta(1), (0,)) == Fraction(1, 24)
    assert len(INITIAL_VALUES) == 3


def test_frozen_pure_values(engine):
    assert engine.correlator(1, ZERO, (0, 2)) == Fraction(1, 24)
    assert engine.correlator(1, ZERO, (1, 1)) == Fraction(1, 24)
    assert engine.correlator(2, ZERO, (4,)) == Fraction(1, 1152)
    assert engine.correlator(2, ZERO, (3, 2)) == Fraction(29, 5760)
    assert engine.correlator(2, ZERO, (2, 2, 2)) == Fraction(7, 240)
    assert engine.correlator(3, ZERO, (7,)) == Fraction(1, 82944)


def test_frozen_mixed_values(engine):
    assert engine.correlator(0, delta(1), (0, 0, 0, 0)) == 1
    assert engine.correlator(2, MultiIndex({1: 3})) == Fraction(43, 2880)
    assert engine.correlator(2, delta(3)) == Fraction(1, 1152)
    assert engine.correlator(3, MultiIndex({1: 6})) == Fraction(
        176557, 107520
    )


def test_gates(engine):
    assert engine.correlator(0, ZERO, (1, 0, 0)) == 0
    assert engine.correlator(1, delta(1), (1,)) == 0
    assert engine.correlator(0, ZERO, (0, 0)) == 0
    assert engine.correlator(1, ZERO) == 0
    assert engine.correlator(0, delta(3)) == 0


def test_pivot_independence(engine):
    """Any insertion can play the distinguished role, not just the largest."""
    for genus, kappa, psi in correlator_signatures(6):
        canonical = engine.correlator(genus, kappa, psi)
        for pivot in range(len(psi)):
            got = engine.correlator_via_pivot(genus, kappa, psi, pivot)
            assert got == canonical, (genus, kappa, psi, pivot)


def test_pivot_argument_validation(engine):
    with pytest.raises(ValueError):
        engine.correlator_via_pivot(1, ZERO, (1, 1), 2)
    # n = 0 signatures route through the insertion-free reduction.
    assert engine.correlator_via_pivot(2, delta(3), (), 0) == Fraction(1, 1152)


def test_memo_reproducible(engine):
    """A fresh engine recomputes every memoized value identically."""
    engine.correlator(2, delta(1), (2, 2))
    engine.correlator(2, MultiIndex({1: 2}), (0, 1))
    fresh = CorrelatorEngine()
    for key, value in list(engine.memo.items()):
        assert fresh.correlator(key.genus, key.kappa, key.psi) == value, key


def test_transfer_identity_examples(engine):
    # Off-dimension signatures hold as 0 = 0.
    for genus, kappa, psi in [
        (1, delta(1), (1,)),
        (2, MultiIndex({1: 2}), (1, 1)),
    ]:
        assert check_transfer_identity(engine, genus, kappa, psi) == (0, 0)
    # In-dimension signatures exercise the move sum for real.
    for genus, kappa, psi in [
        (0, ZERO, (1, 0, 0, 0)),
        (1, ZERO, (2, 0)),
        (1, delta(1), (1, 0)),
        (2, ZERO, (3, 2)),
        (2, delta(2), (2, 1)),
    ]:
        lhs, rhs = check_transfer_identity(engine, genus, kappa, psi)
        assert lhs == rhs, (genus, kappa, psi, lhs, rhs)
        assert lhs != 0
    with pytest.raises(ValueError):
        check_transfer_identity(engine, 1, ZERO, ())


def test_transfer_identity_fails_on_seeds(engine):
    """The checker stays literal: seeds are outside the identity's domain."""
    assert check_transfer_identity(engine, 0, ZERO, (0, 0, 0)) == (1, 0)
    assert check_transfer_identity(engine, 1, ZERO, (1,)) == (Fraction(1, 8), 0)
    # The third seed satisfies it by cancellation.
    lhs, rhs = check_transfer_identity(engine, 1, delta(1), (0,))
    assert lhs == rhs


def _literal_split_pairs(engine, genus, kappa, exps, head_i, head_j):
    """The separating-node sum with one term per position subset of exps."""
    total = Fraction(0)
    for left, right, _ in splits2(kappa):
        cb = multi_binomial(kappa, left)
        for part_i, part_j in subsets(exps):
            for gi in range(genus + 1):
                total += (
                    cb
                    * engine.correlator(gi, left, head_i + part_i)
                    * engine.correlator(genus - gi, right, head_j + part_j)
                )
    return total


def test_split_pairs_equals_the_subset_sum(engine, monkeypatch):
    """Grouping equal-valued complement pairs leaves every transfer, KdV
    and shift right side unchanged on all their signatures with dim <= 6."""
    cases = (
        [(check_transfer_identity, sig) for sig in correlator_signatures(6, 1)]
        + [(check_kdv_identity, sig) for sig in kdv_cases(6)]
        + [(check_shift_identity, sig) for sig in rshift_cases(6)]
    )
    grouped = [check(engine, *sig)[1] for check, sig in cases]
    monkeypatch.setattr(wprec.correlator, "_split_pairs", _literal_split_pairs)
    assert [check(engine, *sig)[1] for check, sig in cases] == grouped


def test_string_identity(engine):
    # The one-below-dimension shell is where the identity is nontrivial.
    assert check_string_identity(engine, 0, delta(1), (0, 0, 0)) == (0, 0)
    assert check_string_identity(engine, 1, ZERO, (2,)) == (
        Fraction(1, 24),
        Fraction(1, 24),
    )
    # As written with exponent 1 the signature is off-shell: 0 = 0.
    assert check_string_identity(engine, 1, ZERO, (1,)) == (0, 0)


def test_dilaton_identity(engine):
    assert check_dilaton_identity(engine, 1, ZERO, (1,)) == (
        Fraction(1, 24),
        Fraction(1, 24),
    )


def _broken_alpha():
    """An alpha table whose entry at delta(1), and every entry solved from
    it later, is off by the corruption."""
    table = ConstantTable("alpha", lambda w: double_factorial(2 * w + 1))
    table.value(delta(1))
    table._values[delta(1)] += 1
    return table


def test_corrupted_alpha_breaks_oracle_agreement():
    broken = CorrelatorEngine(alpha_table=_broken_alpha())
    # The seed path bypasses alpha, so probe a derived mixed value.
    assert broken.correlator(0, delta(1), (0, 0, 0, 0)) != 1


def test_bracket_table_is_per_engine():
    """Brackets hold sub-values, which depend on the alpha table, so each
    engine fills its own: a broken engine after a good one neither reads
    nor writes the good brackets."""
    kappa = MultiIndex({1: 3})
    want = Fraction(43, 2880)
    good = CorrelatorEngine()
    assert good.correlator(2, kappa) == want
    broken = CorrelatorEngine(alpha_table=_broken_alpha())
    assert broken.correlator(2, kappa) != want
    assert broken.brackets != good.brackets
    assert CorrelatorEngine().correlator(2, kappa) == want


def test_bracket_table_does_not_depend_on_evaluation_order():
    signatures = list(correlator_signatures(7))
    forward, backward = CorrelatorEngine(), CorrelatorEngine()
    for sig in signatures:
        forward.correlator(*sig)
    for sig in reversed(signatures):
        backward.correlator(*sig)
    assert forward.brackets == backward.brackets
    assert forward.memo == backward.memo
    assert forward.brackets
