"""Volume recursions: spot values, gates, the expanded ladder and the
extension identities that live on top of them. The sweep against the
correlator route is the volume suite, which the acceptance gate runs."""

from fractions import Fraction

import pytest

from wprec.correlator import CorrelatorEngine, check_kdv_identity, check_shift_identity
from wprec.multiindex import ZERO, MultiIndex, delta
from wprec.volumes import (
    VolumeEngine,
    check_expanded_volume,
)


@pytest.fixture(scope="module")
def volumes():
    return VolumeEngine()


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


def test_spot_values(volumes):
    assert volumes.volume(0, 3) == 1
    for n in range(4, 9):
        assert volumes.volume(0, n, delta(n - 3)) == 1
    assert volumes.volume(1, 1, delta(1)) == Fraction(1, 24)
    assert volumes.volume(0, 4, MultiIndex({1: 1})) == 1
    assert volumes.volume(0, 5, MultiIndex({1: 2})) == 5
    assert volumes.volume(0, 5, delta(2)) == 1
    assert volumes.volume(1, 2, MultiIndex({1: 2})) == Fraction(1, 8)
    assert volumes.volume(1, 3, MultiIndex({1: 3})) == Fraction(7, 6)
    assert volumes.volume(2, 2, MultiIndex({1: 5})) == Fraction(787, 128)


def test_closed_spot_values(volumes):
    assert volumes.volume_closed(2, delta(3)) == Fraction(1, 1152)
    assert volumes.volume(2, 0, delta(3)) == Fraction(1, 1152)
    assert volumes.volume_closed(3, MultiIndex({1: 6})) == Fraction(
        176557, 107520
    )


def test_gates_and_errors(volumes):
    assert volumes.volume(0, 3, delta(1)) == 0
    assert volumes.volume(0, 2) == 0
    assert volumes.volume(1, 0, delta(1)) == 0
    assert volumes.volume_closed(2, delta(2)) == 0
    with pytest.raises(ValueError):
        volumes.volume(-1, 3)
    with pytest.raises(ValueError):
        volumes.volume(0, -1)
    with pytest.raises(ValueError):
        volumes.volume_closed(1, delta(1))


def test_expanded_ladder_examples(volumes):
    for genus, n, kappa in [
        (1, 1, delta(1)),
        (0, 4, delta(1)),
        (2, 1, MultiIndex({1: 4})),
        (2, 2, MultiIndex({1: 5})),
    ]:
        lhs, rhs = check_expanded_volume(volumes, genus, n, kappa)
        assert lhs == rhs, (genus, n, kappa, lhs, rhs)
        assert lhs != 0
    with pytest.raises(ValueError):
        check_expanded_volume(volumes, 1, 0, delta(1))
    with pytest.raises(ValueError):
        check_expanded_volume(volumes, 1, 1, delta(2))


def test_kdv_identity(engine):
    # Off-shell example: every term is zero.
    assert check_kdv_identity(engine, 1, ZERO, ()) == (0, 0)
    lhs, rhs = check_kdv_identity(engine, 1, delta(1), (1,))
    assert lhs == rhs and lhs != 0


def test_shift_identity(engine):
    assert check_shift_identity(engine, 2, ZERO, (), 1) == (0, 0)
    assert check_shift_identity(engine, 1, ZERO, (), 1) == (
        Fraction(1, 24),
        Fraction(1, 24),
    )
    with pytest.raises(ValueError):
        check_shift_identity(engine, 1, ZERO, (), -1)
