"""Socle pairings: seeds, both kappa routes, provider files."""

from fractions import Fraction

import pytest

from wprec.hodge import (
    LAMBDA_G,
    LAMBDA_G_GM1,
    DefaultBaseValues,
    FileBaseValues,
    HodgeEngine,
    check_pairing_reduction,
    pairing_degree,
)
from wprec.multiindex import ZERO, delta


@pytest.fixture(scope="module")
def engine():
    return HodgeEngine()


def test_pairing_degree():
    assert pairing_degree(LAMBDA_G, 2, 1) == 2
    assert pairing_degree(LAMBDA_G_GM1, 2, 1) == 1
    assert pairing_degree(LAMBDA_G_GM1, 1, 1) == 0
    with pytest.raises(ValueError):
        pairing_degree("lambda", 2, 1)


def test_default_base_values():
    seeds = DefaultBaseValues()
    assert seeds.base_value(1, LAMBDA_G) == Fraction(1, 24)
    assert seeds.base_value(1, LAMBDA_G_GM1) == Fraction(1, 24)
    assert seeds.base_value(2, LAMBDA_G) == Fraction(7, 5760)
    assert seeds.base_value(2, LAMBDA_G_GM1) == Fraction(1, 2880)
    with pytest.raises(LookupError):
        seeds.base_value(0, LAMBDA_G)
    with pytest.raises(ValueError):
        seeds.base_value(2, "nope")


def test_file_base_values(tmp_path):
    table = tmp_path / "seeds.txt"
    table.write_text(
        "# one-point seeds\n"
        "\n"
        "1, lambda_g, 1/24\n"
        "2, lambda_g_lambda_gm1, 1/2880\n"
    )
    provider = FileBaseValues(str(table))
    assert provider.base_value(1, LAMBDA_G) == Fraction(1, 24)
    assert provider.base_value(2, LAMBDA_G_GM1) == Fraction(1, 2880)
    with pytest.raises(LookupError, match=r"g=5, tag=lambda_g"):
        provider.base_value(5, LAMBDA_G)

    bad = tmp_path / "bad.txt"
    bad.write_text("1, lambda_g\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1"):
        FileBaseValues(str(bad))
    bad.write_text("# fine\n1, lambda_q, 1/24\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2.*lambda_q"):
        FileBaseValues(str(bad))


def test_frozen_pairings(engine):
    assert engine.pure_pairing(2, LAMBDA_G_GM1, ()) == Fraction(1, 5760)
    assert engine.pure_pairing(2, LAMBDA_G_GM1, (0, 2)) == Fraction(1, 2880)
    assert engine.pure_pairing(2, LAMBDA_G, (0, 3)) == Fraction(7, 5760)
    both = [
        engine.correlator(1, LAMBDA_G, delta(1), (0, 0)),
        engine.correlator_direct(1, LAMBDA_G, delta(1), (0, 0)),
    ]
    assert both == [Fraction(1, 24)] * 2
    both = [
        engine.correlator(2, LAMBDA_G, delta(1), (1, 1)),
        engine.correlator_direct(2, LAMBDA_G, delta(1), (1, 1)),
    ]
    assert both == [Fraction(7, 480)] * 2


def test_gates_and_validation(engine):
    assert engine.pure_pairing(1, LAMBDA_G, ()) == 0
    assert engine.correlator(2, LAMBDA_G, delta(1), (0,)) == 0
    assert engine.correlator_direct(2, LAMBDA_G_GM1, delta(2), ()) == 0
    with pytest.raises(ValueError):
        engine.pure_pairing(0, LAMBDA_G, (0,))
    with pytest.raises(ValueError):
        engine.correlator(2, "socle", ZERO, (2,))
    with pytest.raises(ValueError):
        engine.correlator_direct(2, LAMBDA_G, ZERO, (-1, 4))


def test_psi_order_irrelevant(engine):
    assert engine.pure_pairing(2, LAMBDA_G, (3, 0)) == engine.pure_pairing(
        2, LAMBDA_G, (0, 3)
    )
    assert engine.correlator(
        2, LAMBDA_G, delta(1), (0, 2)
    ) == engine.correlator(2, LAMBDA_G, delta(1), (2, 0))


def test_pairing_reduction(engine):
    lhs, rhs = check_pairing_reduction(engine, 2, LAMBDA_G, 2, 1, ())
    assert lhs == rhs and lhs != 0
    # Degenerate pivot: the merge term has coefficient built from d = 0.
    lhs, rhs = check_pairing_reduction(engine, 2, LAMBDA_G_GM1, 0, 2, ())
    assert lhs == rhs
    with pytest.raises(ValueError):
        check_pairing_reduction(engine, 2, LAMBDA_G, 1, 1, (0,))
    with pytest.raises(ValueError):
        check_pairing_reduction(engine, 2, LAMBDA_G, -1, 1, ())
