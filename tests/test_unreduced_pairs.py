"""The hot kernels add their terms as unreduced integer pairs and build one
Fraction per evaluation.

Checked here: add_ratio against the Fraction sum; kmz_expand against the
per-term Fraction expansion it replaced (one Fraction per kappa partition
term, over kappa_partition_terms and pure_psi); and every value leaving
the pivot engine, the KMZ oracle and the volume engine is a Fraction in
lowest terms (Fraction(n, d) normalises, but a kernel that handed out an
unreduced pair or an int would pass an equality test).
"""

import itertools
import math
from fractions import Fraction

import pytest

from wprec.correlator import CorrelatorEngine
from wprec.kmz import KmzOracle, kappa_partition_terms
from wprec.multiindex import indices_of_weight
from wprec.numbers import add_ratio
from wprec.sweeps import correlator_signatures, volume_signatures
from wprec.volumes import VolumeEngine

NUMERATORS = (-7, -1, 0, 1, 5, 12)
DENOMINATORS = (1, 2, 3, 4, 6, 9, 35, 5760)


def expand_per_term(oracle, genus, kappa, psi):
    """kmz_expand with one Fraction per partition term."""
    total = Fraction(0)
    for coeff, extra in kappa_partition_terms(kappa):
        total += coeff * oracle.pure_psi(genus, tuple(psi) + extra)
    return total


def assert_lowest_terms(value):
    assert type(value) is Fraction, value
    assert value.denominator > 0
    assert math.gcd(value.numerator, value.denominator) == 1, value


def test_add_ratio_matches_the_fraction_sum():
    pairs = list(itertools.product(NUMERATORS, DENOMINATORS))
    for (num, den), (xn, xd) in itertools.product(pairs, repeat=2):
        got_n, got_d = add_ratio(num, den, xn, xd)
        assert got_d == math.lcm(den, xd), (num, den, xn, xd)
        assert Fraction(got_n, got_d) == Fraction(num, den) + Fraction(xn, xd)


def test_add_ratio_keeps_equal_denominators():
    # Unreduced on purpose: the sum stays over the shared denominator.
    assert add_ratio(2, 4, 6, 4) == (8, 4)
    assert add_ratio(0, 1, -3, 1) == (-3, 1)


@pytest.fixture(scope="module")
def oracle():
    return KmzOracle()


def test_kmz_expand_matches_the_per_term_expansion(oracle):
    cases = 0
    for genus, kappa, psi in correlator_signatures(8, min_n=0):
        if not kappa:
            continue
        got = oracle.kmz_expand(genus, kappa, psi)
        assert got == expand_per_term(oracle, genus, kappa, psi), (genus, kappa, psi)
        cases += 1
    assert cases > 1000


def test_kernel_values_are_fractions_in_lowest_terms(oracle):
    engine = CorrelatorEngine()
    for genus, kappa, psi in correlator_signatures(7, min_n=0):
        assert_lowest_terms(engine.correlator(genus, kappa, psi))
        assert_lowest_terms(oracle.kmz_expand(genus, kappa, psi))
    volumes = VolumeEngine()
    for genus, n, kappa in volume_signatures(7):
        assert_lowest_terms(volumes.volume(genus, n, kappa))
    for genus in (2, 3):
        for kappa in indices_of_weight(3 * genus - 3):
            assert_lowest_terms(volumes.volume(genus, 0, kappa))
