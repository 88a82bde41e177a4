"""Acceptance gate: eleven checks, all exact, one test per criterion.

Where a shipped ``verify`` suite checks a criterion, the test runs that
suite and pins its exact ``PASS (N cases)`` line; the loops kept here check
what no suite does. Each test prints one summary line (visible with -v as
the test outcome, and with -s as an ACCEPTANCE line carrying case count and
elapsed time). Runtime targets are reported, not asserted; wall-clock
assertions are flaky under load.
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import run
from wprec.constants import ALPHA, GAMMA_FACT, GAMMA_ODD, ConstantTable
from wprec.correlator import CorrelatorEngine, check_string_identity
from wprec.hodge import DefaultBaseValues, HodgeEngine
from wprec.kmz import KmzOracle
from wprec.multiindex import ZERO, MultiIndex, delta, indices_of_weight
from wprec.numbers import bernoulli, double_factorial, euler_number
from wprec.sweeps import correlator_signatures, hodge_signatures, volume_signatures
from wprec.volumes import (
    VolumeEngine,
    check_expanded_volume,
)

# The verify suites that check each criterion, in SUITES order, with the
# exact case count each one prints.
CRITERION_SUITES = {
    4: [(("oracle", "--max-dim", "9"), 2521)],
    5: [(("transfer",), 371)],
    6: [(("string",), 666), (("dilaton",), 388)],
    7: [(("kdv",), 166), (("rshift",), 335)],
    8: [(("volume", "--max-dim", "9"), 394)],
    9: [(("shift",), 348)],
    10: [(("hodge",), 308)],
}


def _suites(capsys, number: int) -> int:
    """Run the suites of one criterion in one verify call; return their
    total case count."""
    argv = [
        arg
        for (suite, *sizes), _ in CRITERION_SUITES[number]
        for arg in ("--suite", suite, *sizes)
    ]
    counts = [count for _, count in CRITERION_SUITES[number]]
    out = "".join(f"PASS ({count} cases)\n" for count in counts)
    assert run(capsys, "verify", *argv) == (0, out, "")
    return sum(counts)


@pytest.fixture(scope="module")
def engine():
    return CorrelatorEngine()


@pytest.fixture(scope="module")
def oracle():
    return KmzOracle()


@pytest.fixture(scope="module")
def volumes():
    return VolumeEngine()


@pytest.fixture(scope="module")
def hodge():
    return HodgeEngine()


def _report(number: int, name: str, cases: int, started: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({cases} cases, {elapsed:.2f}s)")


def test_criterion_01_constant_tables():
    started = time.perf_counter()
    cases = 0
    for l in range(1, 16):
        assert ALPHA.value(delta(l)) == Fraction(1, double_factorial(2 * l + 1))
        sign = 1 if l % 2 else -1
        closed = (
            sign
            * (2 ** (2 * l) - 2)
            * bernoulli(2 * l)
            / double_factorial(2 * l - 1)
        )
        assert ALPHA.value(MultiIndex({1: l})) == closed, l
        cases += 2
    _report(1, "alpha closed forms to weight 15", cases, started)


def test_criterion_02_gamma_euler():
    started = time.perf_counter()
    expected = [1, 1, 5, 61, 1385, 50521]
    for l, value in enumerate(expected):
        b = MultiIndex({1: l}) if l else ZERO
        assert GAMMA_ODD.value(b) * double_factorial(2 * l - 1) == value
        assert value == euler_number(l)
    _report(2, "gamma against secant numbers", len(expected), started)


def test_criterion_03_gamma_bessel():
    started = time.perf_counter()
    expected = [
        Fraction(1),
        Fraction(1),
        Fraction(3, 2),
        Fraction(19, 6),
        Fraction(211, 24),
        Fraction(1217, 40),
    ]
    for k, value in enumerate(expected):
        b = MultiIndex({1: k}) if k else ZERO
        assert GAMMA_FACT.value(b) == value
    _report(3, "gamma factorial row", len(expected), started)


def test_criterion_04_master_oracle(capsys):
    started = time.perf_counter()
    cases = _suites(capsys, 4)
    _report(4, "engine equals expansion, dim <= 9", cases, started)


def test_criterion_05_transfer_identity(capsys):
    started = time.perf_counter()
    cases = _suites(capsys, 5)
    _report(5, "transfer identity, dim <= 6", cases, started)


def test_criterion_06_string_and_dilaton(capsys, engine):
    started = time.perf_counter()
    # The suites walk the shell where the string identity carries content
    # and the in-dimension dilaton signatures, n = 0 included.
    cases = _suites(capsys, 6)
    # The literal criterion sweep: on in-dimension signatures the string
    # identity holds termwise.
    for genus, kappa, psi in correlator_signatures(6):
        lhs, rhs = check_string_identity(engine, genus, kappa, psi)
        assert lhs == rhs
        cases += 1
    _report(6, "string and dilaton identities", cases, started)


def test_criterion_07_extension_identities(capsys):
    started = time.perf_counter()
    cases = _suites(capsys, 7)
    _report(7, "tau_0 tau_1 and tau_1 tau_r extensions", cases, started)


def test_criterion_08_volume_routes(capsys, volumes):
    started = time.perf_counter()
    cases = _suites(capsys, 8)
    for genus, n, kappa in volume_signatures(9):
        lhs, rhs = check_expanded_volume(volumes, genus, n, kappa)
        assert lhs == rhs, (genus, n, kappa)
        cases += 1
    assert volumes.volume(0, 3) == 1
    for n in range(4, 10):
        assert volumes.volume(0, n, delta(n - 3)) == 1
    assert volumes.volume(1, 1, delta(1)) == Fraction(1, 24)
    cases += 8
    _report(8, "volume routes, ladder and spot values", cases, started)


def test_criterion_09_shift_check(capsys):
    started = time.perf_counter()
    cases = _suites(capsys, 9)
    _report(9, "series shift at W=6 S=3 T=7", cases, started)


class _Rescaled:
    def __init__(self, factor: Fraction):
        self._factor = factor
        self._inner = DefaultBaseValues()

    def base_value(self, genus: int, tag: str) -> Fraction:
        return self._factor * self._inner.base_value(genus, tag)


def test_criterion_10_hodge_routes(capsys, hodge):
    started = time.perf_counter()
    cases = _suites(capsys, 10)
    rng = random.Random(0x5EED)
    factor = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
    scaled = HodgeEngine(_Rescaled(factor))
    for genus, tag, kappa, psi in hodge_signatures(3):
        base = hodge.correlator(genus, tag, kappa, psi)
        assert scaled.correlator(genus, tag, kappa, psi) == factor * base
        assert (
            scaled.correlator_direct(genus, tag, kappa, psi) == factor * base
        )
        cases += 2
    _report(10, "hodge dual routes and linearity", cases, started)


def test_criterion_11_negative_controls(engine, volumes, hodge, oracle):
    started = time.perf_counter()
    # Off-dimension or unstable: zero everywhere, every front end.
    off = [
        engine.correlator(1, ZERO, (2,)),
        engine.correlator(0, delta(1), (0, 0, 0)),
        engine.correlator(0, ZERO, (0, 0)),
        oracle.kmz_expand(2, delta(1), (1,)),
        volumes.volume(1, 2, delta(1)),
        volumes.volume(0, 1, ZERO),
        volumes.volume_closed(2, MultiIndex({1: 2})),
        hodge.correlator(2, "lambda_g", delta(1), (0,)),
        hodge.correlator_direct(1, "lambda_g_lambda_gm1", delta(2), (0,)),
    ]
    assert off == [0] * len(off)
    cases = len(off)

    # Corrupting any single alpha entry must break the oracle agreement.
    sweep = list(correlator_signatures(4))
    targets = [b for w in range(1, 4) for b in indices_of_weight(w)]
    for poisoned in targets:
        table = ConstantTable("alpha", lambda w: double_factorial(2 * w + 1))
        for b in targets:
            table.value(b)
        table._values[poisoned] += 1
        broken = CorrelatorEngine(alpha_table=table)
        disagreements = sum(
            1
            for genus, kappa, psi in sweep
            if broken.correlator(genus, kappa, psi)
            != oracle.kmz_expand(genus, kappa, psi)
        )
        assert disagreements > 0, poisoned
        cases += 1
    _report(11, "negative controls", cases, started)
