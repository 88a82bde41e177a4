"""The split loops of the pivot and DVV kernels against their scan forms.

Both kernels solve the genus of a separating split from the dimension
instead of scanning every r, and fold their integer weights before they
touch a Fraction; the DVV kernel runs on integer numerators N(g, d). The
references here scan every r, take one Fraction per factor, and must give
the same exact values. Also: every value leaves the package as a Fraction
(0.0 == Fraction(0), so equality alone would hide a float). Last, three
inputs that are refused with exit 2: an unstable or off-dimension cache
record, a provider line that contradicts an earlier one, and a --decimal
outside 0..1000.
"""

from fractions import Fraction

import pytest

from conftest import run
from wprec.constants import ALPHA
from wprec.correlator import INITIAL_VALUES, CorrelatorEngine, CorrelatorKey
from wprec.kmz import KmzOracle
from wprec.multiindex import multiset_splits, splits3
from wprec.numbers import double_factorial, moduli_dim
from wprec.sweeps import correlator_signatures, psi_lists

HALF = Fraction(1, 2)


def df(k):
    return Fraction(double_factorial(k))


def scan_pivot(engine, g, b, d, pivot):
    """_pivot_eval with every r of every split scanned and one Fraction per
    factor, taking its sub-values from engine.correlator."""
    dp = d[pivot]
    others = d[:pivot] + d[pivot + 1 :]
    total = Fraction(0)
    for left, mid, rest in splits3(b):
        a = ALPHA.value(left)
        base = left.weight + dp
        # The ways to deal b's copies into L, e and f: b! / (L! e! f!).
        dealt = left.factorial() * mid.factorial() * rest.factorial()
        w = a * (b.factorial() // dealt)
        if not mid:
            # The moves that keep kappa - L whole: merges and genus drop.
            for pos, v in enumerate(others):
                if base + v - 1 < 0:
                    continue
                lowered = others[:pos] + (base + v - 1,) + others[pos + 1 :]
                total += (
                    w
                    * df(2 * (base + v) - 1)
                    / df(2 * v - 1)
                    * engine.correlator(g, rest, lowered)
                )
            if g >= 1:
                for r in range(base - 1):
                    s = base - 2 - r
                    total += (
                        HALF
                        * w
                        * df(2 * r + 1)
                        * df(2 * s + 1)
                        * engine.correlator(g - 1, rest, others + (r, s))
                    )
        for part_i, part_j, ways in multiset_splits(others):
            for r in range(base - 1):
                s = base - 2 - r
                for gi in range(g + 1):
                    first = engine.correlator(gi, mid, part_i + (r,))
                    if first:
                        total += (
                            HALF
                            * w
                            * ways
                            * df(2 * r + 1)
                            * df(2 * s + 1)
                            * first
                            * engine.correlator(g - gi, rest, part_j + (s,))
                        )
    return total / df(2 * dp + 1)


def test_pivot_kernel_equals_the_scan_at_every_pivot():
    engine = CorrelatorEngine()
    checked = 0
    for g, b, d in correlator_signatures(7):
        if CorrelatorKey.make(g, b, d) in INITIAL_VALUES:
            continue
        # Equal exponents are interchangeable: one pivot per distinct value.
        for pivot in sorted({d.index(v) for v in d}):
            got = engine.correlator_via_pivot(g, b, d, pivot)
            assert got == scan_pivot(engine, g, b, d, pivot), (g, b, d, pivot)
            checked += 1
    assert checked == 1479


def dvv(memo, genus, exps):
    """<tau_exps>_genus by the classical DVV recursion in Fractions, every
    r and every split genus scanned."""
    exps = tuple(sorted(exps, reverse=True))
    if sum(exps) != moduli_dim(genus, len(exps)):
        return Fraction(0)
    if (genus, exps) == (0, (0, 0, 0)):
        return Fraction(1)
    if (genus, exps) == (1, (1,)):
        return Fraction(1, 24)
    if (genus, exps) in memo:
        return memo[genus, exps]
    d1, others = exps[0], exps[1:]
    total = Fraction(0)
    for pos, v in enumerate(others):
        if d1 + v - 1 >= 0:
            lowered = others[:pos] + (d1 + v - 1,) + others[pos + 1 :]
            total += df(2 * (d1 + v) - 1) / df(2 * v - 1) * dvv(memo, genus, lowered)
    for r in range(d1 - 1):
        s = d1 - 2 - r
        weight = HALF * df(2 * r + 1) * df(2 * s + 1)
        if genus >= 1:
            total += weight * dvv(memo, genus - 1, others + (r, s))
        for part_i, part_j, ways in multiset_splits(others):
            for gi in range(genus + 1):
                total += (
                    weight
                    * ways
                    * dvv(memo, gi, part_i + (r,))
                    * dvv(memo, genus - gi, part_j + (s,))
                )
    memo[genus, exps] = total / df(2 * d1 + 1)
    return memo[genus, exps]


def test_integer_dvv_equals_the_fraction_recursion():
    oracle = KmzOracle()
    memo = {}
    checked = 0
    for genus in range(5):
        for n in range(1, 14):
            dim = moduli_dim(genus, n)
            if not 0 <= dim <= 10:
                continue
            for psi in psi_lists(dim, n):
                assert oracle.pure_psi(genus, psi) == dvv(memo, genus, psi), psi
                checked += 1
    assert checked == 423
    # More than the two seeds the memo starts with.
    assert len(oracle._psi_memo) > 2
    assert all(type(v) is int for v in oracle._psi_memo.values())


def test_every_value_is_a_fraction_zeros_included():
    engine = CorrelatorEngine()
    oracle = KmzOracle()
    zeros = 0
    for shell in (0, 1):
        for g, b, d in correlator_signatures(7, min_n=0, shell=shell):
            values = [engine.correlator(g, b, d), oracle.kmz_expand(g, b, d)]
            if not b:
                values.append(oracle.pure_psi(g, d))
            for v in values:
                assert type(v) is Fraction, (g, b, d, v)
            zeros += values[0] == 0
    assert zeros > 1000


@pytest.mark.parametrize(
    "record, why",
    [("1||2\t1/3", "off dimension"), ("0||0,0\t1/3", "unstable")],
)
def test_cache_refuses_unstable_and_off_dimension_records(
    capsys, tmp_path, record, why
):
    path = tmp_path / "values.cache"
    path.write_text(f"wprec-cache v1\n2||4\t1/1152\n{record}\n")
    before = path.read_bytes()
    code, out, err = run(
        capsys, "compute", "-g", "2", "--psi", "3,2", "--cache", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith(f"wprec: {path}:3: ") and err.count("\n") == 1
    assert why in err
    assert path.read_bytes() == before


def test_provider_refuses_a_conflicting_repeat(capsys, tmp_path):
    command = ("hodge", "-g", "2", "--tag", "lambda_g", "--psi", "0,3")
    path = tmp_path / "base.txt"
    path.write_text("2,lambda_g,1/5\n2,lambda_g,3/7\n")
    code, out, err = run(capsys, *command, "--provider", str(path))
    assert code == 2 and out == ""
    assert err == f"wprec: {path}:2: conflicting value for 2,lambda_g\n"
    path.write_text("2,lambda_g,1/5\n2, lambda_g, 1/5\n")
    code, out, _ = run(capsys, *command, "--provider", str(path))
    assert code == 0 and out == "1/5\n"


@pytest.mark.parametrize("places", ["1001", "5000", "100000000000"])
def test_decimal_places_are_bounded(capsys, places):
    code, out, err = run(
        capsys, "compute", "-g", "1", "--psi", "1", "--decimal", places
    )
    assert code == 2 and out == ""
    assert "argument --decimal: expected an integer from 0 to 1000" in err
