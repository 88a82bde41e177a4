"""Time one computational layer alone, in a fresh process.

Usage: ``python3 perfbench/layers.py NAME`` with ``src`` on ``PYTHONPATH``.
Prints one JSON line: the layer's seconds, its case count, a digest of every
value it produced and whether that digest matches the one recorded here.
Inputs are enumerated before the clock starts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import queries

def _numbers():
    from wprec.numbers import bernoulli, double_factorial, euler_number

    def run():
        out = [(f"B{m}", bernoulli(m)) for m in range(0, 241, 2)]
        out += [(f"E{n}", euler_number(n)) for n in range(241)]
        out += [(f"{k}!!", double_factorial(k)) for k in range(0, 2501, 100)]
        return out

    return run


def _multiindex():
    from wprec.multiindex import indices_of_weight, multi_binomial, splits3

    def run():
        out = []
        for w in range(13):
            for b in indices_of_weight(w):
                total = sum(multi_binomial(b, left) for left, _, _ in splits3(b))
                out.append((b.to_text(), total))
        return out

    return run


def _constants():
    from wprec.constants import ALPHA, GAMMA_FACT, GAMMA_ODD
    from wprec.multiindex import MultiIndex

    indices = [
        MultiIndex(kappa) for w in range(13) for kappa in queries.kappas(w)
    ]

    def run():
        return [
            (f"{table.kind}({b.to_text()})", table.value(b))
            for table in (ALPHA, GAMMA_ODD, GAMMA_FACT)
            for b in indices
        ]

    return run


def _pure_psi():
    from wprec.kmz import KmzOracle

    cases = [
        (genus, psi)
        for genus, n, dim in queries.stable_windows(12, 1)
        for psi in queries.psi_lists(dim, n)
    ]

    def run():
        oracle = KmzOracle()
        return [(f"{g}|{psi}", oracle.pure_psi(g, psi)) for g, psi in cases]

    return run


def _pivot_sweep():
    from wprec.correlator import CorrelatorEngine
    from wprec.multiindex import MultiIndex

    cases = [
        (q.genus, MultiIndex(q.kappa), q.psi)
        for q in queries.compute_queries()
        if q.psi
    ]

    def run():
        engine = CorrelatorEngine()
        return [
            (f"{g}|{kappa.to_text()}|{psi}", engine.correlator(g, kappa, psi))
            for g, kappa, psi in cases
        ]

    return run


def _closed_volumes():
    from wprec.multiindex import MultiIndex
    from wprec.volumes import VolumeEngine

    cases = [
        (genus, MultiIndex(kappa))
        for genus in range(2, 6)
        for kappa in queries.kappas(3 * genus - 3)
    ]

    def run():
        volumes = VolumeEngine()
        return [
            (f"{g}|{kappa.to_text()}", volumes.volume_closed(g, kappa))
            for g, kappa in cases
        ]

    return run


def _hodge(route: str):
    def build():
        from wprec.hodge import HodgeEngine
        from wprec.multiindex import MultiIndex

        cases = [
            (q.genus, q.tag, MultiIndex(q.kappa), q.psi)
            for q in queries.hodge_queries(route)
        ]

        def run():
            engine = HodgeEngine()
            method = engine.correlator if route == "primary" else engine.correlator_direct
            return [
                (f"{g}|{tag}|{kappa.to_text()}|{psi}", method(g, tag, kappa, psi))
                for g, tag, kappa, psi in cases
            ]

        return run

    return build


def _shift_check():
    from wprec.correlator import CorrelatorEngine
    from wprec.kmz import KmzOracle
    from wprec.series import shift_check

    def run():
        report = shift_check(6, 3, 7, CorrelatorEngine(), KmzOracle())
        return [("equal", report.equal), ("cases", report.cases)]

    return run


# Each layer's builder, and the sha256 of the values it produced at the
# commit that introduced the benchmark: a change to any value changes it.
LAYERS = {
    "numbers.sequences_s": (
        _numbers,
        "62c1c094458006ab6d764b200f1318408719b1d0211606e172268f31165b2e1b",
    ),
    "multiindex.enumerate_w12_s": (
        _multiindex,
        "282e37a0d1631d7fd4a9d42b2d4d5255e5795f5bc12c27221871090fdc592e48",
    ),
    "constants.tables_w12_s": (
        _constants,
        "d04cd8e21270a73cf84d590f1297729546b6906d560a76e9ae21f7d2e2551b24",
    ),
    "kmz.pure_psi_dim12_s": (
        _pure_psi,
        "e00469afed8e092f5a30d4930147a07e01261ab8636d4b3a6c38b8d9fd543035",
    ),
    "correlator.pivot_sweep_dim9_s": (
        _pivot_sweep,
        "4d78b7cc22f4ba625fa4879016727a2c9584baeaea971252dc497d73bdc3bea7",
    ),
    "volumes.closed_g5_s": (
        _closed_volumes,
        "b8d958cd34f171f39a5ff012a4f734c630e20bce8ecfe01f4687d10f8a2ee51a",
    ),
    "hodge.primary_g6_s": (
        _hodge("primary"),
        "114c815f2fb2f26955408eb6ee8653878e826a29249b9da062d490cb4a43cc7c",
    ),
    "hodge.direct_g6_s": (
        _hodge("direct"),
        "114c815f2fb2f26955408eb6ee8653878e826a29249b9da062d490cb4a43cc7c",
    ),
    "series.shift_check_w6_s": (
        _shift_check,
        "9bd18fe24ab7c02fd9343d13dcef3357e7bfb4fe6182330cb1fd9e1e7d00c8d9",
    ),
}


def digest(pairs) -> str:
    h = hashlib.sha256()
    for key, value in pairs:
        h.update(f"{key}\t{value}\n".encode())
    return h.hexdigest()


def main(name: str) -> int:
    build, expected = LAYERS[name]
    run = build()
    started = time.perf_counter()
    values = run()
    seconds = time.perf_counter() - started
    value_digest = digest(values)
    print(
        json.dumps(
            {
                "name": name,
                "seconds": seconds,
                "cases": len(values),
                "digest": value_digest,
                "correct": value_digest == expected,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
