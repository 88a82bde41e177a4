"""Tests of the benchmark's own code: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import queries  # noqa: E402
import tracer  # noqa: E402


def test_same_seed_same_commands():
    first = [q.argv("c") for q in queries.point_queries(7, rounds=30)]
    again = [q.argv("c") for q in queries.point_queries(7, rounds=30)]
    other = [q.argv("c") for q in queries.point_queries(8, rounds=30)]
    assert first == again
    assert first != other


def test_only_stable_in_dimension_signatures():
    stream = queries.point_queries(3, rounds=200)
    assert all(queries.in_dimension(q) for q in stream)
    for q in stream:
        dim = 3 * q.genus - 3 + (q.n if q.kind == "volume" else len(q.psi))
        if q.kind == "compute":
            assert dim <= queries.COMPUTE_MAX_DIM
        elif q.kind == "volume":
            assert dim <= queries.VOLUME_MAX_DIM and not q.psi
        else:
            assert q.genus <= queries.HODGE_MAX_GENUS
            assert q.route in ("primary", "direct")
        assert list(q.psi) == sorted(q.psi, reverse=True)


def test_mix_of_kinds_is_fixed():
    kinds = [q.kind for q in queries.point_queries(5, rounds=1)]
    assert kinds == ["compute", "compute", "volume", "volume", "hodge", "hodge"]


def test_enumeration_matches_the_oracle_sweep_size():
    pointed = [q for q in queries.compute_queries() if q.psi]
    assert len(pointed) == 2521


def test_in_dimension_rejects_off_shell():
    assert not queries.in_dimension(queries.Query("compute", 0, (), (0, 0)))
    assert not queries.in_dimension(queries.Query("compute", 1, (), (0,)))
    assert queries.in_dimension(queries.Query("compute", 1, ((1, 1),), (0,)))
    assert not queries.in_dimension(
        queries.Query("hodge", 2, (), (1,), tag=queries.LAMBDA_G, route="direct")
    )


def test_self_times_on_a_synthetic_tree():
    # cli [0, 10] -> correlator [1, 7] -> constants [2, 3] and [4, 4.5]
    #             -> kmz [7, 9]
    spans = [
        [0, None, "cli", 0.0, 10.0],
        [1, 0, "correlator", 1.0, 7.0],
        [2, 1, "constants", 2.0, 3.0],
        [3, 1, "constants", 4.0, 4.5],
        [4, 0, "kmz", 7.0, 9.0],
    ]
    assert tracer.self_times(spans) == {
        "cli": 2.0,
        "correlator": 4.5,
        "constants": 1.5,
        "kmz": 2.0,
    }


def test_same_layer_calls_fold_into_one_span():
    ticks = iter(range(100))
    trace = tracer.Tracer(clock=lambda: float(next(ticks)))

    def volume(depth):
        if depth:
            return trace.span("volumes", volume, depth - 1) + 1
        return trace.span("constants", lambda: 0)

    assert trace.span("volumes", volume, 3) == 3
    assert trace.calls == {"volumes": 4, "constants": 1}
    assert [span[2] for span in trace.spans] == ["volumes", "constants"]
    assert trace.spans[1][1] == 0
    assert tracer.self_times(trace.spans) == {"volumes": 2.0, "constants": 1.0}


def test_cache_records_are_counted_inside_folded_spans():
    trace = tracer.Tracer()

    def save():
        trace.span("cache.load", lambda: {"a": 1, "b": 2})
        return 5

    assert trace.span("cache.save", save) == 5
    assert trace.records == {"read": 2, "written": 5}
    assert [span[2] for span in trace.spans] == ["cache.save"]
