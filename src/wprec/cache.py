"""Plain-text cache for computed correlator values.

Format: one header line, then one tab-separated record per line::

    wprec-cache v1
    0|1:1|0,0,0,0<TAB>1/1
    2||3,2<TAB>29/5760

A record is the key text (genus ``|`` kappa ``|`` comma-joined psi
exponents) and the exact value as ``numerator/denominator``.  Files are
append-only: saving writes only keys not already present, in sorted
order, so re-running a warmed computation leaves the file
byte-identical.  Cached values are trusted on load, but never override
the built-in seeds (``INITIAL_VALUES``): a wrong seed record makes the next
save that reaches that seed fail.  A record for an unstable or
off-dimension signature, which the engine never writes, is a load error,
so the engine's memo only ever holds signatures its dimension gate
admits.  ``wprec verify --suite cache`` recomputes every record with a
fresh engine.

Every line, the header included, ends in a newline, and none is blank:
the writer never writes one, so a blank line is a load error.  A final
line without one is what a crash in the middle of an append leaves
behind, so it is not trusted: ``load_cache`` drops it with one
``wprec: warning: PATH:LINE: ...`` line on stderr, and
``save_new_records`` cuts it off before it appends.  The value it held is
recomputed.  A file without a complete header line is refused.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .correlator import INITIAL_VALUES, CorrelatorEngine, CorrelatorKey
from .numbers import moduli_dim

CACHE_HEADER = "wprec-cache v1"

_ENV_VAR = "WPREC_CACHE"


def default_cache_path() -> str | None:
    """Cache file named by the WPREC_CACHE environment variable, if set."""
    path = os.environ.get(_ENV_VAR)
    return path if path else None


def _format_value(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def load_cache(path: str | os.PathLike[str]) -> dict[CorrelatorKey, Fraction]:
    """Parse a cache file; malformed, conflicting, unstable or off-dimension
    lines raise ValueError.  An unterminated final line is dropped with a
    warning on stderr."""
    records, _, partial = _read_records(path)
    if partial is not None:
        print(
            f"wprec: warning: {path}:{partial}: unterminated final line dropped",
            file=sys.stderr,
        )
    return records


def _read_records(
    path: str | os.PathLike[str],
) -> tuple[dict[CorrelatorKey, Fraction], int, int | None]:
    """The records of a cache file's newline-terminated lines, the byte
    length of those lines, and the line number of an unterminated final
    line (None when the file ends in a newline)."""
    raw = Path(path).read_bytes()
    complete = raw.rfind(b"\n") + 1
    try:
        lines = raw[:complete].decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}:{line}: cannot decode byte 0x{raw[exc.start]:02x} as ascii"
        ) from None
    partial = len(lines) + 1 if complete < len(raw) else None
    if not lines or lines[0] != CACHE_HEADER:
        raise ValueError(f"{path}:1: expected header {CACHE_HEADER!r}")
    records: dict[CorrelatorKey, Fraction] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<key>\\t<num/den>'")
        try:
            key = CorrelatorKey.from_text(parts[0])
            value = Fraction(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        dim = moduli_dim(key.genus, len(key.psi))
        if dim < 0:
            raise ValueError(f"{path}:{lineno}: unstable signature {parts[0]}")
        if key.kappa.weight + sum(key.psi) != dim:
            raise ValueError(f"{path}:{lineno}: {parts[0]} is off dimension")
        if key in records and records[key] != value:
            raise ValueError(f"{path}:{lineno}: conflicting value for {parts[0]}")
        records[key] = value
    return records, complete, partial


def save_new_records(
    path: str | os.PathLike[str],
    records: Mapping[CorrelatorKey, Fraction],
) -> int:
    """Append records whose keys are absent; return how many were written.

    Creates the file (with header) when missing, and cuts off an
    unterminated final line before appending.  A key already present with a
    different value is a corruption signal and raises.
    """
    target = Path(path)
    existing: dict[CorrelatorKey, Fraction] = {}
    complete = partial = None
    if target.exists():
        existing, complete, partial = _read_records(target)
    fresh = {}
    for key, value in records.items():
        if key in existing:
            if existing[key] != value:
                raise ValueError(
                    f"{path}: cached {key.text()} disagrees with new value"
                )
        else:
            fresh[key] = value
    if complete is None:
        target.write_text(CACHE_HEADER + "\n", encoding="ascii")
    elif partial is not None:
        os.truncate(target, complete)
    with open(target, "a", encoding="ascii") as handle:
        for key in sorted(fresh):
            handle.write(f"{key.text()}\t{_format_value(fresh[key])}\n")
    return len(fresh)


def seed_engine(
    engine: CorrelatorEngine, records: Mapping[CorrelatorKey, Fraction]
) -> None:
    """Preload an engine's memo table with cached values, seeds excepted."""
    engine.memo.update(
        (key, value) for key, value in records.items() if key not in INITIAL_VALUES
    )

