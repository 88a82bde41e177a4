"""Run one ``wprec`` CLI command with spans around each module's entry points.

Usage: ``python3 perfbench/tracer.py SPANS_FILE CLI_ARG...`` with ``src`` on
``PYTHONPATH``. The command runs as ``wprec CLI_ARG...`` would, and one JSON
line (import time, spans, call counts, memo sizes) is appended to
SPANS_FILE when it ends.

The wrappers live here, outside the package: a span records id, parent,
name, start and end. A call into a layer whose span is already innermost
folds into that span, so a recursive ``VolumeEngine.volume`` makes one
span but is still counted on every call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, owner attribute or None for a module function, entry point)
ENTRY_POINTS = (
    ("correlator", "wprec.correlator", "CorrelatorEngine", "correlator"),
    ("correlator", "wprec.correlator", "CorrelatorEngine", "correlator_via_pivot"),
    ("kmz", "wprec.kmz", "KmzOracle", "kmz_expand"),
    ("kmz", "wprec.kmz", "KmzOracle", "kmz_expand_unordered"),
    ("kmz", "wprec.kmz", "KmzOracle", "pure_psi"),
    ("volumes", "wprec.volumes", "VolumeEngine", "volume"),
    ("volumes", "wprec.volumes", "VolumeEngine", "volume_closed"),
    ("series", "wprec.series", None, "shift_check"),
    ("hodge.primary", "wprec.hodge", "HodgeEngine", "correlator"),
    ("hodge.direct", "wprec.hodge", "HodgeEngine", "correlator_direct"),
    ("cache.load", "wprec.cache", None, "load_cache"),
    ("cache.save", "wprec.cache", None, "save_new_records"),
    ("constants", "wprec.constants", "ConstantTable", "value"),
)

# Entry points whose results are counted: span name -> (record kind, count).
RECORDS = {"cache.load": ("read", len), "cache.save": ("written", int)}

# Engines whose instances are kept so their memo tables can be sized.
ENGINES = (
    ("correlator", "wprec.correlator", "CorrelatorEngine"),
    ("kmz", "wprec.kmz", "KmzOracle"),
    ("volumes", "wprec.volumes", "VolumeEngine"),
    ("hodge", "wprec.hodge", "HodgeEngine"),
)


def memo_size(obj) -> int:
    """Entries in every dict an object holds: its memo tables."""
    return sum(len(v) for v in vars(obj).values() if isinstance(v, dict))


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.stack: list[tuple[int, str]] = []  # open (id, layer)
        self.calls: Counter[str] = Counter()
        self.records: Counter[str] = Counter()
        self.instances: defaultdict[str, list] = defaultdict(list)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name, folding same-layer calls."""
        self.calls[name] += 1
        layer = name.split(".", 1)[0]
        stack = self.stack
        if stack and stack[-1][1] == layer:
            result = fn(*args, **kwargs)
        else:
            span = [len(self.spans), stack[-1][0] if stack else None, name, 0.0, 0.0]
            self.spans.append(span)
            stack.append((span[0], layer))
            span[3] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = self.clock()
                stack.pop()
        if name in RECORDS:
            kind, count = RECORDS[name]
            self.records[kind] += count(result)
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace every entry point, including copies bound by ``from`` imports."""
        for name, module_name, owner_name, attr in ENTRY_POINTS:
            module = sys.modules[module_name]
            if owner_name is not None:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("wprec"):
                    if getattr(loaded, attr, None) is original:
                        setattr(loaded, attr, traced)
        for layer, module_name, class_name in ENGINES:
            self._keep_instances(layer, getattr(sys.modules[module_name], class_name))

    def _keep_instances(self, layer: str, cls) -> None:
        init = cls.__init__

        @functools.wraps(init)
        def kept(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.instances[layer].append(obj)

        cls.__init__ = kept

    def memo_entries(self) -> dict[str, int]:
        sizes = {
            layer: sum(memo_size(obj) for obj in objs)
            for layer, objs in self.instances.items()
        }
        constants = sys.modules["wprec.constants"]
        sizes["constants"] = sum(
            memo_size(table)
            for table in vars(constants).values()
            if isinstance(table, constants.ConstantTable)
        )
        return sizes


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    own: dict[int, float] = {}
    names: dict[int, str] = {}
    for span_id, parent, name, start, end in spans:
        own[span_id] = own.get(span_id, 0.0) + (end - start)
        names[span_id] = name
        if parent is not None:
            own[parent] = own.get(parent, 0.0) - (end - start)
    totals: dict[str, float] = {}
    for span_id, seconds in own.items():
        totals[names[span_id]] = totals.get(names[span_id], 0.0) + seconds
    return totals


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    started = time.perf_counter()
    import wprec.cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("cli", wprec.cli.main, cli_args)
    finally:
        sys.stdout.flush()
        record = {
            "import_s": import_s,
            "spans": tracer.spans,
            "calls": tracer.calls,
            "records": tracer.records,
            "memo_entries": tracer.memo_entries(),
        }
        with open(spans_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
