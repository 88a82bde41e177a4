"""Route modules stay independent: each imports only the package modules
listed here, so no route reuses another route's code."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wprec"

ALLOWED = {
    "kmz": {"multiindex", "numbers"},
    "volumes": {"multiindex", "numbers"},
    "correlator": {"constants", "multiindex", "numbers"},
    "hodge": {"constants", "kmz", "multiindex", "numbers"},
}


def internal_imports(module: str) -> set[str]:
    """Package modules imported by src/wprec/<module>.py, relative or not."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:
                    found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "wprec":
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "wprec" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_route_imports_stay_inside_allowed_set(module):
    assert internal_imports(module) <= ALLOWED[module]

