"""Route modules stay independent: each imports only the package modules
listed here, so no route reuses another route's code. And every module uses
every name it imports at top level, so a deletion leaves no stale import."""

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



def unused_imports(module: str) -> set[str]:
    """Names bound by top-level imports of src/wprec/<module>.py that no
    ast.Name in the module reads; annotations are parsed, so they count."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_top_level_import_is_used(module):
    assert unused_imports(module) == set()
