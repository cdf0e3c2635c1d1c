"""Source hygiene: every module-level import in the package and its tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tfse").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that are never loaded, except
    `from __future__` imports and names listed in `__all__`."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in loaded | exported]


@pytest.mark.parametrize("path", SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_flags_an_unused_import_and_spares_the_exempt_ones():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: osp", "line 4: dumps"]
