"""Source hygiene: every module-level import in the package and its tests is
used, and `import tfse` leaves the training and evaluation modules unloaded."""

import ast
import os
import subprocess
import sys
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


def test_import_tfse_loads_training_and_evalbench_only_on_first_use():
    # a fresh interpreter: this one has long since imported every module
    probe = (
        "import sys, tfse\n"
        "lazy = ('tfse.training', 'tfse.evalbench', 'subprocess')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "missing = [n for n in tfse.__all__ if not hasattr(tfse, n)]\n"
        "print(missing, callable(tfse.training.load_corpus), callable(tfse.evalbench.estoi))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[] True True"], out.stderr
