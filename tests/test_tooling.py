"""Source hygiene: every import in the package and its tests is used,
`import tfse` leaves the training and evaluation modules unloaded, text files
are read only through `config.read_text`, `NumericError` is raised only by the
model's forward, `SampleRateError` only where a waveform is made or read, the
layers and the model raise no `ConfigError`, and every module is called with
one input."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "tfse").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports_in_scope(scope: ast.AST):
    """Import statements that bind names in `scope` itself, not in a nested function."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, FUNCTIONS):
            yield from _imports_in_scope(child)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import, at module level or inside a function, that
    are never loaded in that scope (nested functions included), except
    `from __future__` imports and names listed in `__all__`."""
    tree = ast.parse(source)
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        bound: dict[str, int] = {}
        for node in _imports_in_scope(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                bound[name if isinstance(node, ast.ImportFrom) else name.split(".")[0]] = node.lineno
        loaded = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        keep = loaded | exported if scope is tree else loaded
        unused += [(line, name) for name, line in bound.items() if name not in keep]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


@pytest.mark.parametrize("path", SOURCES, ids=[f"{p.parent.name}/{p.name}" for p in SOURCES])
def test_no_unused_imports(path):
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


def test_the_scan_flags_an_unused_import_inside_a_function():
    source = (
        "import json\n"
        "def f():\n"
        "    import os\n"
        "    from json import dumps, loads\n"
        "    if True:\n"
        "        import sys\n"
        "    def g():\n"
        "        return loads(sys.argv[0])\n"
        "    return g\n"
        "def h():\n"
        "    import os\n"
        "    return os.sep, json\n"
    )
    assert unused_imports(source) == ["line 3: os", "line 4: dumps"]


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


def text_reads(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each `open` call that can read text:
    a mode without "b" that has "r" or "+" (a left-out mode is "r", and a
    mode that is not a literal counts)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "open":
                given = [*child.args[1:2], *(k.value for k in child.keywords if k.arg == "mode")]
                mode = given[0] if given else ast.Constant("r")
                mode = mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "r"
                if "b" not in mode and ("r" in mode or "+" in mode):
                    found.append((scope, child.lineno))
            visit(child, child.name if isinstance(child, FUNCTIONS) else scope)

    visit(ast.parse(source), "<module>")
    return found


def test_text_is_read_only_by_config_read_text():
    package = sorted((ROOT / "src" / "tfse").glob("*.py"))
    found = [(p.name, scope) for p in package for scope, _ in text_reads(p.read_text(encoding="utf-8"))]
    assert found == [("config.py", "read_text")]


def test_the_text_read_scan_flags_text_modes_only():
    source = (
        "def f(path, mode):\n"
        "    open(path)\n"
        "    open(path, 'rb')\n"
        "    open(path, 'w', encoding='utf-8')\n"
        "    open(path, mode='a+')\n"
        "    open(path, mode)\n"
        "    def g():\n"
        "        return open(path, 'r', encoding='utf-8')\n"
        "    return open(path, 'wb'), g\n"
    )
    assert text_reads(source) == [("f", 2), ("f", 5), ("f", 6), ("g", 8)]


def raised_names(source: str) -> list[tuple[str, int]]:
    """(exception name, line) of each `raise` of a name or attribute, called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                found.append((exc.id if isinstance(exc, ast.Name) else exc.attr, node.lineno))
    return sorted(found, key=lambda f: f[1])


def test_numeric_error_is_raised_only_by_the_model_forward():
    # one finite check per block output; a scan or core that grows its own check shows here
    package = sorted((ROOT / "src" / "tfse").glob("*.py"))
    found = [p.name for p in package for name, _ in raised_names(p.read_text(encoding="utf-8")) if name == "NumericError"]
    assert found == ["model.py"]


def raising_functions(source: str, exc: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each raise of `exc` that raised_names finds."""
    lines = {line for name, line in raised_names(source) if name == exc}
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.lineno in lines:
                found.append((fn, child.lineno))
            visit(child, child.name if isinstance(child, FUNCTIONS) else fn)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda f: f[1])


def test_sample_rate_error_is_raised_only_where_a_waveform_is_made_or_read():
    # Waveform owns the 16 kHz rule; read_wav checks the header only to name the file
    package = sorted((ROOT / "src" / "tfse").glob("*.py"))
    found = [(p.name, fn) for p in package
             for fn, _ in raising_functions(p.read_text(encoding="utf-8"), "SampleRateError")]
    assert found == [("dsp.py", "__post_init__"), ("dsp.py", "read_wav")]


def test_the_raising_function_scan_names_the_innermost_function():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise SampleRateError('a')\n"
        "    def g():\n"
        "        raise errors.SampleRateError\n"
        "    raise KeyError\n"
        "class W:\n"
        "    def h(self):\n"
        "        raise SampleRateError('b')\n"
    )
    assert raising_functions(source, "SampleRateError") == [("f", 3), ("g", 5), ("h", 9)]


def test_layers_and_the_model_raise_no_config_error():
    # ModelConfig.validate owns every config rule; the code it configures trusts a validated config
    trusting = ("attention.py", "ssm.py", "xlstm.py", "pe.py", "module.py", "tensor.py", "model.py")
    found = [(name, line) for name in trusting
             for exc, line in raised_names((ROOT / "src" / "tfse" / name).read_text(encoding="utf-8"))
             if exc == "ConfigError"]
    assert found == []


def test_the_raise_scan_reads_calls_and_bare_names():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise NumericError('a')\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise errors.NumericError('b')\n"
        "raise KeyError\n"
    )
    assert raised_names(source) == [("NumericError", 3), ("NumericError", 8), ("KeyError", 9)]


def module_classes() -> list[type]:
    """Every Module subclass defined in tfse, once each of its modules is imported."""
    import tfse
    from tfse.module import Module

    for info in pkgutil.iter_modules(tfse.__path__):
        importlib.import_module(f"tfse.{info.name}")
    found, todo = [], [Module]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("tfse.") and sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def test_every_module_is_called_with_one_input():
    # settings fixed for a whole model (causal, rope) are set at construction, not per call
    classes = module_classes()
    assert {"Residual", "Bidirectional", "TransformerBlock", "MambaCore", "EnhancementModel"} <= {
        c.__name__ for c in classes
    }
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    bad = []
    for cls in classes:
        if "__call__" in vars(cls):
            _, *params = inspect.signature(cls.__call__).parameters.values()
            if len(params) != 1 or params[0].kind not in positional:
                bad.append(f"{cls.__module__}.{cls.__name__}{inspect.signature(cls.__call__)}")
    assert bad == []
