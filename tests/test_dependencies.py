import ast
import os
import subprocess
import sys
from pathlib import Path

import waterline

IMPORTS = "import waterline, waterline.cli, waterline.data"


def _run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(waterline.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_runtime_imports_no_third_party_module_but_numpy():
    """Importing the package, its CLI and its data module loads numpy and the
    standard library only (pyproject's `dependencies`): scipy and hypothesis
    stay test-only. Modules the interpreter loaded before, such as those a
    site hook imports, are not counted."""
    out = _run_fresh(f"import sys; before = set(sys.modules); {IMPORTS}; "
                     "print(*sorted(set(sys.modules) - before))")
    loaded = {name.partition(".")[0] for name in out.split()}
    assert "waterline" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"waterline"} == {"numpy"}


def test_importing_starts_no_thread():
    """Importing the package starts no thread, and neither does a train step:
    its forward, backward and AdamW update run on the calling thread."""
    step = ("import numpy as np; from waterline import network, training; "
            "p = network.init_params(0); x = np.random.default_rng(1).random((32, 6)); "
            "pred, cache = network.forward(p, x, training=True); "
            "grads = network.backward(p, cache, np.full((32, 2), 0.5)); "
            "training.adamw_step(p, grads, training.OptState.init(), 1e-3, 1e-4); ")
    out = _run_fresh(f"import threading; {IMPORTS}; print(threading.active_count()); {step}"
                     "print(threading.active_count())")
    assert out == "1\n1\n"


def unused_imports(source: str) -> list[str]:
    """`line: name` of each import in source that the module never reads, as
    pyflakes' F401 would report it. Not counted: `__future__` imports, names
    listed in `__all__` (an `__init__`'s exports), and imports on a line
    marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items() if name not in read]


def test_package_has_no_unused_import():
    root = Path(waterline.__file__).parent
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_unused_import_check_finds_its_cases():
    source = """from __future__ import annotations
import os
import os.path
import threading
from json import dumps as to_json, loads
from math import pi  # noqa: F401
__all__ = ["loads"]
os.getpid()
"""
    assert unused_imports(source) == ["4: threading", "5: to_json"]
