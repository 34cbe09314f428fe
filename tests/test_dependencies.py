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
    """The train step's worker thread starts with the first train forward."""
    assert _run_fresh(f"import threading; {IMPORTS}; print(threading.active_count())") == "1\n"
