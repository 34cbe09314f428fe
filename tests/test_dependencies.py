import os
import subprocess
import sys
from pathlib import Path

import waterline


def test_runtime_imports_no_third_party_module_but_numpy():
    """Importing the package, its CLI and its data module loads numpy and the
    standard library only (pyproject's `dependencies`): scipy and hypothesis
    stay test-only. Modules the interpreter loaded before, such as those a
    site hook imports, are not counted."""
    code = ("import sys; before = set(sys.modules); import waterline, waterline.cli, "
            "waterline.data; print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(waterline.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = {name.partition(".")[0] for name in done.stdout.split()}
    assert "waterline" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"waterline"} == {"numpy"}
