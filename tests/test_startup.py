"""Start-up guard: importing viewpilot loads only the modules it needs.

Every benchmark workload starts by importing the package, so a module-level
import of something heavy (``concurrent.futures``, ``hashlib``) shows up as
start-up time on all of them.
"""

import ast
import subprocess
import sys
from pathlib import Path

import viewpilot

# What `import viewpilot` may add to a process that has already imported numpy.
ALLOWED = {"__future__", "_json", "copy", "dataclasses", "json"}


def test_import_adds_only_the_known_modules():
    src = str(Path(viewpilot.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import numpy; before = set(sys.modules); "
        "import viewpilot; print(sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    added = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    assert "viewpilot.evaluation" in added
    # The checker and the command line are loaded by their callers only.
    assert "viewpilot.gradcheck" not in added and "viewpilot.cli" not in added
    extra = [
        name for name in added
        if name.split(".")[0] not in ("viewpilot", "json") and name not in ALLOWED
    ]
    assert extra == []
