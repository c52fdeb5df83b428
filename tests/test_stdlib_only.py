"""The library imports nothing outside the standard library."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARD = """
import importlib, pkgutil, sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "lefkit" and top not in sys.stdlib_module_names:
            raise ImportError(f"non-stdlib import: {name}")
        return None

sys.path.insert(0, sys.argv[1])
sys.meta_path.insert(0, StdlibOnly())
try:
    import numpy  # the guard runs first, so this fails whether numpy is installed or not
except ImportError as exc:
    assert "non-stdlib" in str(exc), exc
import lefkit
names = [m.name for m in pkgutil.walk_packages(lefkit.__path__, "lefkit.")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_with_the_stdlib_alone():
    done = subprocess.run(
        [sys.executable, "-I", "-c", GUARD, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) >= 8
