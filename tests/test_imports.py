"""numpy is the only numeric dependency the package declares."""

import os
import subprocess
import sys
from pathlib import Path

import droidlens

_PROBE = """
import importlib, pkgutil, sys
import droidlens
names = [m.name for m in pkgutil.iter_modules(droidlens.__path__, "droidlens.")]
for name in names:
    importlib.import_module(name)
print(len(names))
print(" ".join(sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "sklearn"})))
"""


def test_no_module_imports_scipy_or_sklearn():
    # A fresh interpreter: this one may hold scipy from another test's imports.
    src = str(Path(droidlens.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split("\n")
    assert int(out[0]) >= 9  # every module was found and imported
    assert out[1] == ""
