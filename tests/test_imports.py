"""numpy is the only dependency the package declares, and importing
droidlens loads no HTTP client: the live oracle imports the standard
library's on its first lookup."""

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
http = {"requests", "urllib3", "urllib.request", "http.client", "ssl"}
print(" ".join(sorted(set(sys.modules) & http)))
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
    assert out[2] == ""  # no HTTP client, not even the standard library's
