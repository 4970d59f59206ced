"""The bench tracer patches droidlens functions by name; each must exist."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import sys
sys.path[:0] = sys.argv[1:]
from tracing import Tracer, install
install(Tracer())
"""


def test_tracer_installs_every_hook():
    # A fresh interpreter, so the patches do not leak into other tests.
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(_ROOT / "bench"), str(_ROOT / "src")],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
