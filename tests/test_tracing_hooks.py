"""The bench tracer patches droidlens functions by name; each must exist,
and the traced calls must be the ones droidlens makes."""

import json
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

_COMPARE = """
import json, sys
sys.path[:0] = sys.argv[1:]
import numpy as np
from tracing import Tracer, install
tracer = Tracer()
install(tracer)
from droidlens import evaluate
X = np.random.default_rng(3).normal(0.0, 3.0, (24, 3))
evaluate.compare_clusterings(X, seed=1)
print(json.dumps([span[2] for span in tracer.spans]))
"""

_EVAL = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:]
from inputs import MixtureParams, make_mixture, write_mixture
from tracing import Tracer, install
tracer = Tracer()
install(tracer)
from droidlens import cli
write_mixture(Path("mix.csv"), *make_mixture(1, MixtureParams(n=60)))
code = cli.main(["eval", "clustered", "mix.csv", "--cv-k", "3", "-o", "report.csv"])
print(json.dumps({"code": code, "counts": dict(tracer.counts)}))
"""


def _run(code: str, cwd=None) -> subprocess.CompletedProcess:
    # A fresh interpreter, so the patches do not leak into other tests.
    return subprocess.run(
        [sys.executable, "-c", code, str(_ROOT / "bench"), str(_ROOT / "src")],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_tracer_installs_every_hook():
    done = _run(_PROBE)
    assert done.returncode == 0, done.stderr


def test_traced_comparison_builds_each_hierarchy_once():
    # Every BIRCH row cuts one tree and every agglomerative row one
    # hierarchy, each built through the traced name; a build that
    # bypassed it would leave its span time at zero.
    done = _run(_COMPARE)
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout.splitlines()[-1])
    assert names.count("clustering.birch") == 1
    assert names.count("clustering.agglomerative") == 1


def test_traced_eval_reads_fitted_and_smoted_records(tmp_path):
    # The fit and SMOTE hooks read the records the learners return; a
    # field they read that went missing would raise or count nothing.
    done = _run(_EVAL, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    counts = result["counts"]
    kinds = ("logistic_regression", "gaussian_nb", "linear_svm", "decision_tree",
             "random_forest")
    for name in [f"learn.fit_calls.{kind}" for kind in kinds] + [
        "learn.tree_nodes", "learn.logistic_iterations", "learn.smote_calls",
        "dataset.take_calls",
    ]:
        assert counts.get(name, 0) > 0, name
