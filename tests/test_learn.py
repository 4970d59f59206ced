"""SMOTE and the five classifiers.

Oracles: a segment-membership residual check for SMOTE synthetics, a
hand-written Gaussian posterior for naive Bayes, an exhaustive split
check for the XOR tree, and earlier implementations that the current
ones must match exactly: the recursive CART grower with its
one-feature-at-a-time split search, per-row tree descent, and SMOTE's
m×m×d neighbour table.  The linear models are held
to their optimum instead: the gradient at the returned point, the
halving-step descent they ran before, and the optimum found by Newton's
method in 50-digit decimal arithmetic.  The Newton direction is held to
a Cholesky-gated solve of the bordered Hessian.
"""

import contextlib
import decimal
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from droidlens import learn
from droidlens.dataset import Dataset
from droidlens.errors import LearnError
from droidlens.learn import (
    KINDS,
    ClassifierModel,
    ClassifierSpec,
    fit,
    predict_batch,
    smote_balance,
)
from droidlens.rng import derive_rng
from evalfactory import datasets_equal, noisy_blob_dataset


def make_ds(features, labels, ids=None):
    features = np.asarray(features, dtype=np.float64)
    if ids is None:
        ids = tuple(f"r{i}" for i in range(len(features)))
    return Dataset(ids=ids, features=features, labels=np.asarray(labels))


def train_accuracy(model, ds):
    return float((predict_batch(model, ds.features) == ds.labels).mean())


# --- Oracles ----------------------------------------------------------------


def segment_residual(point, originals):
    """Min distance from `point` to any segment between two originals."""
    best = math.inf
    pts = [np.asarray(p, dtype=float) for p in originals]
    q = np.asarray(point, dtype=float)
    for a in pts:
        for b in pts:
            ab = b - a
            denom = float(ab @ ab)
            t = 0.0 if denom == 0 else float(np.clip((q - a) @ ab / denom, 0.0, 1.0))
            best = min(best, float(np.linalg.norm(q - (a + t * ab))))
    return best


def nb_posterior_oracle(x, priors, means, variances):
    post = []
    for c in (0, 1):
        lp = math.log(priors[c])
        for j in range(len(x)):
            v = variances[c][j]
            lp += -0.5 * math.log(2 * math.pi * v) - (x[j] - means[c][j]) ** 2 / (2 * v)
        post.append(lp)
    return post


def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _reference_best_split(X, y, feature_ids):
    """CART split search one feature at a time: ascending features,
    strict improvement, first-occurrence argmax within a feature."""
    n = y.size
    total1 = int((y == 1).sum())
    parent = _gini(np.array([n - total1, total1]))
    best = None
    for f in feature_ids:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        boundaries = np.flatnonzero(sv[:-1] < sv[1:])
        if boundaries.size == 0:
            continue
        cum1 = np.cumsum(sy)
        nl = boundaries + 1.0
        nr = n - nl
        l1 = cum1[boundaries].astype(np.float64)
        l0 = nl - l1
        r1 = total1 - l1
        r0 = nr - r1
        gini_l = 1.0 - ((l0 / nl) ** 2 + (l1 / nl) ** 2)
        gini_r = 1.0 - ((r0 / nr) ** 2 + (r1 / nr) ** 2)
        decrease = parent - (nl / n) * gini_l - (nr / n) * gini_r
        pos = int(np.argmax(decrease))
        if best is None or decrease[pos] > best[0]:
            threshold = (sv[boundaries[pos]] + sv[boundaries[pos] + 1]) / 2.0
            best = (float(decrease[pos]), int(f), float(threshold))
    return best


def _reference_grow_tree(X, y, depth, max_depth, min_samples_split, taken=None):
    """The recursive grower the lockstep one replaced, as a generator:
    each node copies its rows of X, yields when it may split, receives
    its feature ids, and searches them with ``_reference_best_split``;
    the tree is the generator's return value.  ``taken["fallback"]``
    counts the nodes whose received features were all constant."""
    ones = int((y == 1).sum())
    if ones == 0 or ones == y.size:
        return {"leaf": int(y[0])}
    if y.size < min_samples_split or (max_depth is not None and depth >= max_depth):
        return {"leaf": 1 if ones > y.size - ones else 0}
    d = X.shape[1]
    feature_ids = yield
    best = _reference_best_split(X, y, feature_ids)
    if best is None and feature_ids.size < d:
        if taken is not None:
            taken["fallback"] += 1
        best = _reference_best_split(X, y, np.arange(d))
    if best is None:
        return {"leaf": 1 if ones > y.size - ones else 0}
    _, feature, threshold = best
    mask = X[:, feature] <= threshold
    grow = lambda m: _reference_grow_tree(
        X[m], y[m], depth + 1, max_depth, min_samples_split, taken
    )
    left = yield from grow(mask)
    right = yield from grow(~mask)
    return {"feature": feature, "threshold": threshold, "left": left, "right": right}


def _reference_trees(X, y, samples, max_depth, min_samples_split, mtry, rng, taken=None):
    """One reference tree per row sample, the generators advanced one
    node each per round.  With mtry below d, a round draws
    ``rng.random((B, d))`` for the B trees waiting, in tree order, and
    a tree's features are the mtry smallest keys of its row."""
    d = X.shape[1]
    growers = [
        _reference_grow_tree(X[rows], y[rows], 0, max_depth, min_samples_split, taken)
        for rows in samples
    ]
    trees = [None] * len(growers)

    def advance(t, feature_ids):
        try:
            growers[t].send(feature_ids)
            return True
        except StopIteration as done:
            trees[t] = done.value
            return False

    waiting = [t for t in range(len(growers)) if advance(t, None)]
    while waiting:
        if mtry is not None and mtry < d:
            keys = rng.random((len(waiting), d))
            picks = [np.sort(np.argsort(row, kind="stable")[:mtry]) for row in keys]
        else:
            picks = [np.arange(d)] * len(waiting)
        waiting = [t for t, feature_ids in zip(waiting, picks) if advance(t, feature_ids)]
    return trees


def _reference_forest(X, y, n_trees, seed, mtry, taken=None):
    """The forest's trees from one stream: every bootstrap sample in
    one draw, then the per-round feature keys."""
    rng = derive_rng(seed, "forest")
    samples = rng.integers(0, X.shape[0], size=(n_trees, X.shape[0]))
    return _reference_trees(X, y, samples, None, 2, mtry, rng, taken)


def _reference_tree_predict_one(tree, x):
    node = tree
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def _reference_neighbor_table(M, k):
    """SMOTE's neighbour table from the full m×m×d difference tensor,
    each row stable-sorted whole: ties go to the lowest row index, and
    the NaN diagonal sorts last, so a row is never its own neighbour."""
    gap = M[:, None, :] - M[None, :, :]
    dist = np.sqrt((gap * gap).sum(axis=2))
    np.fill_diagonal(dist, np.nan)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def _objective_closures(kind, Z, y, lam):
    """(loss, grad) of a linear model's objective over standardized Z,
    written independently of the solver's row terms."""
    n = len(y)
    sign = np.where(y == 1, 1.0, -1.0)

    if kind == "logistic_regression":

        def loss(wv, bv):
            margins = sign * (Z @ wv + bv)
            return float(np.logaddexp(0.0, -margins).mean() + lam * (wv @ wv))

        def grad(wv, bv):
            # d/dz log(1 + exp(-s·z)) = -s / (1 + exp(s·z))
            err = -sign * np.exp(-np.logaddexp(0.0, sign * (Z @ wv + bv)))
            return Z.T @ err / n + 2.0 * lam * wv, float(err.mean())

    else:

        def loss(wv, bv):
            hinge = np.maximum(1.0 - sign * (Z @ wv + bv), 0.0)
            return float((hinge * hinge).mean() + lam * (wv @ wv))

        def grad(wv, bv):
            err = -2.0 * sign * np.maximum(1.0 - sign * (Z @ wv + bv), 0.0)
            return Z.T @ err / n + 2.0 * lam * wv, float(err.mean())

    return loss, grad


def _reference_descent(X, y, kind, hp):
    """The halving-step descent both linear models ran before Newton's
    method, from a first step of 1, with the test's own closures."""
    mean, std, kept = learn._standardize_fit(X)
    Z = learn._standardize_apply(X, mean, std, kept)
    loss, grad = _objective_closures(kind, Z, y, hp["l2"])
    w = np.zeros(Z.shape[1])
    b = 0.0
    step = 1.0
    current = loss(w, b)
    curve = [current]
    for _ in range(int(hp["max_iter"])):
        gw, gb = grad(w, b)
        gnorm = math.sqrt(float(gw @ gw) + gb * gb)
        if gnorm < hp["grad_tol"]:
            break
        while True:
            cand_w = w - step * gw
            cand_b = b - step * gb
            cand = loss(cand_w, cand_b)
            if cand <= current or step < 1e-12:
                break
            step *= 0.5
        if cand > current:
            break
        w, b, current = cand_w, cand_b, cand
        curve.append(current)
    return {"weights": w, "bias": b, "loss_curve": np.array(curve)}


# --- SMOTE --------------------------------------------------------------------


def test_smote_worked_example():
    ds = make_ds(
        [[0.0, 0.0], [2.0, 2.0], [9.0, 1.0], [9.0, 2.0], [8.0, 1.0], [8.0, 2.0]],
        [1, 1, 0, 0, 0, 0],
    )
    out = smote_balance(ds, seed=3)
    assert out.n == 8
    assert int(out.labels.sum()) == 4  # classes now equal
    assert out.ids[:6] == ds.ids
    assert np.array_equal(out.features[:6], ds.features)
    for row in out.features[6:]:
        # Both minority rows sit on the line y = x; synthetics must too.
        assert row[0] == pytest.approx(row[1], abs=1e-12)
        assert 0.0 <= row[0] <= 2.0


def test_smote_balances_and_stays_on_segments():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n1 = int(rng.integers(3, 9))
        n0 = int(rng.integers(n1 + 1, 25))
        X = np.vstack([rng.uniform(0, 50, (n0, 4)), rng.uniform(0, 50, (n1, 4))])
        y = np.array([0] * n0 + [1] * n1)
        ds = make_ds(X, y)
        out = smote_balance(ds, seed=trial)
        assert int((out.labels == 0).sum()) == int((out.labels == 1).sum()) == n0
        minority_rows = X[y == 1]
        for row in out.features[ds.n :]:
            assert segment_residual(row, minority_rows) < 1e-9


def test_smote_balanced_input_returned_unchanged():
    ds = make_ds([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
    assert smote_balance(ds, seed=1) is ds


def test_smote_minority_too_small():
    ds = make_ds([[0.0], [1.0], [2.0]], [0, 0, 1])
    with pytest.raises(LearnError, match="minority"):
        smote_balance(ds, seed=1)


def test_smote_majority_can_be_class_one():
    ds = make_ds([[0.0], [10.0], [1.0], [11.0], [2.0], [12.0]], [1, 1, 1, 1, 0, 0])
    out = smote_balance(ds, seed=2)
    assert int((out.labels == 0).sum()) == 4
    assert all(i.startswith("smote-0-") for i in out.ids[6:])


def test_smote_deterministic():
    rng = np.random.default_rng(0)
    ds = make_ds(rng.uniform(0, 9, (12, 3)), [0] * 8 + [1] * 4)
    a = smote_balance(ds, seed=7)
    b = smote_balance(ds, seed=7)
    assert datasets_equal(a, b)
    c = smote_balance(ds, seed=8)
    assert not datasets_equal(a, c)


def test_smote_caps_neighbors():
    # Two minority rows: only one neighbor exists, the 5 neighbors must cap.
    ds = make_ds([[0.0], [5.0], [1.0], [2.0], [3.0], [4.0]], [1, 1, 0, 0, 0, 0])
    out = smote_balance(ds, seed=0)
    for v in out.features[6:, 0]:
        assert 0.0 <= v < 5.0


@st.composite
def neighbor_problems(draw):
    """Few-level or wide-range rows with duplicates, so tied and zero
    distances are common, plus k up to m - 1."""
    m = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        cells = st.integers(-2, 2).map(float)
    else:
        cells = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(cells, min_size=d, max_size=d), min_size=1, max_size=m))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=m, max_size=m))
    k = draw(st.integers(min_value=1, max_value=min(5, m - 1)))
    return np.array([rows[i] for i in picks], dtype=np.float64), k


@given(problem=neighbor_problems())
# Every distance tied at 0, which numpy's SIMD sort kernels order
# differently from its baseline one; then ties at the k-th distance.
@example(problem=(np.zeros((40, 3)), 5))
@example(problem=(np.repeat([[0.0], [1.0]], [3, 30], axis=0), 5))
# Distances that overflow to inf, tying the rows that are not duplicates.
@example(problem=(np.array([[1e200, 0.0], [1e200, 0.0], [-1e200, 0.0]]), 2))
@example(problem=(np.array([[0.0], [2e200], [-2e200], [1e200]]), 2))
@settings(max_examples=300, deadline=None)
def test_neighbor_table_matches_reference(problem):
    M, k = problem
    with np.errstate(over="ignore"):
        table = learn._neighbor_table(M, k)
        assert np.array_equal(table, _reference_neighbor_table(M, k))
    assert not (table == np.arange(len(M))[:, None]).any()


@pytest.mark.parametrize(
    "m, d, top",
    [(7, 64, None), (50, 64, None), (386, 64, None), (90, 256, 2_965_820), (90, 256, 2_965_821)],
    ids=["7", "50", "386", "256-at-bound", "256-above-bound"],
)
def test_neighbor_table_matches_reference_on_counts(m, d, top):
    # Poisson opcode-like counts; m = 386 spans several ranking blocks.
    # At d = 256, 2,965,820 is the largest count exact_distances takes
    # through its Gram product; one more sends it to direct differences.
    rng = np.random.default_rng(m)
    M = rng.poisson(rng.gamma(1.0, 5.0, d), size=(m, d)).astype(np.float64)
    if top is not None:
        M *= top // M.max()
        M[1, 0] = top
    M[m // 2] = M[0]
    assert np.array_equal(learn._neighbor_table(M, 5), _reference_neighbor_table(M, 5))


_NEIGHBOR_TABLES = """
import json
import numpy as np
from droidlens import learn
rng = np.random.default_rng(5)
cases = [
    np.zeros((40, 3)),
    rng.integers(0, 2, (200, 4)).astype(np.float64),
    rng.poisson(rng.gamma(1.0, 5.0, 64), (300, 64)).astype(np.float64),
]
print(json.dumps([learn._neighbor_table(M, 5).tolist() for M in cases]))
"""


def _dispatched_cpu_targets():
    """numpy's dispatched SIMD targets that this CPU supports."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


def test_neighbor_table_same_on_baseline_sort_kernels():
    # A fresh interpreter with numpy's dispatched kernels switched off
    # sorts on its baseline ones, and must build the same tables.
    targets = _dispatched_cpu_targets()
    if not targets:
        pytest.skip("numpy dispatches no SIMD kernel this CPU supports")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tables = []
    for disabled in ("", " ".join(targets)):
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run(
            [sys.executable, "-c", _NEIGHBOR_TABLES], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        tables.append(done.stdout)
    assert tables[0] == tables[1]


# --- spec validation ------------------------------------------------------------


def test_spec_rejects_unknown_kind_and_keys():
    with pytest.raises(LearnError, match="kind"):
        ClassifierSpec(kind="svm")
    with pytest.raises(LearnError, match="unknown hyperparameters"):
        ClassifierSpec(kind="linear_svm", hyperparameters={"kernel": "rbf"})
    spec = ClassifierSpec(kind="linear_svm", hyperparameters={"l2": 0.5})
    assert spec.hyperparameters == {"l2": 0.5}
    # The solver's stopping rules are constants, not settings.
    for kind in LINEAR_KINDS:
        for key in ("epochs", "grad_tol", "max_iter", "step"):
            with pytest.raises(LearnError, match=re.escape("valid keys: ['l2']")):
                ClassifierSpec(kind=kind, hyperparameters={key: 5})
        assert ClassifierSpec(kind=kind).hyperparameters == {"l2": 1e-4}
    assert ClassifierSpec(kind="random_forest").hyperparameters == {
        "n_trees": 100, "mtry": None, "max_depth": None, "min_samples_split": 2,
    }


@pytest.mark.parametrize(
    "kind, hp, message",
    [
        ("logistic_regression", {"l2": "0.1"}, "l2 must be a number, got '0.1'"),
        ("logistic_regression", {"l2": True}, "l2 must be a number"),
        ("logistic_regression", {"l2": -1.0}, "l2 must be >= 0"),
        ("logistic_regression", {"l2": float("nan")}, "l2 must be >= 0"),
        # Once settings, now refused by name whatever their value.
        ("logistic_regression", {"grad_tol": -1e-6}, "unknown hyperparameters for logistic_regression"),
        ("linear_svm", {"max_iter": -3}, "unknown hyperparameters for linear_svm: ['max_iter']"),
        ("linear_svm", {"l2": -1e-6}, "l2 must be >= 0"),
        ("linear_svm", {"l2": None}, "l2 must be a number, got None"),
        ("gaussian_nb", {"var_floor_ratio": 0.0}, "var_floor_ratio must be > 0"),
        ("gaussian_nb", {"var_floor_ratio": "1e-9"}, "var_floor_ratio must be a number"),
        ("decision_tree", {"max_depth": "3"}, "max_depth must be an integer or null"),
        ("decision_tree", {"max_depth": -1}, "max_depth must be >= 0"),
        ("decision_tree", {"min_samples_split": -2}, "min_samples_split must be >= 0"),
        ("random_forest", {"n_trees": 2.5}, "n_trees must be an integer"),
        ("random_forest", {"n_trees": False}, "n_trees must be an integer"),
        ("random_forest", {"mtry": 1.5}, "mtry must be an integer or null"),
        ("random_forest", {"mtry": 0}, "mtry must be >= 1"),
    ],
)
def test_spec_rejects_bad_hyperparameter_values(kind, hp, message):
    with pytest.raises(LearnError, match=re.escape(message)):
        ClassifierSpec(kind=kind, hyperparameters=hp)


def test_spec_hyperparameters_are_read_only():
    given = {"n_trees": 3}
    spec = ClassifierSpec(kind="random_forest", hyperparameters=given)
    with pytest.raises(TypeError):
        spec.hyperparameters["n_trees"] = 0
    with pytest.raises(TypeError):
        del spec.hyperparameters["n_trees"]
    given["n_trees"] = 0  # the spec holds its own copy
    assert spec.hyperparameters == {**learn._DEFAULTS["random_forest"], "n_trees": 3}
    assert spec == ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 3})
    reseeded = replace(spec, seed=7)
    assert reseeded.hyperparameters == spec.hyperparameters and reseeded.seed == 7
    with pytest.raises(TypeError):
        reseeded.hyperparameters["n_trees"] = 0


def test_spec_accepts_numpy_numbers_and_null_defaults():
    ClassifierSpec(kind="logistic_regression", hyperparameters={"l2": 0})
    ClassifierSpec(kind="linear_svm", hyperparameters={"l2": np.float64(0.0)})
    spec = ClassifierSpec(
        kind="random_forest",
        hyperparameters={"n_trees": np.int64(5), "max_depth": None, "mtry": None},
    )
    assert spec.hyperparameters["n_trees"] == 5
    ClassifierSpec(kind="decision_tree", hyperparameters={"max_depth": 0})


# --- fitting behavior -------------------------------------------------------------


def separable_1d():
    X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
    y = np.array([0] * 10 + [1] * 10)
    return make_ds(X, y)


def two_blob_ds(seed, per=30, centers=((0.0, 0.0), (8.0, 8.0)), sigma=0.6):
    rng = np.random.default_rng(seed)
    X = np.vstack([np.asarray(c) + rng.normal(0, sigma, (per, 2)) for c in centers])
    y = np.array([0] * per + [1] * per)
    return make_ds(X, y)


def test_logistic_separable():
    ds = separable_1d()
    model = fit(ClassifierSpec(kind="logistic_regression", seed=1), ds)
    assert train_accuracy(model, ds) == 1.0
    curve = model.params["loss_curve"]
    assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))


@st.composite
def logistic_problems(draw):
    """Normal or few-level features (so collinear and constant columns
    occur), l2 of 0 (a singular Hessian when columns are collinear or
    d >= n), and settings that reach max_iter, stop on grad_tol, or
    (with grad_tol 0) run until no step lowers the objective."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_value=2, max_value=40))
    d = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        X = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (n, d))
    else:
        X = rng.integers(0, 3, (n, d)).astype(np.float64)
    y = rng.integers(0, 2, n)
    hp = {
        "l2": draw(st.sampled_from([0.0, 1e-4, 1e-1])),
        "max_iter": draw(st.integers(0, 400)),
        "grad_tol": draw(st.sampled_from([0.0, 1e-6, 1e-2])),
    }
    return X, y, hp


LINEAR_KINDS = ("logistic_regression", "linear_svm")


def _linear_settings(kind, **given):
    """A linear model's settings with the solver's stopping rules: the
    ``given`` ones over the defaults and ``_MAX_ITER``/``_GRAD_TOL``."""
    stop = {"max_iter": learn._MAX_ITER, "grad_tol": learn._GRAD_TOL}
    return {**learn._DEFAULTS[kind], **stop, **given}


@contextlib.contextmanager
def _stopping_at(hp):
    """The solver's stopping rules patched to hp's max_iter and grad_tol."""
    with mock.patch.object(learn, "_MAX_ITER", hp["max_iter"]):
        with mock.patch.object(learn, "_GRAD_TOL", hp["grad_tol"]):
            yield


def _fit_linear_direct(kind, X, y, hp):
    """Call the model's fitter itself, so single-class labels reach the
    solver too, at hp's l2 and stopping rules."""
    fitter = learn._fit_logistic if kind == "logistic_regression" else learn._fit_linear_svm
    with _stopping_at(hp):
        return fitter(X, y, {"l2": hp["l2"]})


def _check_linear_fit(kind, X, y, hp, params):
    """Assert the loss_curve contract: it starts at the objective at
    w = 0, falls with every accepted iteration, ends at the returned
    model's objective and has at most max_iter steps.  Returns the
    gradient norm at the returned point, both from the test's own
    closures."""
    Z = learn._standardize_apply(X, params["mean"], params["std"], params["kept"])
    loss, grad = _objective_closures(kind, Z, y, hp["l2"])
    w, b, curve = params["weights"], params["bias"], params["loss_curve"]
    assert np.all(np.isfinite(w)) and math.isfinite(b)
    assert math.isclose(curve[0], loss(np.zeros_like(w), 0.0), rel_tol=1e-12)
    assert math.isclose(curve[-1], loss(w, b), rel_tol=1e-12)
    assert np.all(np.diff(curve) < 0.0)
    assert len(curve) - 1 <= hp["max_iter"]
    gw, gb = grad(w, b)
    return math.sqrt(float(gw @ gw) + gb * gb)


_DEFAULT_BLOBS = noisy_blob_dataset(3)
_DEFAULT_PROBLEM = (
    _DEFAULT_BLOBS.features,
    _DEFAULT_BLOBS.labels,
    _linear_settings("logistic_regression"),
)


@given(problem=logistic_problems(), kind=st.sampled_from(LINEAR_KINDS))
@example(problem=_DEFAULT_PROBLEM, kind="logistic_regression")
@example(problem=_DEFAULT_PROBLEM, kind="linear_svm")
@settings(max_examples=300, deadline=None)
def test_linear_fit_reaches_optimum(problem, kind):
    X, y, hp = problem
    got = _fit_linear_direct(kind, X, y, hp)
    gnorm = _check_linear_fit(kind, X, y, hp, got)
    curve = got["loss_curve"]
    if len(curve) - 1 == hp["max_iter"]:
        return  # cut short: only the curve contract is promised
    # A stop before max_iter is the grad_tol stop, or a stall where
    # rounding hides the decrease, which only happens far below the
    # default tolerance; grad_tol 0 can end no other way.
    assert gnorm < max(hp["grad_tol"], 1e-6)
    if hp["grad_tol"] <= 1e-6:
        # At grad_tol 1e-2 both solvers stop wherever the gradient first
        # drops below it, so neither point is an optimum to compare.
        old = _reference_descent(X, y, kind, hp)["loss_curve"][-1]
        assert curve[-1] <= old + 1e-12 * curve[0]


def _gauss_solve(A, rhs):
    """A·x = rhs by Gaussian elimination with partial pivoting, in the
    current decimal context."""
    k = len(rhs)
    M = [list(row) + [v] for row, v in zip(A, rhs)]
    for c in range(k):
        pivot = max(range(c, k), key=lambda r: abs(M[r][c]))
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(c + 1, k):
            factor = M[r][c] / M[c][c]
            for j in range(c, k + 1):
                M[r][j] -= factor * M[c][j]
    x = [decimal.Decimal(0)] * k
    for c in reversed(range(k)):
        x[c] = (M[c][k] - sum(M[c][j] * x[j] for j in range(c + 1, k))) / M[c][c]
    return x


def _decimal_optimum(kind, Z, y, lam, digits=50):
    """(weights, bias, objective) at the model's optimum over
    standardized Z, by damped Newton in `digits`-digit decimal
    arithmetic: no numpy, no floating point after the inputs."""
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        rows = [[D(float(v)) for v in row] + [D(1)] for row in Z]
        signs = [D(1) if label == 1 else D(-1) for label in y]
        n, k = len(rows), Z.shape[1] + 1
        reg = [D(lam)] * (k - 1) + [D(0)]  # the bias is not penalised

        def terms(theta):
            f = sum(r * t * t for r, t in zip(reg, theta))
            g = [2 * r * t for r, t in zip(reg, theta)]
            H = [[2 * reg[i] if i == j else D(0) for j in range(k)] for i in range(k)]
            for row, s in zip(rows, signs):
                m = s * sum(a * t for a, t in zip(row, theta))
                if kind == "logistic_regression":
                    loss = (1 + (-m).exp()).ln()
                    slope = -s / (1 + m.exp())
                    curv = m.exp() / (1 + m.exp()) ** 2
                else:
                    hinge = max(1 - m, D(0))
                    loss, slope = hinge * hinge, -2 * s * hinge
                    curv = D(2) if hinge > 0 else D(0)
                f += loss / n
                for i in range(k):
                    g[i] += slope * row[i] / n
                    for j in range(k):
                        H[i][j] += curv * row[i] * row[j] / n
            return f, g, H

        theta = [D(0)] * k
        f, g, H = terms(theta)
        for _ in range(100):
            p = _gauss_solve(H, [-v for v in g])
            if max(abs(v) for v in p) < D(10) ** -(digits // 2):
                break  # far below double precision, far above this context's
            t = D(1)
            while True:
                cand = [a + t * b for a, b in zip(theta, p)]
                cand_f, cand_g, cand_H = terms(cand)
                if cand_f <= f:
                    break
                t /= 2
            theta, f, g, H = cand, cand_f, cand_g, cand_H
        return np.array([float(v) for v in theta[:-1]]), float(theta[-1]), float(f)


@pytest.mark.parametrize("kind", LINEAR_KINDS)
@pytest.mark.parametrize("seed, d, l2", [(0, 1, 1e-4), (1, 2, 1e-4), (2, 2, 1e-1), (3, 1, 0.0)])
def test_linear_fit_agrees_with_high_precision_optimum(kind, seed, d, l2, monkeypatch):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (24, d))
    y = (X.sum(axis=1) + rng.normal(0.0, 1.0, 24) > 0).astype(np.int64)  # overlapping
    # grad_tol 0: logistic regression runs until no step lowers the
    # objective.  Near the optimum the objective moves by the square of
    # the distance, so comparing objectives pins the point to about
    # sqrt(eps); the SVM's generalised Newton ends on an exact solve.
    if kind == "logistic_regression":
        monkeypatch.setattr(learn, "_GRAD_TOL", 0.0)
    p = fit(ClassifierSpec(kind=kind, hyperparameters={"l2": l2}), make_ds(X, y)).params
    Z = learn._standardize_apply(X, p["mean"], p["std"], p["kept"])
    w, b, objective = _decimal_optimum(kind, Z, y, l2)
    assert p["loss_curve"][-1] == pytest.approx(objective, rel=1e-12)
    assert p["weights"] == pytest.approx(w, abs=1e-7)
    assert p["bias"] == pytest.approx(b, abs=1e-7)


@pytest.mark.parametrize(
    "kind, hp",
    [
        ("logistic_regression", {"l2": 0.0}),
        # Runs until the log-loss underflows, about 700 iterations, at
        # margins past 1000 where exp(-z) itself would overflow.
        ("logistic_regression", {"l2": 0.0, "grad_tol": 0.0}),
        ("linear_svm", {"l2": 0.0}),
    ],
)
def test_linear_fit_l2_zero_on_separable_data(kind, hp):
    ds = two_blob_ds(9)
    hp = _linear_settings(kind, **hp)
    with _stopping_at(hp):
        model = fit(ClassifierSpec(kind=kind, hyperparameters={"l2": hp["l2"]}), ds)
    _check_linear_fit(kind, ds.features, ds.labels, hp, model.params)
    assert len(model.params["loss_curve"]) - 1 < hp["max_iter"]
    assert train_accuracy(model, ds) == 1.0


def _poisson_counts(seed, n, d):
    rng = np.random.default_rng(seed)
    rates = rng.gamma(1.0, 5.0, size=(2, d))
    y = rng.integers(0, 2, n)
    return make_ds(rng.poisson(rates[y]), y)


@pytest.mark.parametrize("kind, blobs_most, counts_most", [
    ("logistic_regression", 6, 15),
    ("linear_svm", 3, 40),
])
def test_newton_reaches_grad_tol_in_few_iterations(kind, blobs_most, counts_most):
    # Near the optimum Newton's method converges quadratically (4 and
    # 1-2 iterations on the blobs, 11 and 28 on the counts).  A wrong
    # Hessian converges linearly at best and needs far more.  The wide
    # bounds are the iterations the bordered solve took on that input.
    spec = ClassifierSpec(kind=kind)
    hp = _linear_settings(kind)
    cases = [(noisy_blob_dataset(seed), blobs_most) for seed in range(3)]
    cases.append((_poisson_counts(7, 300, 64), counts_most))  # the bordered solve: n > d
    wide_most = {"logistic_regression": 12, "linear_svm": 2}[kind]
    cases.append((_poisson_counts(7, 38, 256), wide_most))  # a triage fold: n < d
    for ds, most in cases:
        p = fit(spec, ds).params
        assert _check_linear_fit(kind, ds.features, ds.labels, hp, p) < hp["grad_tol"]
        assert len(p["loss_curve"]) - 1 <= most


def _bordered_hessian(Z, h, lam):
    """Zᵀ·diag(h)·Z/n + 2·l2·I, bordered by the unpenalised bias, as
    SᵀS + 2·l2·I with S = r·Z for r = √(h/n), bordered by Sᵀr and rᵀr:
    the arithmetic of the routine's least-norm step, so that where both
    take that step they decompose the same matrix."""
    n, d = Z.shape
    r = np.sqrt(h / n)
    S = Z * r[:, None]
    H = np.empty((d + 1, d + 1))
    H[:d, :d] = S.T @ S + 2.0 * lam * np.eye(d)
    H[:d, d] = H[d, :d] = S.T @ r
    H[d, d] = r @ r
    return H


def _draw_curvature(draw, rng, n):
    """LR curvatures σ(z)(1 − σ(z)), SVM curvatures of 0 or 2 with some
    rows outside the margin, or none at all (no SVM row inside the
    margin)."""
    curvature = draw(st.sampled_from(["logistic", "svm", "flat"]))
    if curvature == "logistic":
        sigma = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, n)))
        return sigma * (1.0 - sigma)
    if curvature == "svm":
        h = 2.0 * (rng.random(n) < 0.6)
        h[rng.integers(n)] = 0.0
        return h
    return np.zeros(n)


@st.composite
def newton_problems(draw, wide):
    """Fewer rows than features when ``wide``, else at least as many;
    each kind of curvature, l2 = 0 among the penalties, and sometimes a
    last column that nearly repeats the first."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if wide:
        n = draw(st.integers(2, 40))
        d = draw(st.integers(n + 1, 64))
    else:
        d = draw(st.integers(1, 64))
        n = draw(st.integers(d, 100))
    lam = draw(st.sampled_from([0.0, 1e-4, 1e-1]))
    Z = rng.normal(0.0, 1.0, (n, d))
    noise = draw(st.sampled_from([None, 1e-2, 1e-10]))
    if noise is not None and d > 1:
        Z[:, -1] = Z[:, 0] + noise * rng.normal(0.0, 1.0, n)
    h = _draw_curvature(draw, rng, n)
    return Z, h, lam, rng.normal(0.0, 1.0, d + 1)


def _least_norm_direction(H, grad):
    """The least-norm solution of H·p = −grad over the eigenvectors
    whose curvature is above ``_FLAT`` of the largest."""
    vals, vecs = np.linalg.eigh(H)
    keep = vals > learn._FLAT * max(vals[-1], 0.0)
    return -(vecs[:, keep] @ ((vecs[:, keep].T @ grad) / vals[keep]))


def _cholesky_gated_direction(H, grad):
    """The bordered direction as first written: solve H·p = −grad when
    every Cholesky pivot² of H exceeds ``_FLAT`` of its largest diagonal
    entry, else the least-norm step."""
    try:
        smallest_pivot = np.linalg.cholesky(H).diagonal().min()
        if smallest_pivot**2 > learn._FLAT * H.diagonal().max():
            return np.linalg.solve(H, -grad)
    except np.linalg.LinAlgError:
        pass
    return _least_norm_direction(H, grad)


def _assert_newton_direction_matches_bordered_hessian(problem):
    # The routine gates on the ridge and the bias's Schur complement,
    # which are the Cholesky pivots that can be small, and applies the
    # weight block's inverse through the smaller Gram matrix.  l2 = 0
    # always takes the least-norm step.  That is the solve wherever no
    # eigenvalue is flat; where one is, a pivot² can still pass the
    # reference's gate (near-square shapes, near-collinear columns), so
    # the least-norm step is the reference there.  Each side solves a
    # system whose condition number stays below about 1e8 here, so each
    # direction carries a relative error near 1e-8 at worst.
    Z, h, lam, grad = problem
    H = _bordered_hessian(Z, h, lam)
    vals = np.linalg.eigvalsh(H)
    if lam == 0.0 and not vals[0] > learn._FLAT * vals[-1]:
        want = _least_norm_direction(H, grad)
    else:
        want = _cholesky_gated_direction(H, grad)
    got = learn._newton_direction(Z, h, lam, grad)
    assert np.all(np.isfinite(got))
    assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)


@given(problem=newton_problems(wide=False))
@settings(max_examples=300, deadline=None)
def test_bordered_direction_equals_cholesky_gated_direction(problem):
    # At least as many rows as features: the d×d weight block.
    _assert_newton_direction_matches_bordered_hessian(problem)


@given(problem=newton_problems(wide=True))
@settings(max_examples=300, deadline=None)
def test_row_space_direction_equals_bordered_direction(problem):
    # Fewer rows than features: the n×n system through Woodbury, held
    # to the same bordered reference, with no curvature on the bias
    # among the draws.
    _assert_newton_direction_matches_bordered_hessian(problem)


@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_wide_fits_skip_the_bordered_hessian(kind, monkeypatch):
    # The shape picks the Gram matrix: a triage fold (38 rows, 256
    # features) solves an n×n system, 300 rows × 64 features the d×d
    # weight block.  Either way an iteration factorises one matrix, by
    # one solve, and never decomposes the bordered Hessian.  With
    # l2 = 0 nothing lifts the flat directions, so every step is the
    # least-norm one from that Hessian's eigendecomposition.
    calls = Counter()

    def counted(name, function):
        return lambda *args: calls.update([name]) or function(*args)

    for name in ("solve", "eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    cases = (
        (1e-4, _poisson_counts(7, 38, 256), "solve"),
        (1e-4, _poisson_counts(7, 300, 64), "solve"),
        (0.0, noisy_blob_dataset(0), "eigh"),
    )
    for l2, ds, routine in cases:
        calls.clear()
        spec = ClassifierSpec(kind=kind, hyperparameters={"l2": l2})
        hp = _linear_settings(kind, l2=l2)
        p = fit(spec, ds).params
        iterations = len(p["loss_curve"]) - 1
        assert _check_linear_fit(kind, ds.features, ds.labels, hp, p) < hp["grad_tol"]
        assert iterations > 0 and calls == Counter({routine: iterations})


def _more_features_than_rows():
    # 21 parameters, 6 rows: the Hessian has rank <= 6.
    X = np.random.default_rng(21).normal(0.0, 1.0, (6, 20))
    return X, np.array([0, 1, 0, 1, 1, 0])


def _collinear_by_rounding():
    # Two rows z-score every column to about ±1, so the two columns are
    # collinear up to rounding: Cholesky can succeed on a noise pivot.
    X = np.array([[-0.3619874275365686, 0.8116259196764026],
                  [-1.2512308147872921, -1.2758971463181288]])
    return X, np.array([0, 1])


@pytest.mark.parametrize("kind", LINEAR_KINDS)
@pytest.mark.parametrize("problem", [_more_features_than_rows, _collinear_by_rounding])
def test_linear_fit_singular_hessian(kind, problem):
    # No penalty, so nothing lifts the Hessian's zero eigenvalues.
    X, y = problem()
    hp = _linear_settings(kind, l2=0.0)
    params = _fit_linear_direct(kind, X, y, hp)
    gnorm = _check_linear_fit(kind, X, y, hp, params)
    assert len(params["loss_curve"]) - 1 < hp["max_iter"]
    assert gnorm < hp["grad_tol"]


@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_fit_bias_only_when_every_feature_constant(kind):
    X = np.full((7, 3), 4.0)
    y = np.array([1, 1, 1, 0, 0, 0, 0])
    model = fit(ClassifierSpec(kind=kind), make_ds(X, y))
    p = model.params
    _check_linear_fit(kind, X, y, _linear_settings(kind), p)
    assert p["kept"].size == 0 and p["weights"].shape == (0,)
    # Closed forms: the log-odds of the classes, which the gradient stop
    # pins to within grad_tol / p(1 - p) = 1e-6 · 49/12; for the squared
    # hinge the mean of the signs, since every row stays inside the
    # margin, which one exact Newton step reaches.
    if kind == "logistic_regression":
        assert p["bias"] == pytest.approx(math.log(3 / 4), abs=5e-6)
    else:
        assert p["bias"] == pytest.approx((3 - 4) / 7, abs=1e-15)


@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_fit_max_iter_zero(kind):
    ds = two_blob_ds(4, per=6)
    hp = _linear_settings(kind, max_iter=0)
    with _stopping_at(hp):
        p = fit(ClassifierSpec(kind=kind), ds).params
    _check_linear_fit(kind, ds.features, ds.labels, hp, p)
    assert not p["weights"].any() and p["bias"] == 0.0
    assert len(p["loss_curve"]) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_svm_learns_non_separable_data(seed):
    ds = noisy_blob_dataset(seed)
    majority = max(float(ds.labels.mean()), 1.0 - float(ds.labels.mean()))
    model = fit(ClassifierSpec(kind="linear_svm"), ds)
    p = model.params
    curve = p["loss_curve"]
    assert len(curve) > 1
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert train_accuracy(model, ds) > majority
    # The curve tracks the squared hinge, not some other margin loss.
    Z = (ds.features[:, p["kept"]] - p["mean"][p["kept"]]) / p["std"][p["kept"]]
    hinge = np.maximum(1.0 - np.where(ds.labels == 1, 1.0, -1.0) * (Z @ p["weights"] + p["bias"]), 0.0)
    objective = (hinge**2).mean() + 1e-4 * p["weights"] @ p["weights"]
    assert curve[-1] == pytest.approx(objective, rel=1e-12)


def test_xor_tree_depth_two():
    ds = make_ds([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], [0, 0, 1, 1])
    model = fit(ClassifierSpec(kind="decision_tree", seed=0), ds)
    assert train_accuracy(model, ds) == 1.0

    def depth(node):
        if "leaf" in node:
            return 0
        return 1 + max(depth(node["left"]), depth(node["right"]))

    assert depth(model.params["tree"]) == 2


def test_nb_matches_posterior_oracle():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(-1, 0.1, (50, 1)), rng.normal(1, 0.1, (50, 1))])
    ds = make_ds(X, [0] * 50 + [1] * 50)
    model = fit(ClassifierSpec(kind="gaussian_nb", seed=0), ds)
    assert predict_batch(model, np.array([0.9])[None, :])[0] == 1
    assert predict_batch(model, np.array([-0.9])[None, :])[0] == 0
    p = model.params
    for x in np.linspace(-2, 2, 41):
        post = nb_posterior_oracle(
            [x], p["priors"], p["means"].tolist(), p["variances"].tolist()
        )
        expected = 1 if post[1] > post[0] else 0
        assert predict_batch(model, np.array([x])[None, :])[0] == expected


def test_svm_separable_blobs():
    ds = two_blob_ds(9)
    model = fit(ClassifierSpec(kind="linear_svm", seed=9), ds)
    assert train_accuracy(model, ds) == 1.0
    curve = model.params["loss_curve"]
    assert all(a >= b for a, b in zip(curve, curve[1:]))  # accepted objectives
    # Margin sign: the malware blob center scores positive, benign negative.
    kept = model.params["kept"]
    z = lambda v: float(
        ((v[kept] - model.params["mean"][kept]) / model.params["std"][kept])
        @ model.params["weights"]
        + model.params["bias"]
    )
    assert z(np.array([8.0, 8.0])) > 0 > z(np.array([0.0, 0.0]))


def test_rf_separable_blobs():
    ds = two_blob_ds(2)
    model = fit(ClassifierSpec(kind="random_forest", seed=2), ds)
    assert train_accuracy(model, ds) == 1.0


def test_constant_model_on_single_class():
    # One row is single-class too, so it also gets the constant model.
    for ds, label in ((make_ds([[0.0], [1.0], [2.0]], [1, 1, 1]), 1), (make_ds([[5.0]], [0]), 0)):
        for kind in KINDS:
            model = fit(ClassifierSpec(kind=kind, seed=0), ds)
            assert model.constant == label
            assert predict_batch(model, np.array([123.0])[None, :])[0] == label


def test_dt_without_features_is_one_majority_leaf():
    ds = Dataset(ids=("a", "b", "c"), features=np.empty((3, 0)), labels=np.array([0, 1, 1]))
    model = fit(ClassifierSpec(kind="decision_tree"), ds)
    assert model.params["tree"] == {"leaf": 1}
    assert predict_batch(model, np.empty((2, 0))).tolist() == [1, 1]


def test_dt_pure_leaf_recalls_training_point():
    ds = make_ds([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0], [4.0, 4.5]], [0, 1, 0, 1])
    model = fit(ClassifierSpec(kind="decision_tree", seed=0), ds)
    for row, label in zip(ds.features, ds.labels):
        assert predict_batch(model, row[None, :])[0] == label


def test_rf_vote_identity_with_identical_trees():
    tree = {"feature": 0, "threshold": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}
    one = ClassifierModel(kind="random_forest", params={"trees": [tree], "mtry": 1, "dim": 1})
    five = ClassifierModel(
        kind="random_forest", params={"trees": [tree] * 5, "mtry": 1, "dim": 1}
    )
    X = np.array([[0.0], [0.5], [0.7], [2.0]])
    assert np.array_equal(predict_batch(one, X), predict_batch(five, X))


def test_vote_tie_breaks_to_benign():
    t0 = {"leaf": 0}
    t1 = {"leaf": 1}
    model = ClassifierModel(
        kind="random_forest", params={"trees": [t0, t1], "mtry": 1, "dim": 1}
    )
    assert predict_batch(model, np.array([0.0])[None, :])[0] == 0


@st.composite
def split_problems(draw):
    """Small integer matrices with 1-3 levels per column, so tied values
    and constant columns are common."""
    n = draw(st.integers(min_value=2, max_value=24))
    d = draw(st.integers(min_value=1, max_value=6))
    columns = []
    for _ in range(d):
        levels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
        columns.append(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(columns, dtype=np.float64).T, np.array(y, dtype=np.int64)


@st.composite
def grower_problems(draw):
    """A split problem, 1-4 bootstrap samples of its rows (duplicates
    common), the stopping rules, mtry, and an element budget small
    enough that a step's segments, and one node's, span blocks."""
    X, y = draw(split_problems())
    n, d = X.shape
    samples = draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=n), min_size=1, max_size=4)
    )
    return (
        X,
        y,
        [np.array(rows) for rows in samples],
        draw(st.sampled_from([None, 0, 1, 3])),
        draw(st.sampled_from([0, 2, 5])),
        draw(st.sampled_from([1, d])),
        draw(st.integers(min_value=1, max_value=64)),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


@given(problem=grower_problems())
@settings(max_examples=300, deadline=None)
def test_grower_matches_reference(problem):
    X, y, samples, max_depth, min_samples_split, mtry, budget, seed = problem
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(learn, "_SPLIT_BUDGET", budget)
        grown = learn._grow_trees(
            X, y, samples, max_depth, min_samples_split, mtry, derive_rng(seed, "forest")
        )
    expected = _reference_trees(
        X, y, samples, max_depth, min_samples_split, mtry, derive_rng(seed, "forest")
    )
    assert grown == expected


def test_best_split_none_when_every_column_constant():
    X = np.array([[2.0, 0.0, 7.0]] * 5)
    y = np.array([0, 1, 1, 0, 1])
    feature_ids = np.arange(3)
    assert _reference_best_split(X, y, feature_ids) is None
    _, _, found = learn._split_search(
        *learn._rank_keys(X, y), np.arange(5), np.array([5]), np.array([3]), feature_ids[None, :]
    )
    assert not found.any()
    assert learn._grow_trees(X, y, [np.arange(5)], None, 2) == [{"leaf": 1}]


def test_trees_identical_to_reference_split():
    # Sparse counts: many columns are constant within a node, so some
    # forest nodes take the mtry fallback to all features (23 here).
    rng = np.random.default_rng(12)
    rates = rng.gamma(0.1, 1.0, size=(2, 36))
    y = rng.integers(0, 2, 60)
    X = rng.poisson(rates[y]).astype(np.float64)
    ds = make_ds(X, y)
    dt = fit(ClassifierSpec(kind="decision_tree", seed=5), ds)
    (tree,) = _reference_trees(X, y, [np.arange(60)], None, 2, None, None)
    assert dt.params == {"tree": tree, "dim": 36}
    taken = Counter()
    rf = fit(ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 10}, seed=5), ds)
    reference = _reference_forest(X, y, 10, 5, 6, taken)
    assert rf.params == {"trees": reference, "mtry": 6, "dim": 36}
    assert taken["fallback"] == 23
    votes = [sum(_reference_tree_predict_one(tree, row) for tree in reference) for row in X]
    assert predict_batch(rf, X).tolist() == [int(2 * v > 10) for v in votes]


@pytest.mark.parametrize("d, mtry", [(256, 16), (7, 3), (2, 1)])
def test_feature_draws_are_uniform_subsets(d, mtry):
    # Every feature sits in a node's draw with probability mtry/d; over
    # 20,000 draws each feature's count is binomial, held to 5 sigma.
    count = 20_000
    feats = learn._draw_features(derive_rng(9, "forest"), count, d, mtry)
    assert feats.shape == (count, mtry)
    assert ((feats >= 0) & (feats < d)).all()
    assert (np.diff(feats, axis=1) > 0).all()  # distinct, ascending
    p = mtry / d
    sigma = math.sqrt(count * p * (1.0 - p))
    assert np.abs(np.bincount(feats.ravel(), minlength=d) - count * p).max() <= 5.0 * sigma


_CUTS = (-1.0, -0.5, 0.0, 0.5, 1.0)


def _random_trees(d):
    def split(children):
        return st.builds(
            lambda f, t, left, right: {"feature": f, "threshold": t, "left": left, "right": right},
            st.integers(0, d - 1),
            st.sampled_from(_CUTS),
            children,
            children,
        )

    return st.recursive(st.builds(lambda v: {"leaf": v}, st.integers(0, 1)), split, max_leaves=16)


@given(
    trees=st.lists(_random_trees(3), min_size=1, max_size=5),
    X=st.lists(st.lists(st.sampled_from(_CUTS), min_size=3, max_size=3), max_size=12),
)
@example(
    trees=[{"feature": 1, "threshold": 0.5, "left": {"leaf": 1}, "right": {"leaf": 0}}],
    X=[[9.0, 0.5, 0.0], [9.0, float(np.nextafter(0.5, 1.0)), 0.0], [9.0, -1.0, 0.0]],
)
@settings(max_examples=300, deadline=None)
def test_tree_votes_match_per_row_reference(trees, X):
    # Every feature value is also a threshold, so rows often sit exactly
    # on a split; they go left.
    X = np.array(X, dtype=np.float64).reshape(-1, 3)
    expected = [sum(_reference_tree_predict_one(tree, row) for tree in trees) for row in X]
    assert learn._tree_votes(trees, X).tolist() == expected
    model = ClassifierModel(kind="decision_tree", params={"tree": trees[0], "dim": 3})
    assert predict_batch(model, X).tolist() == [
        _reference_tree_predict_one(trees[0], row) for row in X
    ]


_ONE_UP = np.nextafter(1.0, 2.0)


@pytest.mark.parametrize(
    "low, high",
    [
        (_ONE_UP, np.nextafter(_ONE_UP, 2.0)),  # the midpoint rounds up to high
        (1e308, 1.5e308),  # the midpoint overflows
    ],
)
def test_split_between_adjacent_or_huge_values_separates(low, high):
    ds = make_ds([[low], [high], [low], [high]], [0, 1, 0, 1])
    for kind in ("decision_tree", "random_forest"):
        model = fit(ClassifierSpec(kind=kind, seed=0), ds)
        assert train_accuracy(model, ds) == 1.0
    tree = fit(ClassifierSpec(kind="decision_tree"), ds).params["tree"]
    assert tree == {"feature": 0, "threshold": low, "left": {"leaf": 0}, "right": {"leaf": 1}}


def test_tree_fit_memory_stays_linear():
    # The split search sorts blocks of at most _SPLIT_BUDGET elements,
    # so beyond the rank keys and distinct-value table (1.5 times X's
    # bytes) a fit allocates little: the peak is about 1.6 times X's
    # bytes.  Searching a whole step in one block peaks at 6.5 times.
    rng = np.random.default_rng(3)
    X = rng.poisson(rng.gamma(0.5, 4.0, size=256), size=(2000, 256)).astype(np.float64)
    ds = make_ds(X, rng.integers(0, 2, 2000))
    tracemalloc.start()
    try:
        model = fit(ClassifierSpec(kind="decision_tree"), ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "feature" in model.params["tree"]
    assert peak < 2.5 * X.nbytes


def test_forest_fit_memory_stays_linear():
    # A forest draws one step's feature keys at a time (one row per
    # tree), so its peak stays near the decision tree's; drawing keys
    # for every node of every tree at once would pass the bound.
    rng = np.random.default_rng(3)
    X = rng.poisson(rng.gamma(0.5, 4.0, size=256), size=(2000, 256)).astype(np.float64)
    ds = make_ds(X, rng.integers(0, 2, 2000))
    spec = ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 10})
    tracemalloc.start()
    try:
        model = fit(spec, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all("feature" in tree for tree in model.params["trees"])
    assert peak < 2.5 * X.nbytes


@pytest.mark.parametrize("n_trees", [0, -3])
def test_rf_rejects_n_trees_below_one(n_trees):
    # The spec refuses it, so a run fails before fitting anything.
    with pytest.raises(LearnError, match="n_trees must be >= 1"):
        ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": n_trees})


def test_nb_zero_variance_feature_floored():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])  # col 0 constant
    ds = make_ds(X, [0, 0, 1, 1])
    model = fit(ClassifierSpec(kind="gaussian_nb", seed=0), ds)
    assert np.all(model.params["variances"] > 0)
    assert predict_batch(model, np.array([1.0, 2.5])[None, :])[0] in (0, 1)


def test_lr_drops_constant_features():
    X = np.array([[5.0, -1.0], [5.0, -0.5], [5.0, 1.0], [5.0, 0.5]])
    ds = make_ds(X, [0, 0, 1, 1])
    model = fit(ClassifierSpec(kind="logistic_regression", seed=0), ds)
    assert model.params["kept"].tolist() == [1]
    assert train_accuracy(model, ds) == 1.0


def test_fit_errors():
    empty = Dataset(ids=(), features=np.empty((0, 2)), labels=np.array([], dtype=np.int64))
    with pytest.raises(LearnError, match="empty"):
        fit(ClassifierSpec(kind="decision_tree"), empty)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_rows(kind, bad):
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 10, (20, 3))
    hp = {"n_trees": 10} if kind == "random_forest" else {}
    model = fit(ClassifierSpec(kind=kind, hyperparameters=hp), make_ds(X, [0, 1] * 10))
    probe = X[:4].copy()
    probe[2, 1] = bad
    with pytest.raises(LearnError, match="NaN or infinity"):
        predict_batch(model, probe)


def test_predict_dimension_mismatch():
    ds = two_blob_ds(1, per=5)
    model = fit(ClassifierSpec(kind="decision_tree"), ds)
    with pytest.raises(LearnError, match="features"):
        predict_batch(model, np.array([[1.0, 2.0, 3.0]]))


@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=25, deadline=None)
def test_predictions_always_binary(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    X = rng.uniform(0, 10, (n, 3))
    y = rng.integers(0, 2, n)
    hp = {"n_trees": 10} if kind == "random_forest" else {}
    max_iter = 10 if kind == "linear_svm" else learn._MAX_ITER
    with mock.patch.object(learn, "_MAX_ITER", max_iter):
        model = fit(ClassifierSpec(kind=kind, hyperparameters=hp, seed=seed), make_ds(X, y))
    out = predict_batch(model, rng.uniform(-5, 15, (8, 3)))
    assert set(out.tolist()) <= {0, 1}
    assert out.shape == (8,)


def test_fit_deterministic_per_seed():
    ds = two_blob_ds(5, per=15)
    probe = np.random.default_rng(0).uniform(-2, 10, (30, 2))
    for kind in KINDS:
        m1 = fit(ClassifierSpec(kind=kind, seed=77), ds)
        m2 = fit(ClassifierSpec(kind=kind, seed=77), ds)
        assert np.array_equal(predict_batch(m1, probe), predict_batch(m2, probe))

