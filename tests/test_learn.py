"""SMOTE and the five classifiers.

Oracles: a segment-membership residual check for SMOTE synthetics, a
hand-written Gaussian posterior for naive Bayes, an exhaustive split
check for the XOR tree, and three earlier implementations that the
current ones must match exactly: a one-feature-at-a-time CART split
search, SMOTE's m×m×d neighbour table and logistic regression's own
descent loop.
"""

import math

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
    interpolate,
    load_model,
    predict,
    predict_batch,
    save_model,
    smote_balance,
)
from evalfactory import noisy_blob_dataset


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


def _reference_best_split(X, y, feature_ids):
    """CART split search one feature at a time: ascending features,
    strict improvement, first-occurrence argmax within a feature."""
    n = y.size
    total1 = int((y == 1).sum())
    parent = learn._gini(np.array([n - total1, total1]))
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


def _reference_neighbor_table(M, k):
    """SMOTE's neighbour table from the full m×m×d difference tensor."""
    gap = M[:, None, :] - M[None, :, :]
    dist = np.sqrt((gap * gap).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1)[:, :k]


def _reference_fit_logistic(X, y, hp):
    """Logistic regression with its own loss and gradient closures."""
    mean, std, kept = learn._standardize_fit(X)
    Z = learn._standardize_apply(X, mean, std, kept)
    n, d = Z.shape
    lam = hp["l2"]
    w = np.zeros(d)
    b = 0.0

    def loss(wv, bv):
        z = Z @ wv + bv
        margins = np.where(y == 1, z, -z)
        raw = np.where(margins > 0, np.log1p(np.exp(-margins)), -margins + np.log1p(np.exp(margins)))
        return float(raw.mean() + lam * (wv @ wv))

    def grad(wv, bv):
        p = 1.0 / (1.0 + np.exp(-(Z @ wv + bv)))
        err = p - y
        return Z.T @ err / n + 2.0 * lam * wv, float(err.mean())

    step = float(hp["step"])
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


def test_interpolate_endpoints():
    a = np.array([1.0, 2.0])
    b = np.array([5.0, 0.0])
    assert np.array_equal(interpolate(a, b, 0.0), a)
    assert np.allclose(interpolate(a, b, 0.5), [3.0, 1.0])
    with pytest.raises(LearnError):
        interpolate(a, b, 1.0)
    with pytest.raises(LearnError):
        interpolate(a, b, -0.1)


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
    assert a.equals(b)
    c = smote_balance(ds, seed=8)
    assert not a.equals(c)


def test_smote_caps_neighbors():
    # Two minority rows: only one neighbor exists, k_neighbors=5 must cap.
    ds = make_ds([[0.0], [5.0], [1.0], [2.0], [3.0], [4.0]], [1, 1, 0, 0, 0, 0])
    out = smote_balance(ds, k_neighbors=5, seed=0)
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
@settings(max_examples=300, deadline=None)
def test_neighbor_table_matches_reference(problem):
    M, k = problem
    assert np.array_equal(learn._neighbor_table(M, k), _reference_neighbor_table(M, k))


@pytest.mark.parametrize("m", [7, 50, 386])
def test_neighbor_table_matches_reference_on_counts(m):
    # Poisson opcode-like counts; m = 386 spans several ranking blocks.
    rng = np.random.default_rng(m)
    M = rng.poisson(rng.gamma(1.0, 5.0, 64), size=(m, 64)).astype(np.float64)
    M[m // 2] = M[0]
    assert np.array_equal(learn._neighbor_table(M, 5), _reference_neighbor_table(M, 5))


# --- spec validation ------------------------------------------------------------


def test_spec_rejects_unknown_kind_and_keys():
    with pytest.raises(LearnError, match="kind"):
        ClassifierSpec(kind="svm")
    with pytest.raises(LearnError, match="unknown hyperparameters"):
        ClassifierSpec(kind="linear_svm", hyperparameters={"kernel": "rbf"})
    spec = ClassifierSpec(kind="linear_svm", hyperparameters={"max_iter": 5})
    assert spec.resolved()["max_iter"] == 5
    assert spec.resolved()["l2"] == 1e-4
    for key in ("epochs", "grad_tol", "step"):
        with pytest.raises(LearnError, match="unknown hyperparameters"):
            ClassifierSpec(kind="linear_svm", hyperparameters={key: 5})


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
    """Normal or few-level features, and settings that reach max_iter,
    stop on grad_tol, backtrack from an oversized first step, or (with
    grad_tol 0) stall where a step leaves the loss exactly unchanged."""
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
        "step": draw(st.sampled_from([1.0, 50.0])),
    }
    return X, y, hp


_DEFAULT_BLOBS = noisy_blob_dataset(3)


@given(problem=logistic_problems())
@example(
    problem=(
        _DEFAULT_BLOBS.features,
        _DEFAULT_BLOBS.labels,
        ClassifierSpec(kind="logistic_regression").resolved(),
    )
)
@settings(max_examples=200, deadline=None)
def test_logistic_identical_to_reference_loop(problem):
    X, y, hp = problem
    got = learn._fit_logistic(X, y, hp)
    want = _reference_fit_logistic(X, y, hp)
    for key in ("weights", "bias", "loss_curve"):
        assert np.array_equal(got[key], want[key]), key


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
    assert predict(model, np.array([0.9])) == 1
    assert predict(model, np.array([-0.9])) == 0
    p = model.params
    for x in np.linspace(-2, 2, 41):
        post = nb_posterior_oracle(
            [x], p["priors"], p["means"].tolist(), p["variances"].tolist()
        )
        expected = 1 if post[1] > post[0] else 0
        assert predict(model, np.array([x])) == expected


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
    ds = make_ds([[0.0], [1.0], [2.0]], [1, 1, 1])
    for kind in KINDS:
        model = fit(ClassifierSpec(kind=kind, seed=0), ds)
        assert model.constant == 1
        assert predict(model, np.array([123.0])) == 1


def test_dt_pure_leaf_recalls_training_point():
    ds = make_ds([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0], [4.0, 4.5]], [0, 1, 0, 1])
    model = fit(ClassifierSpec(kind="decision_tree", seed=0), ds)
    for row, label in zip(ds.features, ds.labels):
        assert predict(model, row) == label


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
    assert predict(model, np.array([0.0])) == 0


@st.composite
def split_problems(draw):
    """Small integer matrices with 1-3 levels per column, so tied values
    and constant columns are common, plus a sorted feature subset."""
    n = draw(st.integers(min_value=2, max_value=24))
    d = draw(st.integers(min_value=1, max_value=6))
    columns = []
    for _ in range(d):
        levels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
        columns.append(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    feature_ids = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    return (
        np.array(columns, dtype=np.float64).T,
        np.array(y, dtype=np.int64),
        np.array(feature_ids, dtype=np.int64),
    )


@given(problem=split_problems())
@settings(max_examples=300, deadline=None)
def test_best_split_matches_reference(problem):
    X, y, feature_ids = problem
    assert learn._best_split(X, y, feature_ids) == _reference_best_split(X, y, feature_ids)


def test_best_split_none_when_every_column_constant():
    X = np.array([[2.0, 0.0, 7.0]] * 5)
    y = np.array([0, 1, 1, 0, 1])
    feature_ids = np.arange(3)
    assert _reference_best_split(X, y, feature_ids) is None
    assert learn._best_split(X, y, feature_ids) is None


def test_trees_identical_to_reference_split(monkeypatch):
    # Sparse counts: many columns are constant within a node, so some
    # forest nodes take the mtry fallback to all features (19 here).
    rng = np.random.default_rng(12)
    rates = rng.gamma(0.1, 1.0, size=(2, 36))
    y = rng.integers(0, 2, 60)
    ds = make_ds(rng.poisson(rates[y]), y)
    for kind, hp in (("decision_tree", {}), ("random_forest", {"n_trees": 10})):
        spec = ClassifierSpec(kind=kind, hyperparameters=hp, seed=5)
        shipped = fit(spec, ds)
        with monkeypatch.context() as patched:
            patched.setattr(learn, "_best_split", _reference_best_split)
            reference = fit(spec, ds)
        assert shipped.params == reference.params


@pytest.mark.parametrize("n_trees", [0, -3])
def test_rf_rejects_n_trees_below_one(n_trees):
    ds = make_ds([[0.0], [1.0], [2.0], [3.0]], [1, 1, 1, 0])
    spec = ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": n_trees})
    with pytest.raises(LearnError, match="n_trees must be at least 1"):
        fit(spec, ds)


def test_nb_zero_variance_feature_floored():
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])  # col 0 constant
    ds = make_ds(X, [0, 0, 1, 1])
    model = fit(ClassifierSpec(kind="gaussian_nb", seed=0), ds)
    assert np.all(model.params["variances"] > 0)
    assert predict(model, np.array([1.0, 2.5])) in (0, 1)


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
    tiny = make_ds([[0.0]], [0])
    with pytest.raises(LearnError, match="at least 2"):
        fit(ClassifierSpec(kind="decision_tree"), tiny)


def test_predict_dimension_mismatch():
    ds = two_blob_ds(1, per=5)
    model = fit(ClassifierSpec(kind="decision_tree"), ds)
    with pytest.raises(LearnError, match="features"):
        predict(model, np.array([1.0, 2.0, 3.0]))


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
    if kind == "linear_svm":
        hp = {"max_iter": 10}
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


# --- serialization ----------------------------------------------------------------


def test_save_load_round_trip_predictions(tmp_path):
    ds = two_blob_ds(8, per=12)
    probe = np.random.default_rng(1).uniform(-2, 10, (40, 2))
    for kind in KINDS:
        hp = {"n_trees": 12} if kind == "random_forest" else {}
        model = fit(ClassifierSpec(kind=kind, hyperparameters=hp, seed=4), ds)
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == kind
        assert np.array_equal(predict_batch(loaded, probe), predict_batch(model, probe))


def test_save_load_constant_model(tmp_path):
    ds = make_ds([[0.0], [1.0]], [1, 1])
    model = fit(ClassifierSpec(kind="logistic_regression"), ds)
    path = tmp_path / "const.json"
    save_model(model, path)
    assert load_model(path).constant == 1


def test_load_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(LearnError, match="not a model file"):
        load_model(bad)
    bad.write_text('{"format": "other"}')
    with pytest.raises(LearnError, match="not a droidlens-model"):
        load_model(bad)
    bad.write_text('{"format": "droidlens-model", "version": 99, "kind": "decision_tree"}')
    with pytest.raises(LearnError, match="version"):
        load_model(bad)
    bad.write_text('{"format": "droidlens-model", "version": 1, "kind": "nope"}')
    with pytest.raises(LearnError, match="kind"):
        load_model(bad)
