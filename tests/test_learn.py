"""SMOTE and the five classifiers.

Oracles: a segment-membership residual check for SMOTE synthetics, a
hand-written Gaussian posterior for naive Bayes, an exhaustive split
check for the XOR tree, and two earlier implementations that the
current ones must match exactly: a one-feature-at-a-time CART split
search and SMOTE's m×m×d neighbour table.  The linear models are held
to their optimum instead: the gradient at the returned point, the
halving-step descent they ran before, and the optimum found by Newton's
method in 50-digit decimal arithmetic.
"""

import decimal
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
    with pytest.raises(LearnError, match="unknown hyperparameters"):
        ClassifierSpec(kind="logistic_regression", hyperparameters={"step": 1.0})
    assert ClassifierSpec(kind="logistic_regression").resolved() == {
        "l2": 1e-4, "max_iter": 1000, "grad_tol": 1e-6,
    }


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
_SVM_GRAD_TOL = 1e-6  # fixed inside _fit_linear_svm


def _fit_linear_direct(kind, X, y, hp):
    """Call the model's fitter itself, so single-class labels reach the
    solver too; returns (params, the settings it ran with)."""
    if kind == "logistic_regression":
        return learn._fit_logistic(X, y, hp), hp
    params = learn._fit_linear_svm(X, y, {"l2": hp["l2"], "max_iter": hp["max_iter"]})
    return params, {**hp, "grad_tol": _SVM_GRAD_TOL}


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
    ClassifierSpec(kind="logistic_regression").resolved(),
)


@given(problem=logistic_problems(), kind=st.sampled_from(LINEAR_KINDS))
@example(problem=_DEFAULT_PROBLEM, kind="logistic_regression")
@example(problem=_DEFAULT_PROBLEM, kind="linear_svm")
@settings(max_examples=300, deadline=None)
def test_linear_fit_reaches_optimum(problem, kind):
    X, y, hp = problem
    got, hp = _fit_linear_direct(kind, X, y, hp)
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
def test_linear_fit_agrees_with_high_precision_optimum(kind, seed, d, l2):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (24, d))
    y = (X.sum(axis=1) + rng.normal(0.0, 1.0, 24) > 0).astype(np.int64)  # overlapping
    # grad_tol 0: logistic regression runs until no step lowers the
    # objective.  Near the optimum the objective moves by the square of
    # the distance, so comparing objectives pins the point to about
    # sqrt(eps); the SVM's generalised Newton ends on an exact solve.
    hp = {"l2": l2, "grad_tol": 0.0} if kind == "logistic_regression" else {"l2": l2}
    p = fit(ClassifierSpec(kind=kind, hyperparameters=hp), make_ds(X, y)).params
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
    spec = ClassifierSpec(kind=kind, hyperparameters=hp)
    model = fit(spec, ds)
    resolved = {"grad_tol": _SVM_GRAD_TOL, **spec.resolved()}
    _check_linear_fit(kind, ds.features, ds.labels, resolved, model.params)
    assert len(model.params["loss_curve"]) - 1 < resolved["max_iter"]
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
    # Hessian converges linearly at best and needs far more.
    spec = ClassifierSpec(kind=kind)
    hp = {"grad_tol": _SVM_GRAD_TOL, **spec.resolved()}
    cases = [(noisy_blob_dataset(seed), blobs_most) for seed in range(3)]
    cases.append((_poisson_counts(7, 300, 64), counts_most))  # two Gram row blocks
    for ds, most in cases:
        p = fit(spec, ds).params
        assert _check_linear_fit(kind, ds.features, ds.labels, hp, p) < hp["grad_tol"]
        assert len(p["loss_curve"]) - 1 <= most


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
    hp = ClassifierSpec(kind=kind, hyperparameters={"l2": 0.0}).resolved()
    params, hp = _fit_linear_direct(kind, X, y, hp)
    gnorm = _check_linear_fit(kind, X, y, hp, params)
    assert len(params["loss_curve"]) - 1 < hp["max_iter"]
    assert gnorm < hp["grad_tol"]


@pytest.mark.parametrize("kind", LINEAR_KINDS)
def test_linear_fit_bias_only_when_every_feature_constant(kind):
    X = np.full((7, 3), 4.0)
    y = np.array([1, 1, 1, 0, 0, 0, 0])
    model = fit(ClassifierSpec(kind=kind), make_ds(X, y))
    p = model.params
    _check_linear_fit(kind, X, y, ClassifierSpec(kind=kind).resolved(), p)
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
    hp = ClassifierSpec(kind=kind, hyperparameters={"max_iter": 0}).resolved()
    p = fit(ClassifierSpec(kind=kind, hyperparameters={"max_iter": 0}), ds).params
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
