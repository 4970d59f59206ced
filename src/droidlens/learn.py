"""SMOTE balancing and five classifiers behind one fit/predict surface.

All learners are binary (0 benign, 1 malware) and deterministic given
(spec, dataset): every random draw comes from streams derived from the
spec seed.  Ties in votes, leaf majorities, and decision scores break
toward label 0; there is no security meaning to that, it is just a
fixed rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .clustering import exact_distances
from .dataset import Dataset
from .errors import LearnError
from .rng import derive_rng

KINDS = (
    "logistic_regression",
    "gaussian_nb",
    "linear_svm",
    "decision_tree",
    "random_forest",
)

_DEFAULTS: dict[str, dict] = {
    "logistic_regression": {"l2": 1e-4, "max_iter": 1000, "grad_tol": 1e-6},
    "gaussian_nb": {"var_floor_ratio": 1e-9},
    "linear_svm": {"l2": 1e-4, "max_iter": 1000},
    "decision_tree": {"max_depth": None, "min_samples_split": 2},
    "random_forest": {
        "n_trees": 100,
        "mtry": None,  # None: floor(sqrt(d))
        "max_depth": None,
        "min_samples_split": 2,
    },
}


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    hyperparameters: Mapping = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise LearnError(f"unknown classifier kind {self.kind!r}; pick one of {KINDS}")
        unknown = set(self.hyperparameters) - set(_DEFAULTS[self.kind])
        if unknown:
            raise LearnError(
                f"unknown hyperparameters for {self.kind}: {sorted(unknown)}; "
                f"valid keys: {sorted(_DEFAULTS[self.kind])}"
            )
        object.__setattr__(self, "hyperparameters", dict(self.hyperparameters))

    def resolved(self) -> dict:
        merged = dict(_DEFAULTS[self.kind])
        merged.update(self.hyperparameters)
        return merged


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted parameters for one kind; ``constant`` short-circuits
    predict when training saw a single class."""

    kind: str
    params: dict
    constant: int | None = None


def _training_arrays(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    if ds.n == 0:
        raise LearnError("cannot fit on an empty dataset")
    if ds.n < 2:
        raise LearnError(f"need at least 2 rows to fit, got {ds.n}")
    X = np.asarray(ds.features, dtype=np.float64)
    if not np.isfinite(X).all():
        raise LearnError("features contain NaN or infinity")
    return X, np.asarray(ds.labels, dtype=np.int64)


# --- SMOTE -------------------------------------------------------------------


def interpolate(base: np.ndarray, neighbor: np.ndarray, u: float) -> np.ndarray:
    """Point at fraction u of the way from base toward neighbor."""
    if not 0.0 <= u < 1.0:
        raise LearnError(f"interpolation fraction must be in [0, 1), got {u}")
    return base + u * (neighbor - base)


def _neighbor_table(M: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows, nearest first.  Rows are ranked
    in blocks of about 2^16 distances, so memory stays near m² floats."""
    dist = exact_distances(M)
    np.fill_diagonal(dist, np.inf)
    block = max(1, (1 << 16) // len(M))
    table = np.empty((len(M), k), dtype=np.intp)
    for r0 in range(0, len(M), block):
        table[r0 : r0 + block] = np.argsort(dist[r0 : r0 + block], axis=1)[:, :k]
    return table


def smote_balance(ds: Dataset, k_neighbors: int = 5, seed: int = 0) -> Dataset:
    """Oversample the minority class up to the majority count.

    Each synthetic is interpolate(x_i, x_nn, u) with u uniform in
    [0, 1) and x_nn one of x_i's k nearest minority neighbors; base
    row, neighbor, and u all come from one seeded stream.  Original
    rows are kept as-is, synthetics are appended with generated ids.
    """
    if k_neighbors < 1:
        raise LearnError(f"k_neighbors must be positive, got {k_neighbors}")
    y = np.asarray(ds.labels)
    n1 = int((y == 1).sum())
    n0 = int(y.size - n1)
    if n0 == n1:
        return ds
    minority_label = 1 if n1 < n0 else 0
    minority_idx = np.flatnonzero(y == minority_label)
    minority_count = minority_idx.size
    if minority_count < 2:
        raise LearnError(
            f"SMOTE needs at least 2 minority rows, class {minority_label} has {minority_count}"
        )
    k = min(k_neighbors, minority_count - 1)

    M = ds.features[minority_idx]
    neighbor_table = _neighbor_table(M, k)

    need = abs(n0 - n1)
    rng = derive_rng(seed, "smote")
    synth = np.empty((need, ds.dim))
    for s in range(need):
        i = int(rng.integers(minority_count))
        nn = int(neighbor_table[i, int(rng.integers(k))])
        u = float(rng.random())
        synth[s] = interpolate(M[i], M[nn], u)

    ids = ds.ids + tuple(f"smote-{minority_label}-{s:06d}" for s in range(need))
    features = np.vstack([ds.features, synth])
    labels = np.concatenate([y, np.full(need, minority_label, dtype=np.int64)])
    return Dataset(ids=ids, features=features, labels=labels)


# --- linear models: logistic regression and linear SVM ---------------------------


def _standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    kept = np.flatnonzero(std > 0.0)
    return mean, std, kept


def _standardize_apply(X: np.ndarray, mean, std, kept) -> np.ndarray:
    return (X[:, kept] - mean[kept]) / std[kept]


_ARMIJO = 0.01  # accept a step that gains this share of the predicted decrease
_FLAT = 1e-8  # curvature below this share of H's largest counts as none


def _newton_direction(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H·p = −grad for a positive semi-definite H.  When Cholesky
    finds H singular or nearly so (l2 = 0 with collinear columns, or no
    active SVM rows), take the least-norm solution over the eigenvectors
    whose curvature is not flat instead of a step of rounding noise."""
    try:
        smallest_pivot = np.linalg.cholesky(H).diagonal().min()
        if smallest_pivot**2 > _FLAT * H.diagonal().max():
            return np.linalg.solve(H, -grad)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(H)
    keep = vals > _FLAT * max(vals[-1], 0.0)
    return -(vecs[:, keep] @ ((vecs[:, keep].T @ grad) / vals[keep]))


def _fit_linear(X: np.ndarray, hp: dict, row_terms) -> dict:
    """Minimise mean(loss(z)) + l2·‖w‖², z = Zw + b over standardized X,
    by Newton's method with Armijo backtracking.

    ``row_terms(z)`` gives each row's loss and its first and second
    derivatives in z.  The Hessian is Zᵀ·diag(h)·Z/n + 2·l2·I with the
    bias as a bordered last row and column, so no [Z | 1] copy is made.
    Each iteration tries the steps 1, 1/2, 1/4, ... along the Newton
    direction and takes the first that gains ``_ARMIJO`` of the decrease
    the gradient predicts.  It stops when the gradient norm falls below
    ``grad_tol``, after ``max_iter`` iterations, or when no step above
    1e-12 lowers the objective.  The accepted candidate's derivatives
    are kept for the next iteration, so each trial computes Zw once.
    """
    mean, std, kept = _standardize_fit(X)
    Z = _standardize_apply(X, mean, std, kept)
    n, d = Z.shape
    lam = hp["l2"]

    def objective(wv, bv):
        loss, slope, curv = row_terms(Z @ wv + bv)
        return float(loss.sum()) / n + lam * float(wv @ wv), slope, curv

    w = np.zeros(d)
    b = 0.0
    current, g, h = objective(w, b)
    curve = [current]
    grad = np.empty(d + 1)
    H = np.empty((d + 1, d + 1))
    block = max(1, (1 << 14) // max(d, 1))  # rows per Gram update: 128 kB
    for _ in range(int(hp["max_iter"])):
        grad[:d] = Z.T @ g / n + 2.0 * lam * w
        grad[d] = float(g.sum()) / n
        if math.sqrt(float(grad @ grad)) < hp["grad_tol"]:
            break
        H[:d, :d] = 0.0
        np.fill_diagonal(H[:d, :d], 2.0 * lam)
        root_h = np.sqrt(h / n)
        for r0 in range(0, n, block):
            S = Z[r0 : r0 + block] * root_h[r0 : r0 + block, None]
            H[:d, :d] += S.T @ S  # a symmetric rank-k product
        H[:d, d] = H[d, :d] = Z.T @ h / n
        H[d, d] = float(h.sum()) / n
        p = _newton_direction(H, grad)
        predicted = float(grad @ p)
        t = 1.0
        while t > 1e-12:
            cand_w = w + t * p[:d]
            cand_b = b + t * float(p[d])
            cand, cand_g, cand_h = objective(cand_w, cand_b)
            # strictly lower too: where the predicted gain rounds away,
            # an unchanged objective is no progress
            if cand < current and cand <= current + _ARMIJO * t * predicted:
                break
            t *= 0.5
        else:
            break  # no step above 1e-12 descends
        w, b, g, h, current = cand_w, cand_b, cand_g, cand_h, cand
        curve.append(current)
    return {
        "weights": w,
        "bias": b,
        "mean": mean,
        "std": std,
        "kept": kept,
        "loss_curve": np.array(curve),
    }


def _fit_logistic(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    """L2-regularised log-loss, log(1 + exp(-s·z)) per row, with slope
    −s·σ(−s·z) and curvature σ(z)·(1 − σ(z)) (Lin, Weng & Keerthi 2008)."""
    sign = np.where(y == 1, 1.0, -1.0)

    def row_terms(z):
        m = sign * z
        # Every term from e = exp(-|m|) <= 1: nothing overflows, and the
        # slope keeps its relative precision where σ(z) - y would cancel.
        e = np.exp(-np.abs(m))
        loss = np.log1p(e) + np.maximum(-m, 0.0)
        slope = -sign * np.where(m >= 0.0, e, 1.0) / (1.0 + e)
        return loss, slope, e / ((1.0 + e) * (1.0 + e))

    return _fit_linear(X, hp, row_terms)


def _fit_linear_svm(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    """L2-loss SVM: L2-regularised squared hinge, max(0, 1 - s·z)² per
    row, as in LIBLINEAR's default primal.  Its slope is continuous but
    its curvature jumps, so the Hessian is the generalised one of
    Keerthi & DeCoste 2005: curvature 2 on the rows with 1 − s·z > 0
    and 0 elsewhere.  The stopping tolerance is fixed, not a setting."""
    sign = np.where(y == 1, 1.0, -1.0)
    slope_scale = -2.0 * sign

    def row_terms(z):
        hinge = np.maximum(1.0 - sign * z, 0.0)
        return hinge * hinge, slope_scale * hinge, 2.0 * (hinge > 0.0)

    return _fit_linear(X, {**hp, "grad_tol": 1e-6}, row_terms)


def _predict_linear(params: dict, X: np.ndarray) -> np.ndarray:
    Z = _standardize_apply(X, params["mean"], params["std"], params["kept"])
    z = Z @ params["weights"] + params["bias"]
    return (z > 0).astype(np.int64)


# --- Gaussian naive Bayes -------------------------------------------------------


def _fit_gaussian_nb(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    overall_var = X.var(axis=0)
    top = float(overall_var.max())
    floor = hp["var_floor_ratio"] * top if top > 0 else 1e-12
    means = np.empty((2, X.shape[1]))
    variances = np.empty((2, X.shape[1]))
    priors = np.empty(2)
    for c in (0, 1):
        rows = X[y == c]
        priors[c] = rows.shape[0] / X.shape[0]
        means[c] = rows.mean(axis=0)
        variances[c] = np.maximum(rows.var(axis=0), floor)
    return {"priors": priors, "means": means, "variances": variances}


def _nb_log_posterior(params: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty((X.shape[0], 2))
    for c in (0, 1):
        var = params["variances"][c]
        gap = X - params["means"][c]
        out[:, c] = (
            math.log(params["priors"][c])
            - 0.5 * (np.log(2.0 * math.pi * var).sum() + ((gap * gap) / var).sum(axis=1))
        )
    return out


def _predict_gaussian_nb(params: dict, X: np.ndarray) -> np.ndarray:
    post = _nb_log_posterior(params, X)
    return (post[:, 1] > post[:, 0]).astype(np.int64)  # tie goes to benign


# --- CART decision tree ------------------------------------------------------------


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _leaf(y: np.ndarray) -> dict:
    ones = int((y == 1).sum())
    zeros = y.size - ones
    return {"leaf": 1 if ones > zeros else 0}  # tie goes to 0


def _best_split(X: np.ndarray, y: np.ndarray, feature_ids: np.ndarray):
    """(decrease, feature, threshold) of the best candidate, or None.

    Every threshold is searched exactly: the midpoint between each pair
    of adjacent distinct values, with no binning.  All candidate
    features are sorted and scored at once, one row per feature, and
    only boundaries between distinct values are scored.  The boundaries
    are listed feature by feature (``feature_ids`` ascending), then by
    position, so a first-occurrence argmax breaks ties to the lowest
    feature index, then the lowest threshold.  None when every
    candidate column is constant.
    """
    n = y.size
    total1 = int((y == 1).sum())
    parent = _gini(np.array([n - total1, total1]))
    sub = X.T[feature_ids]
    order = np.argsort(sub, axis=1, kind="stable")
    sv = np.take_along_axis(sub, order, axis=1)
    rows, boundaries = np.nonzero(sv[:, :-1] < sv[:, 1:])
    if boundaries.size == 0:
        return None
    cum1 = np.cumsum(y[order], axis=1)
    nl = boundaries + 1.0
    nr = n - nl
    l1 = cum1[rows, boundaries].astype(np.float64)
    l0 = nl - l1
    r1 = total1 - l1
    r0 = nr - r1
    gini_l = 1.0 - ((l0 / nl) ** 2 + (l1 / nl) ** 2)
    gini_r = 1.0 - ((r0 / nr) ** 2 + (r1 / nr) ** 2)
    decrease = parent - (nl / n) * gini_l - (nr / n) * gini_r
    best = int(np.argmax(decrease))
    row, pos = rows[best], boundaries[best]
    threshold = (sv[row, pos] + sv[row, pos + 1]) / 2.0
    return float(decrease[best]), int(feature_ids[row]), float(threshold)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    max_depth,
    min_samples_split: int,
    mtry,
    rng,
) -> dict:
    ones = int((y == 1).sum())
    if ones == 0 or ones == y.size:
        return {"leaf": int(y[0])}
    if y.size < min_samples_split or (max_depth is not None and depth >= max_depth):
        return _leaf(y)
    d = X.shape[1]
    if mtry is None or mtry >= d:
        feature_ids = np.arange(d)
    else:
        feature_ids = np.sort(rng.choice(d, size=mtry, replace=False))
    best = _best_split(X, y, feature_ids)
    if best is None and mtry is not None and mtry < d:
        # The sampled features were constant here; fall back to all so a
        # separable node is never forced into an impure leaf.
        best = _best_split(X, y, np.arange(d))
    if best is None:
        return _leaf(y)
    _, feature, threshold = best
    mask = X[:, feature] <= threshold
    node = {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(X[mask], y[mask], depth + 1, max_depth, min_samples_split, mtry, rng),
        "right": _grow_tree(X[~mask], y[~mask], depth + 1, max_depth, min_samples_split, mtry, rng),
    }
    return node


def _tree_predict_one(tree: dict, x: np.ndarray) -> int:
    node = tree
    while "leaf" not in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node["leaf"]


def _tree_predict(tree: dict, X: np.ndarray) -> np.ndarray:
    return np.array([_tree_predict_one(tree, row) for row in X], dtype=np.int64)


def _fit_decision_tree(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    tree = _grow_tree(X, y, 0, hp["max_depth"], hp["min_samples_split"], None, None)
    return {"tree": tree}


# --- random forest ------------------------------------------------------------------


def _fit_random_forest(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> dict:
    n, d = X.shape
    mtry = hp["mtry"]
    if mtry is None:
        mtry = max(1, int(math.isqrt(d)))
    if not 1 <= mtry <= d:
        raise LearnError(f"mtry must be in [1, {d}], got {mtry}")
    n_trees = int(hp["n_trees"])
    if n_trees < 1:
        raise LearnError(f"n_trees must be at least 1, got {n_trees}")
    trees = []
    for t in range(n_trees):
        rng = derive_rng(seed, "tree", t)
        rows = rng.integers(0, n, size=n)
        trees.append(
            _grow_tree(X[rows], y[rows], 0, hp["max_depth"], hp["min_samples_split"], mtry, rng)
        )
    return {"trees": trees, "mtry": mtry}


def _predict_random_forest(params: dict, X: np.ndarray) -> np.ndarray:
    votes = np.zeros(X.shape[0], dtype=np.int64)
    for tree in params["trees"]:
        votes += _tree_predict(tree, X)
    return (votes * 2 > len(params["trees"])).astype(np.int64)  # tie goes to 0


# --- uniform surface -----------------------------------------------------------------


def fit(spec: ClassifierSpec, ds: Dataset) -> ClassifierModel:
    X, y = _training_arrays(ds)
    classes = set(np.unique(y).tolist())
    if len(classes) == 1:
        only = int(next(iter(classes)))
        return ClassifierModel(kind=spec.kind, params={"dim": ds.dim}, constant=only)
    hp = spec.resolved()
    if spec.kind == "logistic_regression":
        params = _fit_logistic(X, y, hp)
    elif spec.kind == "gaussian_nb":
        params = _fit_gaussian_nb(X, y, hp)
    elif spec.kind == "linear_svm":
        params = _fit_linear_svm(X, y, hp)
    elif spec.kind == "decision_tree":
        params = _fit_decision_tree(X, y, hp)
    else:
        params = _fit_random_forest(X, y, hp, spec.seed)
    params["dim"] = ds.dim
    return ClassifierModel(kind=spec.kind, params=params)


def predict_batch(model: ClassifierModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise LearnError(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[1] != model.params["dim"]:
        raise LearnError(
            f"matrix has {X.shape[1]} features, model was fit on {model.params['dim']}"
        )
    if model.constant is not None:
        return np.full(X.shape[0], model.constant, dtype=np.int64)
    if model.kind in ("logistic_regression", "linear_svm"):
        return _predict_linear(model.params, X)
    if model.kind == "gaussian_nb":
        return _predict_gaussian_nb(model.params, X)
    if model.kind == "decision_tree":
        return _tree_predict(model.params["tree"], X)
    return _predict_random_forest(model.params, X)


def predict(model: ClassifierModel, x) -> int:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise LearnError(f"expected a 1-D point, got shape {x.shape}")
    return int(predict_batch(model, x[None, :])[0])


# --- serialization --------------------------------------------------------------------

_FORMAT = "droidlens-model"
_FORMAT_VERSION = 1


def _encode(value):
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value["dtype"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def save_model(model: ClassifierModel, path) -> None:
    doc = {
        "format": _FORMAT,
        "version": _FORMAT_VERSION,
        "kind": model.kind,
        "constant": model.constant,
        "params": _encode(model.params),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> ClassifierModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LearnError(f"{path}: not a model file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise LearnError(f"{path}: not a {_FORMAT} file")
    if doc.get("version") != _FORMAT_VERSION:
        raise LearnError(f"{path}: unsupported model version {doc.get('version')!r}")
    if doc.get("kind") not in KINDS:
        raise LearnError(f"{path}: unknown model kind {doc.get('kind')!r}")
    constant = doc.get("constant")
    return ClassifierModel(
        kind=doc["kind"],
        params=_decode(doc.get("params", {})),
        constant=None if constant is None else int(constant),
    )
