"""SMOTE balancing and five classifiers behind one fit/predict surface.

All learners are binary (0 benign, 1 malware) and deterministic given
(spec, dataset): every random draw comes from streams derived from the
spec seed.  Ties in votes, leaf majorities, and decision scores break
toward label 0; there is no security meaning to that, it is just a
fixed rule.

The decision tree and the forest share one CART grower.  A fit ranks
each feature column once; a node's split search sorts its rows'
integer ranks, never float values.  All trees grow depth-first in
lockstep: each step pops every tree's next splittable node and scores
them in one vectorised search, in blocks of ``_SPLIT_BUDGET``
elements.  A forest draws from one stream: its bootstrap samples in
one call, then one block of keys per lockstep step, a row for each
node the step pops in tree order; a node's ``mtry`` features are its
row's smallest keys.  A tree's k-th splittable node in pre-order is
always popped at step k, so the trees depend on (X, y, seed,
hyperparameters) alone, never on the search blocks.  Trees stay
nested dicts; prediction sends all rows down them together.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .clustering import _log_gaussian, exact_distances
from .dataset import Dataset
from .errors import LearnError
from .rng import derive_rng

_DEFAULTS: dict[str, dict] = {
    "logistic_regression": {"l2": 1e-4},
    "gaussian_nb": {"var_floor_ratio": 1e-9},
    "linear_svm": {"l2": 1e-4},
    "decision_tree": {"max_depth": None, "min_samples_split": 2},
    "random_forest": {
        "n_trees": 100,
        "mtry": None,  # None: floor(sqrt(d))
        "max_depth": None,
        "min_samples_split": 2,
    },
}

KINDS = tuple(_DEFAULTS)

_NON_NEGATIVE = ("l2", "max_depth", "min_samples_split")


def _check_hyperparameter(kind: str, key: str, value) -> None:
    """A key whose default is an int or None takes an integer (or None
    where the default is); any other key takes a real number.  Bools
    and strings are neither.  n_trees and mtry must be at least 1;
    mtry's upper bound is the feature count, so fit checks it."""
    default = _DEFAULTS[kind][key]
    if value is None and default is None:
        return
    integral = default is None or isinstance(default, int)
    if isinstance(value, bool) or not isinstance(
        value, numbers.Integral if integral else numbers.Real
    ):
        wanted = "an integer" if integral else "a number"
        if default is None:
            wanted += " or null"
        raise LearnError(f"{kind} {key} must be {wanted}, got {value!r}")
    if key in _NON_NEGATIVE and not value >= 0:
        raise LearnError(f"{kind} {key} must be >= 0, got {value!r}")
    if key in ("n_trees", "mtry") and not value >= 1:
        raise LearnError(f"{kind} {key} must be >= 1, got {value!r}")
    if key == "var_floor_ratio" and not value > 0:
        raise LearnError(f"{kind} {key} must be > 0, got {value!r}")


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
        for key, value in self.hyperparameters.items():
            _check_hyperparameter(self.kind, key, value)
        # Every setting of the kind, the given ones over the defaults, in a
        # read-only copy: a spec cannot change after it was checked.
        merged = {**_DEFAULTS[self.kind], **self.hyperparameters}
        object.__setattr__(self, "hyperparameters", MappingProxyType(merged))


@dataclass(frozen=True)
class ClassifierModel:
    """Fitted parameters for one kind; ``constant`` short-circuits
    predict when training saw a single class."""

    kind: str
    params: dict
    constant: int | None = None


# --- SMOTE -------------------------------------------------------------------


def _neighbor_table(M: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows, nearest first, tied distances
    going to the lowest row index.  A row keeps every row nearer than
    its k-th smallest distance and the lowest-index rows at it, then
    stable-sorts those k: the first k of a stable sort of the whole row,
    whichever kernel numpy sorts with.  The diagonal is NaN, which
    partitions last and fails every ``<=``, so a row is never its own
    neighbour even when overflow makes every distance infinite.  Rows
    are ranked in blocks of about 2^16 distances, so memory stays near
    m² floats."""
    dist = exact_distances(M)
    np.fill_diagonal(dist, np.nan)
    block = max(1, (1 << 16) // len(M))
    table = np.empty((len(M), k), dtype=np.intp)
    for r0 in range(0, len(M), block):
        rows = dist[r0 : r0 + block]
        kth = np.partition(rows, k - 1, axis=1)[:, k - 1 : k]
        keep = rows <= kth
        excess = keep.sum(axis=1) - k
        tied = np.flatnonzero(excess)  # more than k rows at or below the k-th distance
        if tied.size:
            at = rows[tied] == kth[tied]
            room = at.sum(axis=1) - excess[tied]
            keep[tied] &= ~at | (np.cumsum(at, axis=1) <= room[:, None])
        cols = np.nonzero(keep)[1].reshape(-1, k)
        near = np.take_along_axis(rows, cols, axis=1)
        table[r0 : r0 + block] = np.take_along_axis(
            cols, np.argsort(near, axis=1, kind="stable"), axis=1
        )
    return table


_SMOTE_NEIGHBORS = 5


def smote_balance(ds: Dataset, seed: int = 0) -> Dataset:
    """Oversample the minority class up to the majority count.

    Each synthetic is x_i + u * (x_nn - x_i) with u uniform in [0, 1)
    and x_nn one of x_i's k nearest minority neighbors, k being
    ``_SMOTE_NEIGHBORS`` or the minority count less one if that is
    smaller; base row, neighbor, and u all come from one seeded stream.
    Original rows are kept as-is, synthetics are appended with
    generated ids.
    """
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
    k = min(_SMOTE_NEIGHBORS, minority_count - 1)

    M = ds.features[minority_idx]
    neighbor_table = _neighbor_table(M, k)

    need = abs(n0 - n1)
    rng = derive_rng(seed, "smote")
    synth = np.empty((need, ds.dim))
    for s in range(need):
        i = int(rng.integers(minority_count))
        nn = int(neighbor_table[i, int(rng.integers(k))])
        u = float(rng.random())
        synth[s] = M[i] + u * (M[nn] - M[i])

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
_MAX_ITER = 1000  # Newton iterations at most
_GRAD_TOL = 1e-6  # stop once the gradient norm falls below this
_FLAT = 1e-8  # curvature below this share of H's largest counts as none


def _newton_direction(Z: np.ndarray, h: np.ndarray, lam: float, grad: np.ndarray) -> np.ndarray:
    """Solve H·p = −grad for the Hessian H = [[A, c], [cᵀ, rᵀr]] of
    weights and bias, where r = √(h/n), S = r·Z, A = SᵀS + 2·l2·I and
    c = Sᵀr.

    The bias is eliminated through its Schur complement s = rᵀr − cᵀA⁻¹c,
    and A⁻¹ is applied through the smaller Gram matrix.  For n ≥ d one
    solve with A against [g_w, c] gives A⁻¹g_w, A⁻¹c and s.  For n < d,
    A⁻¹v = (v − Sᵀ·K⁻¹·S·v) / (2·l2) with K = SSᵀ + 2·l2·I_n (Woodbury),
    so one solve with K against [S·g_w, r] gives them, and
    s = 2·l2·rᵀK⁻¹r, free of the cancellation the difference would
    suffer there.  Every Cholesky pivot² of A is at least 2·l2 and H's
    last one is s, so the step is taken when both exceed ``_FLAT`` of
    H's largest diagonal entry.  Otherwise, and always when l2 = 0, H
    is built and the step is the least-norm solution over its
    eigenvectors whose curvature is not flat, instead of a step of
    rounding noise.
    """
    n, d = Z.shape
    r = np.sqrt(h / n)
    S = Z * r[:, None]
    ridge = 2.0 * lam
    rr = float(r @ r)
    gw, gb = grad[:d], float(grad[d])
    if n < d:
        flat = _FLAT * max(ridge + float(np.einsum("ij,ij->j", S, S).max()), rr)
        if ridge > flat:
            K = S @ S.T
            K.flat[:: n + 1] += ridge
            a, e = np.linalg.solve(K, np.column_stack([S @ gw, r])).T  # K⁻¹·S·g_w, K⁻¹·r
            schur = ridge * float(r @ e)
            if schur > flat:
                p_bias = (float(r @ a) - gb) / schur  # (cᵀA⁻¹g_w − g_b) / s
                # −A⁻¹g_w − p_bias·A⁻¹c
                return np.append((S.T @ (a - ridge * p_bias * e) - gw) / ridge, p_bias)
    A = S.T @ S  # a symmetric rank-k product
    A.flat[:: d + 1] += ridge
    c = S.T @ r
    # Freed before the solve copies A: with S still held, the allocator
    # hands pages back and faults them in again on every call.
    del S
    if n >= d:
        flat = _FLAT * max(float(A.diagonal().max(initial=ridge)), rr)
        if ridge > flat:
            a, e = np.linalg.solve(A, np.column_stack([gw, c])).T  # A⁻¹g_w, A⁻¹c
            schur = rr - float(c @ e)
            if schur > flat:
                p_bias = (float(c @ a) - gb) / schur
                return np.append(-a - p_bias * e, p_bias)
    H = np.empty((d + 1, d + 1))
    H[:d, :d], H[:d, d], H[d, :d], H[d, d] = A, c, c, rr
    vals, vecs = np.linalg.eigh(H)
    keep = vals > _FLAT * max(vals[-1], 0.0)
    return -(vecs[:, keep] @ ((vecs[:, keep].T @ grad) / vals[keep]))


def _fit_linear(X: np.ndarray, lam: float, row_terms) -> dict:
    """Minimise mean(loss(z)) + l2·‖w‖², z = Zw + b over standardized X,
    by Newton's method with Armijo backtracking.

    ``row_terms(z)`` gives each row's loss and its first and second
    derivatives in z, from which ``_newton_direction`` takes the step.
    Each iteration tries the steps 1, 1/2, 1/4, ... along the Newton
    direction and takes the first that gains ``_ARMIJO`` of the decrease
    the gradient predicts.  It stops when the gradient norm falls below
    ``_GRAD_TOL``, after ``_MAX_ITER`` iterations, or when no step above
    1e-12 lowers the objective.  The accepted candidate's derivatives
    are kept for the next iteration, so each trial computes Zw once.
    """
    mean, std, kept = _standardize_fit(X)
    Z = _standardize_apply(X, mean, std, kept)
    n, d = Z.shape

    def objective(wv, bv):
        loss, slope, curv = row_terms(Z @ wv + bv)
        return float(loss.sum()) / n + lam * float(wv @ wv), slope, curv

    w = np.zeros(d)
    b = 0.0
    current, g, h = objective(w, b)
    curve = [current]
    grad = np.empty(d + 1)
    for _ in range(_MAX_ITER):
        grad[:d] = Z.T @ g / n + 2.0 * lam * w
        grad[d] = float(g.sum()) / n
        if math.sqrt(float(grad @ grad)) < _GRAD_TOL:
            break
        p = _newton_direction(Z, h, lam, grad)
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

    return _fit_linear(X, hp["l2"], row_terms)


def _fit_linear_svm(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    """L2-loss SVM: L2-regularised squared hinge, max(0, 1 - s·z)² per
    row, as in LIBLINEAR's default primal.  Its slope is continuous but
    its curvature jumps, so the Hessian is the generalised one of
    Keerthi & DeCoste 2005: curvature 2 on the rows with 1 − s·z > 0
    and 0 elsewhere."""
    sign = np.where(y == 1, 1.0, -1.0)
    slope_scale = -2.0 * sign

    def row_terms(z):
        hinge = np.maximum(1.0 - sign * z, 0.0)
        return hinge * hinge, slope_scale * hinge, 2.0 * (hinge > 0.0)

    return _fit_linear(X, hp["l2"], row_terms)


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


def _predict_gaussian_nb(params: dict, X: np.ndarray) -> np.ndarray:
    post = _log_gaussian(X, params["means"], params["variances"])
    post += np.log(params["priors"])
    return (post[:, 1] > post[:, 0]).astype(np.int64)  # tie goes to benign


# --- CART trees: one lockstep grower for the decision tree and the forest ----------

_SPLIT_BUDGET = 1 << 13  # elements per sorted block of the split search


def _rank_keys(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank every column once, in blocks of about ``_SPLIT_BUDGET`` elements.

    ``keys[f, i]`` is 2·rank + y[i], rank being row i's dense rank in
    column f, and ``keys[f, n]`` = 2n is a pad above every real key.
    ``values[f, r]`` is column f's r-th smallest distinct value.
    """
    n, d = X.shape
    keys = np.empty((d, n + 1), dtype=np.int32 if 2 * n <= np.iinfo(np.int32).max else np.int64)
    keys[:, n] = 2 * n
    values = np.empty((d, n))
    block = max(1, _SPLIT_BUDGET // n)
    for c0 in range(0, d, block):
        cols = X.T[c0 : c0 + block]
        order = np.argsort(cols, axis=1)
        sv = np.take_along_axis(cols, order, axis=1)
        rank = np.zeros(sv.shape, dtype=np.int64)
        np.cumsum(sv[:, 1:] > sv[:, :-1], axis=1, out=rank[:, 1:])
        np.put_along_axis(keys[c0 : c0 + block, :n], order, 2 * rank + y[order], axis=1)
        np.put_along_axis(values[c0 : c0 + block], rank, sv, axis=1)
    return keys, values


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where an array starts a run of equal values."""
    opens = np.empty(a.size, dtype=bool)
    opens[:1] = True
    np.not_equal(a[1:], a[:-1], out=opens[1:])
    return opens


def _block_best(keys, rows, offsets, sizes, ones, parent, nodes, fs, width):
    """(node, decrease, feature, lower rank, upper rank) of each node's
    first best split among one block of segments, segment j being node
    ``nodes[j]``'s rows on feature ``fs[j]``.  Each segment is padded
    past ``width`` with pad keys, so the sorted block is scanned flat.
    A function of its own so that a block's temporaries are freed
    before the next block is built."""
    stride = keys.shape[1]
    span = width + 1
    at = np.arange(span)
    at = np.where(at < sizes[nodes][:, None], offsets[nodes][:, None] + at, rows.size - 1)
    block = keys.ravel().take(fs[:, None] * stride + rows.take(at))
    block.sort(axis=1)
    block = block.ravel()
    rank = block >> 1
    cut = np.flatnonzero((rank[:-1] < rank[1:]) & (rank[1:] < stride - 1))
    seg = cut // span
    ones_upto = np.zeros(block.size + 1, dtype=np.int64)
    np.cumsum(block & 1, out=ones_upto[1:])
    l1 = (ones_upto[cut + 1] - ones_upto[seg * span]).astype(np.float64)
    node = nodes[seg]
    m = sizes[node]
    nl = (cut - seg * span) + 1.0
    nr = m - nl
    l0 = nl - l1
    r1 = ones[node] - l1
    r0 = nr - r1
    gini_l = 1.0 - ((l0 / nl) ** 2 + (l1 / nl) ** 2)
    gini_r = 1.0 - ((r0 / nr) ** 2 + (r1 / nr) ** 2)
    decrease = parent[node] - (nl / m) * gini_l - (nr / m) * gini_r
    opens = _run_starts(node)
    top = np.maximum.reduceat(decrease, np.flatnonzero(opens))
    group = np.cumsum(opens) - 1
    hits = np.flatnonzero(decrease == top[group])
    first = hits[_run_starts(group[hits])]
    cut = cut[first]
    return node[first], top, fs[seg[first]], rank[cut], rank[cut + 1]


def _split_search(keys, values, rows, sizes, ones, feats):
    """(feature, threshold, found) of each node's best split.

    Node i holds ``sizes[i]`` of the concatenated ``rows``, ``ones[i]``
    of them labelled 1, and searches the ascending features
    ``feats[i]``.  Every threshold is searched exactly: the midpoint of
    each pair of adjacent distinct values.  A (node, feature) segment
    sorts its rows' keys, so boundaries and left label counts do not
    depend on the order within ties.  Segments run node-major, largest
    node first, in blocks of at most ``_SPLIT_BUDGET`` padded elements
    (or one segment).  A node takes a later block's best only when it
    is strictly greater, so ties go to the lowest feature, then the
    lowest threshold, wherever the blocks end.  ``found`` is False
    where every candidate column is constant.
    """
    n = keys.shape[1] - 1
    B, k = feats.shape
    rows = np.append(rows, n)  # the pad key's row
    offsets = np.cumsum(sizes) - sizes
    size_f, ones_f = sizes.astype(np.float64), ones.astype(np.float64)
    p0 = (size_f - ones_f) / size_f
    p1 = ones_f / size_f
    parent = 1.0 - (p0 * p0 + p1 * p1)
    seg_node = np.repeat(np.argsort(-sizes, kind="stable"), k)
    seg_feat = feats[seg_node, np.tile(np.arange(k), B)]
    best = np.full(B, -np.inf)
    feature, lo, hi = (np.zeros(B, dtype=np.intp) for _ in range(3))
    a = 0
    while a < seg_node.size:
        width = int(sizes[seg_node[a]])
        b = min(seg_node.size, a + max(1, _SPLIT_BUDGET // width))
        node, top, f, lo_rank, hi_rank = _block_best(
            keys, rows, offsets, size_f, ones_f, parent, seg_node[a:b], seg_feat[a:b], width
        )
        a = b
        gain = top > best[node]
        won = node[gain]
        best[won], feature[won], lo[won], hi[won] = top[gain], f[gain], lo_rank[gain], hi_rank[gain]
    found = best > -np.inf
    at = feature[found] * n
    below, above = values.ravel()[at + lo[found]], values.ravel()[at + hi[found]]
    with np.errstate(over="ignore"):
        middle = (below + above) / 2.0
    # Between adjacent floats the midpoint can round up to the upper
    # value, or overflow; the lower value then still splits the node.
    threshold = np.zeros(B)
    threshold[found] = np.where(middle < above, middle, below)
    return feature, threshold, found


def _partition(X, rows, sizes, feature, threshold):
    """Split each group of the concatenated ``rows`` (group i being
    ``sizes[i]`` long) at its own (feature, threshold): the rows
    reordered so each group's rows <= threshold come first, in order,
    and each group's count of those."""
    go_left = X[rows, np.repeat(feature, sizes)] <= np.repeat(threshold, sizes)
    owner = np.repeat(np.arange(sizes.size), sizes)
    parted = rows[np.argsort(2 * owner + ~go_left, kind="stable")]
    return parted, np.bincount(owner[go_left], minlength=sizes.size)


def _draw_features(rng, count: int, d: int, mtry: int) -> np.ndarray:
    """``count`` rows of ``mtry`` ascending features drawn uniformly
    without replacement: each row's smallest of d uniform keys."""
    keys = rng.random((count, d))
    return np.sort(np.argpartition(keys, mtry - 1, axis=1)[:, :mtry], axis=1)


def _grow_trees(X, y, samples, max_depth, min_samples_split: int, mtry=None, rng=None):
    """One CART tree per row-index array in ``samples``, grown together.

    A node is a leaf of its majority label (ties to 0) when it is pure,
    has fewer than ``min_samples_split`` rows, sits at ``max_depth`` or
    has no varying column; otherwise rows <= the best threshold go
    left.  Each tree keeps a stack of splittable nodes, left child on
    top; every step pops one node per tree and searches the step's
    nodes together.  With ``mtry`` below the feature count, a step
    draws its B nodes' features from ``rng`` in one ``_draw_features``
    call, a row per node in tree order, and a node searches all
    features when its drawn ones are constant there.  A tree's k-th
    splittable node in pre-order is popped at step k, so the draws do
    not depend on how the split search is blocked.
    """
    d = X.shape[1]
    keys, values = _rank_keys(X, y)
    draw = mtry is not None and mtry < d
    stacks = [[] for _ in samples]

    def attach(tree, rows, ones, depth):
        size = rows.size
        if ones in (0, size) or size < min_samples_split or depth == max_depth:
            return {"leaf": 1 if 2 * ones > size else 0}
        node = {}
        stacks[tree].append((tree, rows, ones, depth, node))
        return node

    trees = [attach(t, rows, int(y[rows].sum()), 0) for t, rows in enumerate(samples)]
    while batch := [stack.pop() for stack in stacks if stack]:
        rows = np.concatenate([entry[1] for entry in batch])
        sizes = np.array([entry[1].size for entry in batch])
        ones = np.array([entry[2] for entry in batch])
        if draw:
            feats = _draw_features(rng, len(batch), d, mtry)
        else:
            feats = np.broadcast_to(np.arange(d), (len(batch), d))
        feature, threshold, found = _split_search(keys, values, rows, sizes, ones, feats)
        if draw and not found.all():
            miss = np.flatnonzero(~found)
            feature[miss], threshold[miss], found[miss] = _split_search(
                keys, values, np.concatenate([batch[i][1] for i in miss]), sizes[miss],
                ones[miss], np.broadcast_to(np.arange(d), (miss.size, d)),
            )
        if found.any():
            parted, n_left = _partition(X, rows, sizes, feature, threshold)
        else:  # every node is a leaf, and X may have no column to index
            parted, n_left = rows, sizes
        starts = np.cumsum(sizes) - sizes
        ones_upto = np.cumsum(np.r_[0, y[parted]])
        ones_left = ones_upto[starts + n_left] - ones_upto[starts]
        for (tree, _, node_ones, depth, node), size, f, thr, ok, start, nl, l1 in zip(
            batch, sizes.tolist(), feature.tolist(), threshold.tolist(), found.tolist(),
            starts.tolist(), n_left.tolist(), ones_left.tolist(),
        ):
            if not ok:
                node["leaf"] = 1 if 2 * node_ones > size else 0
                continue
            cut = start + nl
            right = attach(tree, parted[cut : start + size], node_ones - l1, depth + 1)
            left = attach(tree, parted[start:cut], l1, depth + 1)
            node.update(feature=f, threshold=thr, left=left, right=right)
    return trees


def _tree_votes(trees: list, X: np.ndarray) -> np.ndarray:
    """How many of ``trees`` label each row of X malware.  All rows
    descend all trees together, a level at a time: the internal nodes
    reached partition their row indices at once, ties going left."""
    n = X.shape[0]
    malware = []
    nodes, parts = list(trees), [np.arange(n)] * len(trees)
    while nodes:
        inner, inner_parts = [], []
        for node, idx in zip(nodes, parts):
            leaf = node.get("leaf")
            if leaf is None:
                inner.append(node)
                inner_parts.append(idx)
            elif leaf:
                malware.append(idx)
        if not inner:
            break
        sizes = np.array([idx.size for idx in inner_parts])
        feature = np.array([node["feature"] for node in inner])
        threshold = np.array([node["threshold"] for node in inner])
        parted, n_left = _partition(X, np.concatenate(inner_parts), sizes, feature, threshold)
        nodes, parts = [], []
        end = 0
        for node, size, nl in zip(inner, sizes.tolist(), n_left.tolist()):
            start, cut, end = end, end + nl, end + size
            for child, part in ((node["left"], parted[start:cut]), (node["right"], parted[cut:end])):
                if part.size:
                    nodes.append(child)
                    parts.append(part)
    return np.bincount(np.concatenate([np.empty(0, dtype=np.intp), *malware]), minlength=n)


def _fit_decision_tree(X: np.ndarray, y: np.ndarray, hp: dict) -> dict:
    (tree,) = _grow_trees(X, y, [np.arange(X.shape[0])], hp["max_depth"], hp["min_samples_split"])
    return {"tree": tree}


# --- random forest ------------------------------------------------------------------


def _fit_random_forest(X: np.ndarray, y: np.ndarray, hp: dict, seed: int) -> dict:
    n, d = X.shape
    mtry = hp["mtry"]
    if mtry is None:
        mtry = max(1, int(math.isqrt(d)))
    if mtry > d:
        raise LearnError(f"mtry must be in [1, {d}], got {mtry}")
    rng = derive_rng(seed, "forest")
    samples = rng.integers(0, n, size=(int(hp["n_trees"]), n))
    trees = _grow_trees(X, y, samples, hp["max_depth"], hp["min_samples_split"], mtry, rng)
    return {"trees": trees, "mtry": mtry}


def _predict_random_forest(params: dict, X: np.ndarray) -> np.ndarray:
    votes = _tree_votes(params["trees"], X)
    return (votes * 2 > len(params["trees"])).astype(np.int64)  # tie goes to 0


# --- uniform surface -----------------------------------------------------------------


def fit(spec: ClassifierSpec, ds: Dataset) -> ClassifierModel:
    """Fit ``spec`` to ``ds``, whose features a Dataset keeps finite float64."""
    if ds.n == 0:
        raise LearnError("cannot fit on an empty dataset")
    X, y = ds.features, ds.labels
    classes = set(np.unique(y).tolist())
    if len(classes) == 1:
        only = int(next(iter(classes)))
        return ClassifierModel(kind=spec.kind, params={"dim": ds.dim}, constant=only)
    hp = spec.hyperparameters
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
    if not np.isfinite(X).all():
        raise LearnError("features contain NaN or infinity")
    if model.constant is not None:
        return np.full(X.shape[0], model.constant, dtype=np.int64)
    if model.kind in ("logistic_regression", "linear_svm"):
        return _predict_linear(model.params, X)
    if model.kind == "gaussian_nb":
        return _predict_gaussian_nb(model.params, X)
    if model.kind == "decision_tree":
        return _tree_votes([model.params["tree"]], X)
    return _predict_random_forest(model.params, X)

