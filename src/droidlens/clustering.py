"""Clustering algorithms and validity indices over raw feature matrices.

Five fitters (k-means, agglomerative, BIRCH, DBSCAN, Gaussian mixture)
plus the Calinski-Harabasz and silhouette indices used to pick between
them.  A partition is a 1-D integer array of cluster ids, one per row,
with -1 marking DBSCAN noise; k-means and the mixture return their
model alongside it.  Agglomerative instead returns the ward hierarchy
as its list of merges, and ``cut`` reads the partition at any k off
it.  DBSCAN and silhouette read an n×n distance matrix, so one
``exact_distances(X)`` serves every call on one X; it takes one Gram
product on integer counts, where that is exact, and direct differences
on anything else.  Everything is deterministic given (X, params,
seed): ties break toward the lowest index, and all randomness flows
through derived generator streams.
Features are consumed raw; callers standardize beforehand if they want
scaled distances.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClusterError
from .rng import derive_rng, derive_seed

logger = logging.getLogger(__name__)


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ClusterError(f"expected a non-empty 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ClusterError("matrix contains NaN or infinity")
    return X


def _as_distances(dist) -> np.ndarray:
    dist = _as_matrix(dist)
    if dist.shape[0] != dist.shape[1]:
        raise ClusterError(f"distance matrix must be square, got shape {dist.shape}")
    return dist


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ClusterError(f"k must satisfy 1 <= k <= n, got k={k} with n={n}")


def _row_norms(X: np.ndarray) -> np.ndarray:
    """X's squared row norms as a column, the term of ``_sq_dists``
    that depends on X alone."""
    return np.sum(X * X, axis=1)[:, None]


def _sq_dists(X: np.ndarray, centroids: np.ndarray, sq_norms=None) -> np.ndarray:
    """n×k squared Euclidean distances, clipped at 0 against roundoff.

    ``sq_norms`` may carry ``_row_norms(X)``, so that callers measuring
    one X against many centroid sets compute it once; the arithmetic is
    the same either way.  The cross term is X·Cᵀ doubled in place, the
    same bits as (2X)·Cᵀ: scaling by 2 is exact.  C that shares X's
    memory is copied first, since numpy sends X @ X.T to a symmetric
    product with other rounding.
    """
    if sq_norms is None:
        sq_norms = _row_norms(X)
    if np.may_share_memory(X, centroids):
        centroids = centroids.copy()
    cross = X @ centroids.T
    cross *= 2.0
    d2 = sq_norms - cross + np.sum(centroids * centroids, axis=1)[None, :]
    return np.maximum(d2, 0.0)


_TILE_ELEMENTS = 1 << 16


def exact_distances(X: np.ndarray) -> np.ndarray:
    """n×n Euclidean distances, exact to the rounding of one sqrt.

    Integer-valued X, such as opcode counts, with 4·d·max|x|² <= 2^53
    takes the expanded form ‖x‖² + ‖y‖² − 2·x·y from one Gram product,
    scaled and shifted in place in the n×n output.  Every product,
    partial sum and final square is then an integer below 2^53, so each
    entry is the exact squared distance whatever order BLAS sums in:
    the same bits, symmetric with a zero diagonal, that direct
    differences give.

    Any other input (fractional, standardized, NaN) takes direct
    differences.  Slower than the expanded form but free of its
    cancellation error; the validity indices are tested against oracles
    at 1e-9 relative, which the expanded form cannot hold for
    near-coincident fractional points.

    The matrix is filled in tile×tile blocks on or above the diagonal,
    each mirrored into the lower triangle; (x-y)^2 == (y-x)^2 exactly,
    so the result is symmetric bit for bit with a zero diagonal.  The
    tile keeps one tile×tile×d difference block near ``_TILE_ELEMENTS``
    floats, so memory is the n^2 output plus one cache-sized block.
    Every entry reduces its d squared gaps in the same order whatever
    the tile, so entries do not depend on it.
    """
    n, d = X.shape
    limit = math.isqrt(2**53 // (4 * max(d, 1)))
    if np.abs(X).max(initial=0.0) <= limit and np.array_equal(X, np.rint(X)):
        out = X @ X.T
        sq = out.diagonal().copy()
        out *= -2.0
        out += sq[:, None]
        out += sq[None, :]
        return np.sqrt(out, out=out)
    tile = max(1, math.isqrt(_TILE_ELEMENTS // max(d, 1)))
    out = np.empty((n, n))
    for r0 in range(0, n, tile):
        rows = X[r0 : r0 + tile, None, :]
        for c0 in range(r0, n, tile):
            gap = rows - X[None, c0 : c0 + tile, :]
            np.multiply(gap, gap, out=gap)
            block = np.sqrt(gap.sum(axis=2))
            out[r0 : r0 + tile, c0 : c0 + tile] = block
            out[c0 : c0 + tile, r0 : r0 + tile] = block.T
    return out


@dataclass(frozen=True)
class KMeansModel:
    centroids: np.ndarray
    sse: float
    iterations: int

    def __post_init__(self) -> None:
        # Adopted, not copied: the array handed in becomes read-only.
        centroids = np.asarray(self.centroids, dtype=np.float64)
        centroids.setflags(write=False)
        object.__setattr__(self, "centroids", centroids)
        if self.sse < 0:
            raise ClusterError(f"sse must be non-negative, got {self.sse}")


@dataclass(frozen=True)
class GmmModel:
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ClusterError(f"component weights sum to {weights.sum()!r}, not 1")
        if (variances <= 0).any():
            raise ClusterError("variances must be positive")
        for arr in (weights, means, variances):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)


# --- k-means ---------------------------------------------------------------


def _kmeanspp_init(
    X: np.ndarray, k: int, rng: np.random.Generator, sq_norms: np.ndarray
) -> np.ndarray:
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(X, X[chosen], sq_norms)[:, 0]
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # remaining mass zero: any point works
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dists(X, X[[idx]], sq_norms)[:, 0])
    return X[chosen]


_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6  # stop once no centroid moves this far
_SSE_RESTARTS = 10


def kmeans(X, k: int, seed: int) -> tuple[KMeansModel, np.ndarray]:
    """Lloyd iterations from a k-means++ start.

    The rows are assigned once to the starting centroids, then once
    more at the end of each Lloyd step, so the returned labels and SSE
    are those of the returned centroids.  Nearest-centroid ties go to
    the lowest centroid index.  Each step checks that SSE did not
    increase; a violation is a bug, not a data condition, and raises.
    X's row norms are computed once per call and shared by every
    distance pass.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    _check_k(k, n)
    rng = derive_rng(seed, "kmeans++")
    sq_norms = _row_norms(X)
    centroids = _kmeanspp_init(X, k, rng, sq_norms)

    def assign(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        d2 = _sq_dists(X, c, sq_norms)
        labels = np.argmin(d2, axis=1)
        dmin = d2[np.arange(n), labels]
        return labels, dmin, float(dmin.sum())

    labels, dmin, sse = assign(centroids)
    for iterations in range(1, _KMEANS_MAX_ITER + 1):
        new_centroids = np.empty_like(centroids)
        for cid in range(k):
            members = labels == cid
            if members.any():
                new_centroids[cid] = X[members].mean(axis=0)
            else:  # reseed to the row farthest from its centroid, each row once
                far = int(np.argmax(dmin))
                new_centroids[cid] = X[far]
                dmin[far] = -1.0
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        prev_sse = sse
        labels, dmin, sse = assign(centroids)
        if sse > prev_sse + 1e-9 * max(1.0, prev_sse):
            raise ClusterError(
                f"SSE increased from {prev_sse!r} to {sse!r}; Lloyd step is broken"
            )
        if shift < _KMEANS_TOL:
            break

    model = KMeansModel(centroids=centroids, sse=sse, iterations=iterations)
    return model, labels


def sse_curve(X, k_range, seed: int) -> list[tuple[int, float]]:
    """Best-of-restarts SSE per k, the elbow-method curve.

    Each k is checked as ``k_range`` is read, so a long range fails at
    its first k above the row count instead of being listed whole.
    """
    X = _as_matrix(X)
    ks = []
    for k in map(int, k_range):
        _check_k(k, X.shape[0])
        ks.append(k)
    if not ks:
        raise ClusterError("k_range is empty")
    curve = []
    for k in ks:
        best = math.inf
        for restart in range(_SSE_RESTARTS):
            model, _ = kmeans(X, k, derive_seed(seed, "sse_curve", k, restart))
            best = min(best, model.sse)
        curve.append((k, best))
    return curve


def assign_clusters_batch(X, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid per row; ties go to the lowest index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != centroids.shape[1]:
        raise ClusterError(
            f"matrix has shape {X.shape}, centroids are "
            f"{centroids.shape[0]}x{centroids.shape[1]}"
        )
    return np.argmin(_sq_dists(X, centroids), axis=1)


# --- agglomerative ----------------------------------------------------------

def agglomerative(X) -> np.ndarray:
    """The ward hierarchy: bottom-up merging from singletons down to
    one cluster, as an (n-1)×2 array of merged id pairs (i, j), i < j,
    in merge order.

    Each round merges the pair with minimum variance increase
    (ni*nj/(ni+nj) * ||ci - cj||^2).  Among equal merge distances the
    pair with the lexicographically lowest (i, j) cluster ids wins; a
    merged cluster keeps the lower of the two ids, so a cluster's id is
    always its lowest row.  ``cut`` reads a partition off the result.
    """
    X = _as_matrix(X)
    n = X.shape[0]

    merges = np.empty((n - 1, 2), dtype=np.intp)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    centroids = X.copy()

    D = 0.5 * _sq_dists(X, X)
    # Keep only i < j cells; flat argmin then scans pairs in (i, j)
    # lexicographic order, which is the documented tie-break.
    D[np.tri(n, dtype=bool)] = np.inf

    for step in range(n - 1):
        flat = int(np.argmin(D))
        i, j = divmod(flat, n)
        merges[step] = i, j
        others = np.flatnonzero(active)
        others = others[(others != i) & (others != j)]
        ni, nj = sizes[i], sizes[j]
        centroids[i] = (ni * centroids[i] + nj * centroids[j]) / (ni + nj)
        sizes[i] = ni + nj

        active[j] = False
        D[j, :] = np.inf
        D[:, j] = np.inf
        if others.size:
            gap = centroids[others] - centroids[i]
            merged = (sizes[i] * sizes[others] / (sizes[i] + sizes[others])) * (
                gap * gap
            ).sum(axis=1)
            D[np.minimum(others, i), np.maximum(others, i)] = merged

    return merges


def cut(merges: np.ndarray, k: int) -> np.ndarray:
    """The k-cluster partition of a hierarchy from ``agglomerative``:
    the clusters left after its first n - k merges, numbered by their
    first row."""
    n = merges.shape[0] + 1
    _check_k(k, n)
    owner = np.arange(n)
    for i, j in merges[: n - k]:
        owner[owner == j] = i
    return np.unique(owner, return_inverse=True)[1]


# --- BIRCH -------------------------------------------------------------------


class _CF:
    """Clustering feature: point count, linear sum, squared-norm sum."""

    __slots__ = ("n", "ls", "ss", "child")

    def __init__(self, n: int, ls: np.ndarray, ss: float, child=None):
        self.n = n
        self.ls = ls
        self.ss = ss
        self.child = child

    @classmethod
    def of_point(cls, x: np.ndarray) -> "_CF":
        return cls(1, x.copy(), float(x @ x))

    def centroid(self) -> np.ndarray:
        return self.ls / self.n

    def absorb(self, other: "_CF") -> None:
        self.n += other.n
        self.ls = self.ls + other.ls
        self.ss += other.ss

    def merged_radius(self, other: "_CF") -> float:
        n = self.n + other.n
        ls = self.ls + other.ls
        ss = self.ss + other.ss
        return math.sqrt(max(ss / n - float(ls @ ls) / (n * n), 0.0))


class _CFNode:
    __slots__ = ("entries", "leaf")

    def __init__(self, leaf: bool):
        self.entries: list[_CF] = []
        self.leaf = leaf


def _nearest_entry(entries: list[_CF], x: np.ndarray) -> int:
    best, best_d = 0, math.inf
    for idx, entry in enumerate(entries):
        gap = entry.centroid() - x
        d = float(gap @ gap)
        if d < best_d:
            best, best_d = idx, d
    return best


def _split_node(node: _CFNode) -> tuple[_CF, _CF]:
    """Split by farthest-pair seeding; each half becomes a new node
    summarized by a fresh CF entry."""
    cents = np.array([e.centroid() for e in node.entries])
    d2 = _sq_dists(cents, cents)
    a, b = divmod(int(np.argmax(d2)), len(node.entries))
    left, right = _CFNode(node.leaf), _CFNode(node.leaf)
    for idx, entry in enumerate(node.entries):
        da = d2[idx, a]
        db = d2[idx, b]
        (left if da <= db else right).entries.append(entry)
    if not right.entries:  # identical centroids: argmax degenerated to a == b
        right.entries.append(left.entries.pop())
    out = []
    for half in (left, right):
        summary = _CF(0, np.zeros(cents.shape[1]), 0.0, child=half)
        for entry in half.entries:
            summary.absorb(entry)
        out.append(summary)
    return out[0], out[1]


def _insert_cf(node: _CFNode, point_cf: _CF, threshold: float, branching: int):
    """Insert into the subtree; returns a (left, right) pair when this
    node split, else None."""
    if node.leaf:
        if node.entries:
            idx = _nearest_entry(node.entries, point_cf.centroid())
            if node.entries[idx].merged_radius(point_cf) <= threshold:
                node.entries[idx].absorb(point_cf)
                return None
        node.entries.append(point_cf)
    else:
        idx = _nearest_entry(node.entries, point_cf.centroid())
        entry = node.entries[idx]
        split = _insert_cf(entry.child, point_cf, threshold, branching)
        if split is None:
            entry.absorb(point_cf)
            return None
        node.entries[idx : idx + 1] = list(split)
    if len(node.entries) > branching:
        return _split_node(node)
    return None


def _leaf_entries(node: _CFNode) -> list[_CF]:
    if node.leaf:
        return list(node.entries)
    out: list[_CF] = []
    for entry in node.entries:
        out.extend(_leaf_entries(entry.child))
    return out


@dataclass(frozen=True)
class BirchTree:
    """The part of BIRCH that does not depend on k: the CF tree's leaf
    entries, as linear sums and point counts, and the ward hierarchy
    of their centroids.  ``birch_cut`` reads the partition at any k."""

    X: np.ndarray
    leaf_sums: np.ndarray
    leaf_counts: np.ndarray
    merges: np.ndarray


_BIRCH_THRESHOLD = 0.05
_BIRCH_BRANCHING = 50  # entries per CF node before it splits


def birch(X) -> BirchTree:
    """Single-pass CF-tree condensation, then the ward hierarchy over
    the leaf entries.

    The leaf radius bound is ``_BIRCH_THRESHOLD`` times the data radius
    (max distance to the global centroid), so one setting works across
    raw count scales.
    """
    X = _as_matrix(X)
    radius = float(np.sqrt(_sq_dists(X, X.mean(axis=0)[None, :])).max())
    abs_threshold = _BIRCH_THRESHOLD * radius

    root = _CFNode(leaf=True)
    for row in X:
        split = _insert_cf(root, _CF.of_point(row), abs_threshold, _BIRCH_BRANCHING)
        if split is not None:
            new_root = _CFNode(leaf=False)
            new_root.entries = list(split)
            root = new_root

    entries = _leaf_entries(root)
    centroids = np.array([e.centroid() for e in entries])
    return BirchTree(
        X=X,
        leaf_sums=np.array([e.ls for e in entries]),
        leaf_counts=np.array([e.n for e in entries]),
        merges=agglomerative(centroids),
    )


def birch_cut(tree: BirchTree, k: int) -> np.ndarray:
    """The k-cluster BIRCH partition: cut the leaf hierarchy at k, then
    give each row the nearest of the k cluster centroids.  Clusters are
    numbered by their first row."""
    X = tree.X
    _check_k(k, X.shape[0])
    leaves = tree.leaf_counts.size
    if k > leaves:
        raise ClusterError(f"k={k} exceeds the {leaves} leaf entries the CF tree produced")

    grouping = cut(tree.merges, k)
    final = np.zeros((k, X.shape[1]))
    np.add.at(final, grouping, tree.leaf_sums)
    weights = np.bincount(grouping, weights=tree.leaf_counts, minlength=k)
    final /= weights[:, None]

    raw = assign_clusters_batch(X, final)
    # Number the clusters by their first row.
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


# --- DBSCAN ------------------------------------------------------------------


_DBSCAN_MIN_PTS = 5


def dbscan(dist, eps: float) -> np.ndarray:
    """Density clustering over an n×n distance matrix, such as
    ``exact_distances(X)``; core iff >= ``_DBSCAN_MIN_PTS`` neighbors
    within eps (self included).

    Clusters are connected components of the core-core reachability
    graph, numbered by their lowest core row index.  Border points
    join the cluster of their nearest core neighbor (ties to the lower
    row index), which makes the outcome independent of row order.
    Unreachable points are noise (-1).

    Each component is found by a breadth-first search from its lowest
    unreached core, one numpy step per level over the core×core
    neighbour mask: O(n^2) numpy work in all, and one Python step per
    level, so a chain of cores n long takes n steps.  A level ORs its
    frontier's mask rows in chunks of about ``_TILE_ELEMENTS`` bytes.
    Memory beyond the matrix is the n×n boolean mask plus, one after
    the other, the core×core mask of the search and the non-core×core
    mask and distances of the border step.
    """
    dist = _as_distances(dist)
    n = dist.shape[0]
    if eps <= 0:
        raise ClusterError(f"eps must be positive, got {eps}")

    within = dist <= eps
    core = within.sum(axis=1) >= _DBSCAN_MIN_PTS
    core_idx = np.flatnonzero(core)

    labels = np.full(n, -1, dtype=np.int64)
    linked = within[np.ix_(core_idx, core_idx)]
    unreached = np.ones(core_idx.size, dtype=bool)
    chunk = max(1, _TILE_ELEMENTS // max(core_idx.size, 1))
    k = 0
    for start in range(core_idx.size):
        if not unreached[start]:
            continue
        frontier = np.array([start])
        while frontier.size:
            unreached[frontier] = False
            labels[core_idx[frontier]] = k
            reach = np.zeros(core_idx.size, dtype=bool)
            for c0 in range(0, frontier.size, chunk):
                reach |= linked[frontier[c0 : c0 + chunk]].any(axis=0)
            frontier = np.flatnonzero(reach & unreached)
        k += 1
    del linked

    if k:
        candidates = np.flatnonzero(~core)
        reach = within[np.ix_(candidates, core_idx)]
        hit = reach.any(axis=1)
        border, reach = candidates[hit], reach[hit]
        gaps = dist[np.ix_(border, core_idx)]
        gaps[~reach] = np.inf
        # argmin takes the first minimum: ties go to the lowest core row.
        nearest = gaps.argmin(axis=1)
        labels[border] = labels[core_idx[nearest]]

    return labels


# --- Gaussian mixture ---------------------------------------------------------


def _log_gaussian(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """n×k log densities for diagonal-covariance components."""
    n, d = X.shape
    out = np.empty((n, means.shape[0]))
    for j in range(means.shape[0]):
        gap = X - means[j]
        out[:, j] = -0.5 * (
            d * math.log(2.0 * math.pi)
            + np.log(variances[j]).sum()
            + ((gap * gap) / variances[j]).sum(axis=1)
        )
    return out


_GMM_MAX_ITER = 200
_GMM_TOL = 1e-6  # stop once the log likelihood gains less than this
_GMM_VAR_FLOOR = 1e-6


def gmm(X, k: int, seed: int) -> tuple[GmmModel, np.ndarray]:
    """EM for a diagonal-covariance mixture, seeded from k-means.

    Each pass is an M-step then an E-step.  The first pass takes the
    k-means labels as one-hot responsibilities, so it is the
    initialisation; up to ``_GMM_MAX_ITER`` EM iterations follow, and
    the returned labels and log likelihood always describe the returned
    parameters.  Every component starts at the data's mean and floored
    variance, which a component with no mass keeps: one whose k-means
    cluster is empty starts dead, at weight 0.

    Responsibilities are computed in log space; the total log
    likelihood must not decrease by more than 1e-8 between iterations
    (slack for the variance floor projection).  Variances are floored
    at ``_GMM_VAR_FLOOR``.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    _check_k(k, n)

    _, init_labels = kmeans(X, k, seed)
    resp = np.eye(k)[init_labels]
    means = np.tile(X.mean(axis=0), (k, 1))
    variances = np.tile(np.maximum(X.var(axis=0), _GMM_VAR_FLOOR), (k, 1))

    prev_ll = -math.inf
    for _ in range(_GMM_MAX_ITER + 1):
        mass = resp.sum(axis=0)
        for j in range(k):
            if mass[j] < 1e-12:
                # Dead component: keep its shape, it simply stops moving.
                continue
            means[j] = resp[:, j] @ X / mass[j]
            gap = X - means[j]
            variances[j] = np.maximum(resp[:, j] @ (gap * gap) / mass[j], _GMM_VAR_FLOOR)
        weights = np.maximum(mass / n, 0.0)
        weights /= weights.sum()

        with np.errstate(divide="ignore"):  # dead components carry weight 0
            log_w = np.log(weights)
        log_prob = _log_gaussian(X, means, variances) + log_w[None, :]
        row_max = log_prob.max(axis=1, keepdims=True)
        lse = row_max[:, 0] + np.log(np.exp(log_prob - row_max).sum(axis=1))
        ll = float(lse.sum())
        resp = np.exp(log_prob - lse[:, None])
        if ll < prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise ClusterError(
                f"log-likelihood fell from {prev_ll!r} to {ll!r}; EM step is broken"
            )
        converged = ll - prev_ll < _GMM_TOL
        prev_ll = ll
        if converged:
            break

    model = GmmModel(
        weights=weights, means=means, variances=variances, log_likelihood=ll
    )
    return model, np.argmax(resp, axis=1)


# --- Validity indices ----------------------------------------------------------


def _validated_partition(n: int, labels, allow_noise: bool) -> np.ndarray:
    """The labels as a 1-D integer array of length n, none below -1."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ClusterError(f"labels have shape {labels.shape}, the input has {n} rows")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ClusterError(f"labels must be integers, got dtype {labels.dtype}")
    bad = np.flatnonzero(labels < -1)
    if bad.size:
        i = int(bad[0])
        raise ClusterError(f"row {i}: label {labels[i]} below -1")
    if not allow_noise and (labels == -1).any():
        raise ClusterError("noise labels present; filter them before scoring")
    return labels


def calinski_harabasz(X, labels) -> float:
    """Between/within dispersion ratio; +inf when W = 0 (a sentinel,
    reported, never a crash).  k counts the non-empty clusters, so an
    unused cluster id changes neither k - 1 nor n - k."""
    X = _as_matrix(X)
    labels = _validated_partition(X.shape[0], labels, allow_noise=False)
    present = np.unique(labels)
    k = present.size
    n = X.shape[0]
    if k < 2:
        raise ClusterError(f"Calinski-Harabasz needs k >= 2, got k={k}")
    if n <= k:
        raise ClusterError(f"Calinski-Harabasz needs n > k, got n={n}, k={k}")
    overall = X.mean(axis=0)
    between = 0.0
    within = 0.0
    for cid in present:
        rows = X[labels == cid]
        center = rows.mean(axis=0)
        gap = center - overall
        between += rows.shape[0] * float(gap @ gap)
        within += float(((rows - center) ** 2).sum())
    if within == 0.0:
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


def silhouette(dist, labels) -> float:
    """Mean silhouette over non-noise points; singleton clusters
    contribute 0 by convention.

    ``dist`` is the n×n distance matrix of all the rows, noise
    included, such as ``exact_distances(X)``; callers scoring many
    partitions of one X compute it once.
    """
    dist = _as_distances(dist)
    labels = _validated_partition(dist.shape[0], labels, allow_noise=True)
    keep = labels != -1
    excluded = int((~keep).sum())
    if excluded:
        logger.info(
            "silhouette: excluding %d noise points (%.1f%% of %d rows)",
            excluded, 100.0 * excluded / labels.size, labels.size,
        )
    uniq, own = np.unique(labels[keep], return_inverse=True)
    n = own.size
    if uniq.size < 2:
        raise ClusterError(f"silhouette needs at least 2 clusters, got {uniq.size}")
    counts = np.bincount(own)
    if (counts == 1).all():
        raise ClusterError("all clusters are singletons; silhouette undefined")
    if uniq.size > n - 1:
        raise ClusterError(f"silhouette needs k <= n-1, got k={uniq.size}, n={n}")

    # Noise columns match no cluster; noise rows are dropped after the sums.
    sums = np.stack([dist[:, labels == c].sum(axis=1) for c in uniq], axis=1)[keep]
    rows = np.arange(n)
    own_size = counts[own]
    means = sums / counts
    means[rows, own] = np.inf
    b = means.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # singletons: 0/0
        a = sums[rows, own] / (own_size - 1)
        denom = np.maximum(a, b)
        scores = (b - a) / denom
    scores[(own_size == 1) | (denom == 0.0)] = 0.0  # convention: s = 0
    return float(scores.mean())
