"""Clustering algorithms and validity indices over raw feature matrices.

Five fitters (k-means, agglomerative, BIRCH, DBSCAN, Gaussian mixture)
plus the Calinski-Harabasz and silhouette indices used to pick between
them.  Every fitter returns its partition as a 1-D integer array of
cluster ids, one per row, with -1 marking DBSCAN noise; k-means and
the mixture return their model alongside it.  Everything is
deterministic given (X, params, seed): ties break toward the lowest
index, and all randomness flows through derived generator streams.
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


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ClusterError(f"k must satisfy 1 <= k <= n, got k={k} with n={n}")


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """n×k squared Euclidean distances, clipped at 0 against roundoff."""
    d2 = (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * X @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


_TILE_ELEMENTS = 1 << 16


def exact_distances(X: np.ndarray, *, tile: int | None = None) -> np.ndarray:
    """n×n Euclidean distances by direct differences.

    Slower than the expanded form but free of its cancellation error;
    the validity indices are tested against oracles at 1e-9 relative,
    which the expanded form cannot hold for near-coincident points.

    The matrix is filled in tile×tile blocks on or above the diagonal,
    each mirrored into the lower triangle; (x-y)^2 == (y-x)^2 exactly,
    so the result is symmetric bit for bit with a zero diagonal.  The
    default tile keeps one tile×tile×d difference block near 2^16
    floats, so memory is the n^2 output plus one cache-sized block.
    Every entry reduces its d squared gaps in the same order whatever
    the tile, so entries do not depend on it.
    """
    n, d = X.shape
    if tile is None:
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
        centroids = np.asarray(self.centroids, dtype=np.float64).copy()
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
        weights = np.asarray(self.weights, dtype=np.float64).copy()
        means = np.asarray(self.means, dtype=np.float64).copy()
        variances = np.asarray(self.variances, dtype=np.float64).copy()
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ClusterError(f"component weights sum to {weights.sum()!r}, not 1")
        if (variances <= 0).any():
            raise ClusterError("variances must be positive")
        for arr in (weights, means, variances):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def k(self) -> int:
        return self.means.shape[0]


# --- k-means ---------------------------------------------------------------


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(X, X[chosen])[:, 0]
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # remaining mass zero: any point works
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dists(X, X[[idx]])[:, 0])
    return X[chosen].copy()


def _repair_empty(
    X: np.ndarray, labels: np.ndarray, dmin: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Reseed each empty cluster to the point currently farthest from
    its assigned centroid; a point is spent once per repair round."""
    counts = np.bincount(labels, minlength=centroids.shape[0])
    if counts.min() > 0:
        return centroids
    centroids = centroids.copy()
    dmin = dmin.copy()
    for cid in np.flatnonzero(counts == 0):
        far = int(np.argmax(dmin))
        centroids[cid] = X[far]
        dmin[far] = -1.0
    return centroids


_KMEANS_MAX_ITER = 300
_KMEANS_TOL = 1e-6  # stop once no centroid moves this far
_SSE_RESTARTS = 10


def kmeans(X, k: int, seed: int) -> tuple[KMeansModel, np.ndarray]:
    """Lloyd iterations from a k-means++ start.

    Nearest-centroid ties go to the lowest centroid index.  SSE is
    checked non-increasing on every iteration; a violation is a bug,
    not a data condition, and raises.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    _check_k(k, n)
    rng = derive_rng(seed, "kmeans++")
    centroids = _kmeanspp_init(X, k, rng)

    prev_sse = math.inf
    iterations = 0

    def assign(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        d2 = _sq_dists(X, c)
        labels = np.argmin(d2, axis=1)
        dmin = d2[np.arange(n), labels]
        return labels, dmin, float(dmin.sum())

    def check_monotone(sse: float) -> None:
        if sse > prev_sse + 1e-9 * max(1.0, prev_sse):
            raise ClusterError(
                f"SSE increased from {prev_sse!r} to {sse!r}; Lloyd step is broken"
            )

    for _ in range(_KMEANS_MAX_ITER):
        labels, dmin, sse = assign(centroids)
        check_monotone(sse)
        prev_sse = sse
        new_centroids = centroids.copy()
        for cid in range(k):
            members = labels == cid
            if members.any():
                new_centroids[cid] = X[members].mean(axis=0)
        new_centroids = _repair_empty(X, labels, dmin, new_centroids)
        iterations += 1
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < _KMEANS_TOL:
            break

    labels, _, sse = assign(centroids)
    check_monotone(sse)
    model = KMeansModel(centroids=centroids, sse=sse, iterations=iterations)
    return model, labels


def sse_curve(X, k_range, seed: int) -> list[tuple[int, float]]:
    """Best-of-restarts SSE per k, the elbow-method curve."""
    X = _as_matrix(X)
    ks = [int(k) for k in k_range]
    if not ks:
        raise ClusterError("k_range is empty")
    for k in ks:
        _check_k(k, X.shape[0])
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

def agglomerative(X, k: int) -> np.ndarray:
    """Bottom-up ward merging from singletons.

    Each round merges the pair with minimum variance increase
    (ni*nj/(ni+nj) * ||ci - cj||^2).  Among equal merge distances the
    pair with the lexicographically lowest (i, j) cluster ids wins; a
    merged cluster keeps the lower of the two ids, so a cluster's id is
    always its lowest row.  Labels number the clusters in that order.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    _check_k(k, n)

    owner = np.arange(n)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    centroids = X.copy()

    D = 0.5 * _sq_dists(X, X)
    # Keep only i < j cells; flat argmin then scans pairs in (i, j)
    # lexicographic order, which is the documented tie-break.
    D[np.tri(n, dtype=bool)] = np.inf

    for _ in range(n - k):
        flat = int(np.argmin(D))
        i, j = divmod(flat, n)
        others = np.flatnonzero(active)
        others = others[(others != i) & (others != j)]
        ni, nj = sizes[i], sizes[j]
        centroids[i] = (ni * centroids[i] + nj * centroids[j]) / (ni + nj)
        sizes[i] = ni + nj

        owner[owner == j] = i
        active[j] = False
        D[j, :] = np.inf
        D[:, j] = np.inf
        if others.size:
            gap = centroids[others] - centroids[i]
            merged = (sizes[i] * sizes[others] / (sizes[i] + sizes[others])) * (
                gap * gap
            ).sum(axis=1)
            D[np.minimum(others, i), np.maximum(others, i)] = merged

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


def _split_node(node: _CFNode, branching: int) -> tuple[_CF, _CF]:
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
        return _split_node(node, branching)
    return None


def _leaf_entries(node: _CFNode) -> list[_CF]:
    if node.leaf:
        return list(node.entries)
    out: list[_CF] = []
    for entry in node.entries:
        out.extend(_leaf_entries(entry.child))
    return out


def birch(X, k: int, threshold: float = 0.05, branching: int = 50) -> np.ndarray:
    """Single-pass CF-tree condensation, then ward over leaf entries.

    ``threshold`` is a fraction of the data radius (max distance to the
    global centroid), so one setting works across raw count scales.
    The absolute radius bound is threshold * radius.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    _check_k(k, n)
    if threshold <= 0:
        raise ClusterError(f"threshold must be positive, got {threshold}")
    if branching < 2:
        raise ClusterError(f"branching must be at least 2, got {branching}")

    radius = float(np.sqrt(_sq_dists(X, X.mean(axis=0)[None, :])).max())
    abs_threshold = threshold * radius

    root = _CFNode(leaf=True)
    for row in X:
        split = _insert_cf(root, _CF.of_point(row), abs_threshold, branching)
        if split is not None:
            new_root = _CFNode(leaf=False)
            new_root.entries = list(split)
            root = new_root

    entries = _leaf_entries(root)
    if k > len(entries):
        raise ClusterError(
            f"k={k} exceeds the {len(entries)} leaf entries the CF tree produced; "
            "lower k or the threshold"
        )

    centroids = np.array([e.centroid() for e in entries])
    grouping = agglomerative(centroids, k)
    final = np.zeros((k, X.shape[1]))
    np.add.at(final, grouping, np.array([e.ls for e in entries]))
    weights = np.bincount(grouping, weights=[e.n for e in entries], minlength=k)
    final /= weights[:, None]

    raw = assign_clusters_batch(X, final)
    # Number the clusters by their first row.
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


# --- DBSCAN ------------------------------------------------------------------


def dbscan(X, eps: float, min_pts: int = 5) -> np.ndarray:
    """Density clustering; core iff >= min_pts neighbors within eps
    (self included).

    Clusters are connected components of the core-core reachability
    graph, numbered by their lowest core row index.  Border points
    join the cluster of their nearest core neighbor (ties to the lower
    row index), which makes the outcome independent of row order.
    Unreachable points are noise (-1).

    Each component is found by a breadth-first search from its lowest
    unreached core, one numpy step per level over the core×core
    neighbour mask: O(n^2) numpy work in all, and one Python step per
    level, so a chain of cores n long takes n steps.  Memory is the
    n×n distance matrix plus the core×core mask.
    """
    X = _as_matrix(X)
    n = X.shape[0]
    if eps <= 0:
        raise ClusterError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ClusterError(f"min_pts must be at least 1, got {min_pts}")

    dist = np.sqrt(_sq_dists(X, X))
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts
    core_idx = np.flatnonzero(core)

    labels = np.full(n, -1, dtype=np.int64)
    linked = within[np.ix_(core_idx, core_idx)]
    unreached = np.ones(core_idx.size, dtype=bool)
    k = 0
    for start in range(core_idx.size):
        if not unreached[start]:
            continue
        frontier = np.array([start])
        while frontier.size:
            unreached[frontier] = False
            labels[core_idx[frontier]] = k
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unreached)
        k += 1

    if k:
        border = np.flatnonzero(~core & within[:, core_idx].any(axis=1))
        cols = np.ix_(border, core_idx)
        # argmin takes the first minimum: ties go to the lowest core row.
        nearest = np.where(within[cols], dist[cols], np.inf).argmin(axis=1)
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

    Responsibilities are computed in log space; the total log
    likelihood must not decrease by more than 1e-8 between iterations
    (slack for the variance floor projection).  Variances are floored
    at ``_GMM_VAR_FLOOR``.
    """
    X = _as_matrix(X)
    n, d = X.shape
    _check_k(k, n)

    _, init_labels = kmeans(X, k, seed)
    means = np.empty((k, d))
    variances = np.empty((k, d))
    weights = np.empty(k)
    global_var = np.maximum(X.var(axis=0), _GMM_VAR_FLOOR)
    for j in range(k):
        rows = X[init_labels == j]
        if rows.shape[0] == 0:
            means[j] = X.mean(axis=0)
            variances[j] = global_var
            weights[j] = 1.0 / n  # tiny but alive; renormalized below
        else:
            means[j] = rows.mean(axis=0)
            variances[j] = np.maximum(rows.var(axis=0), _GMM_VAR_FLOOR)
            weights[j] = rows.shape[0] / n
    weights /= weights.sum()

    def e_step() -> tuple[float, np.ndarray]:
        with np.errstate(divide="ignore"):  # dead components carry weight 0
            log_w = np.log(weights)
        log_prob = _log_gaussian(X, means, variances) + log_w[None, :]
        row_max = log_prob.max(axis=1, keepdims=True)
        lse = row_max[:, 0] + np.log(np.exp(log_prob - row_max).sum(axis=1))
        return float(lse.sum()), np.exp(log_prob - lse[:, None])

    prev_ll = -math.inf
    for _ in range(_GMM_MAX_ITER):
        ll, resp = e_step()
        if ll < prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise ClusterError(
                f"log-likelihood fell from {prev_ll!r} to {ll!r}; EM step is broken"
            )
        converged = prev_ll != -math.inf and ll - prev_ll < _GMM_TOL
        prev_ll = ll
        if converged:
            break

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
    else:
        # Ran out of iterations after an M-step; refresh the posterior
        # so labels and log_likelihood describe the returned parameters.
        prev_ll, resp = e_step()

    model = GmmModel(
        weights=weights, means=means, variances=variances, log_likelihood=prev_ll
    )
    return model, np.argmax(resp, axis=1)


# --- Validity indices ----------------------------------------------------------


def _validated_partition(X: np.ndarray, labels, allow_noise: bool) -> np.ndarray:
    """The labels as a 1-D integer array, one per row of X, none below -1."""
    labels = np.asarray(labels)
    if labels.shape != (X.shape[0],):
        raise ClusterError(f"labels have shape {labels.shape}, X has {X.shape[0]} rows")
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
    labels = _validated_partition(X, labels, allow_noise=False)
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


def silhouette(X, labels, dist: np.ndarray | None = None) -> float:
    """Mean silhouette over non-noise points; singleton clusters
    contribute 0 by convention.  Exact O(n^2) distances.

    ``dist`` may carry ``exact_distances(X)`` for all of X's rows, noise
    included, so callers scoring many partitions of one X compute it
    once; without it the matrix is computed here.
    """
    X = _as_matrix(X)
    labels = _validated_partition(X, labels, allow_noise=True)
    if dist is not None and dist.shape != (X.shape[0], X.shape[0]):
        raise ClusterError(
            f"distance matrix has shape {dist.shape}, expected "
            f"{X.shape[0]}x{X.shape[0]} for X's rows"
        )
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

    if dist is None:
        dist = exact_distances(X)
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
