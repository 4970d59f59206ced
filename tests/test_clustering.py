"""Clustering fitters and validity indices.

Oracles here are written from the definitions with plain Python loops
and share no code with the library: direct-definition Calinski-Harabasz
and silhouette, an exhaustive merge-order explorer for ward
agglomeration, and a neighbor-count reachability oracle for DBSCAN.
``_reference_dbscan`` is the stack search and per-border loop that
``dbscan`` replaced, ``_reference_agglomerative`` the per-k ward
loop that ``agglomerative`` and ``cut`` replaced, ``_reference_kmeans``
the Lloyd loop that recomputed X's row norms on every distance pass
and reseeded empty clusters after its means,
``_reference_birch`` the per-k BIRCH that ``birch`` and ``birch_cut``
replaced, and ``_reference_gmm`` the mixture that built its first
parameters from per-cluster moments instead of its own M-step; all
share the library's distance computation,
except that ``_reference_dbscan`` keeps the expanded form ``dbscan``
used before it took ``exact_distances``.  Its draws are integer grids
and lines, on which both forms give exact distances.
"""

import itertools
import math
import tracemalloc
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from droidlens import clustering
from droidlens.clustering import (
    _CF,
    _CFNode,
    _insert_cf,
    _leaf_entries,
    _log_gaussian,
    _sq_dists,
    agglomerative,
    assign_clusters_batch,
    birch,
    birch_cut,
    calinski_harabasz,
    cut,
    dbscan,
    exact_distances,
    gmm,
    kmeans,
    silhouette,
    sse_curve,
)
from droidlens.errors import ClusterError
from droidlens.rng import derive_rng, derive_seed

# --- Oracles (definitions transcribed independently) ----------------------


def oracle_ch(X, labels):
    n, d = len(X), len(X[0])
    ks = sorted(set(labels))
    k = len(ks)
    overall = [sum(X[i][j] for i in range(n)) / n for j in range(d)]
    between = 0.0
    within = 0.0
    for c in ks:
        rows = [i for i in range(n) if labels[i] == c]
        center = [sum(X[i][j] for i in rows) / len(rows) for j in range(d)]
        between += len(rows) * sum((center[j] - overall[j]) ** 2 for j in range(d))
        within += sum(
            sum((X[i][j] - center[j]) ** 2 for j in range(d)) for i in rows
        )
    if within == 0.0:
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


def oracle_silhouette(X, labels):
    pts = [i for i in range(len(X)) if labels[i] != -1]
    d = len(X[0])

    def dist(a, b):
        return math.sqrt(sum((X[a][j] - X[b][j]) ** 2 for j in range(d)))

    clusters = defaultdict(list)
    for i in pts:
        clusters[labels[i]].append(i)
    scores = []
    for i in pts:
        own = clusters[labels[i]]
        if len(own) == 1:
            scores.append(0.0)
            continue
        a = sum(dist(i, j) for j in own if j != i) / (len(own) - 1)
        b = min(
            sum(dist(i, j) for j in rows) / len(rows)
            for c, rows in clusters.items()
            if c != labels[i]
        )
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return sum(scores) / len(scores)


def oracle_ward_dist(A, B, X):
    ca = [sum(X[i][j] for i in A) / len(A) for j in range(len(X[0]))]
    cb = [sum(X[i][j] for i in B) / len(B) for j in range(len(X[0]))]
    gap = sum((a - b) ** 2 for a, b in zip(ca, cb))
    return len(A) * len(B) / (len(A) + len(B)) * gap


def oracle_merge_outcomes(X, k):
    """Every k-partition reachable by greedy merging under any tie order."""
    outcomes = set()

    def recurse(partition):
        if len(partition) == k:
            outcomes.add(frozenset(partition))
            return
        pairs = list(itertools.combinations(range(len(partition)), 2))
        dists = [oracle_ward_dist(partition[a], partition[b], X) for a, b in pairs]
        lo = min(dists)
        for (a, b), dv in zip(pairs, dists):
            if dv <= lo + 1e-12:
                merged = [p for t, p in enumerate(partition) if t not in (a, b)]
                merged.append(partition[a] | partition[b])
                recurse(merged)

    recurse([frozenset([i]) for i in range(len(X))])
    return outcomes


def _reference_agglomerative(X, k):
    """Ward merging from singletons until k clusters are left, with the
    same arithmetic and lowest-(i, j) tie-break as ``agglomerative``."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    owner = np.arange(n)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    centroids = X.copy()
    D = 0.5 * _sq_dists(X, X)
    D[np.tri(n, dtype=bool)] = np.inf
    for _ in range(n - k):
        i, j = divmod(int(np.argmin(D)), n)
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


def _reference_kmeans(X, k, seed):
    """k-means with every distance pass computing X's row norms afresh
    through ``_sq_dists`` and empty clusters reseeded in a pass of
    their own after the means: the loop ``kmeans`` replaced, returning
    (centroids, labels, sse, iterations)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = derive_rng(seed, "kmeans++")
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(X, X[chosen])[:, 0]
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_dists(X, X[[idx]])[:, 0])
    centroids = X[chosen].copy()

    def assign(c):
        d2 = _sq_dists(X, c)
        labels = np.argmin(d2, axis=1)
        dmin = d2[np.arange(n), labels]
        return labels, dmin, float(dmin.sum())

    iterations = 0
    for _ in range(clustering._KMEANS_MAX_ITER):
        labels, dmin, _ = assign(centroids)
        new_centroids = centroids.copy()
        for cid in range(k):
            members = labels == cid
            if members.any():
                new_centroids[cid] = X[members].mean(axis=0)
        # Each empty cluster takes the row then farthest from its
        # centroid; a row is spent once per pass.
        spent = dmin.copy()
        for cid in np.flatnonzero(np.bincount(labels, minlength=k) == 0):
            far = int(np.argmax(spent))
            new_centroids[cid] = X[far]
            spent[far] = -1.0
        iterations += 1
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < clustering._KMEANS_TOL:
            break
    labels, _, sse = assign(centroids)
    return centroids, labels, sse, iterations


def _reference_birch(X, k, threshold=0.05, branching=50):
    """BIRCH rebuilding its CF tree and leaf hierarchy for one k: the
    function ``birch`` and ``birch_cut`` replaced."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    clustering._check_k(k, n)
    radius = float(np.sqrt(_sq_dists(X, X.mean(axis=0)[None, :])).max())
    root = _CFNode(leaf=True)
    for row in X:
        split = _insert_cf(root, _CF.of_point(row), threshold * radius, branching)
        if split is not None:
            root = _CFNode(leaf=False)
            root.entries = list(split)
    entries = _leaf_entries(root)
    if k > len(entries):
        raise ClusterError(f"k={k} exceeds the {len(entries)} leaf entries the CF tree produced")
    centroids = np.array([e.centroid() for e in entries])
    grouping = cut(agglomerative(centroids), k)
    final = np.zeros((k, X.shape[1]))
    np.add.at(final, grouping, np.array([e.ls for e in entries]))
    weights = np.bincount(grouping, weights=[e.n for e in entries], minlength=k)
    final /= weights[:, None]
    raw = assign_clusters_batch(X, final)
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _birch(X, threshold, branching=clustering._BIRCH_BRANCHING):
    """``birch`` with its leaf threshold and branching factor patched."""
    with mock.patch.multiple(
        clustering, _BIRCH_THRESHOLD=threshold, _BIRCH_BRANCHING=branching
    ):
        return birch(X)


def _dbscan(X, eps, min_pts):
    """``dbscan`` of X's exact distances, with its core neighbour count
    patched."""
    with mock.patch.object(clustering, "_DBSCAN_MIN_PTS", min_pts):
        return dbscan(exact_distances(X), eps)


def _drawn_matrix(kind, n, d, seed):
    """Normal data, a 3-value integer grid full of ties, or normal rows
    each repeated: the shapes the reference properties draw from."""
    rng = np.random.default_rng(seed)
    if kind == "grid":
        return rng.integers(0, 3, (n, d)).astype(float)
    if kind == "duplicates":
        distinct = rng.normal(0, 3, (max(1, n // 3), d))
        return distinct[rng.integers(0, distinct.shape[0], n)]
    return rng.normal(0, 3, (n, d))


def oracle_dbscan_cores(X, eps, min_pts):
    n = len(X)

    def dist(a, b):
        return math.sqrt(sum((X[a][j] - X[b][j]) ** 2 for j in range(len(X[0]))))

    neighbors = [{j for j in range(n) if dist(i, j) <= eps} for i in range(n)]
    cores = {i for i in range(n) if len(neighbors[i]) >= min_pts}
    comps = []
    seen = set()
    for c in sorted(cores):
        if c in seen:
            continue
        comp = {c}
        frontier = [c]
        while frontier:
            p = frontier.pop()
            for q in neighbors[p] & cores:
                if q not in comp:
                    comp.add(q)
                    frontier.append(q)
        seen |= comp
        comps.append(frozenset(comp))
    reachable = set().union(*(neighbors[c] for c in cores)) if cores else set()
    noise = set(range(n)) - set().union(*comps, set()) - reachable
    return comps, cores, noise


def _reference_dbscan(X, eps, min_pts):
    """DBSCAN as a depth-first stack search over core rows, then one
    loop over the border rows."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    dist = np.sqrt(_sq_dists(X, X))
    within = dist <= eps
    core = within.sum(axis=1) >= min_pts
    core_idx = np.flatnonzero(core)

    labels = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for start in core_idx:
        if labels[start] != -1:
            continue
        stack = [int(start)]
        labels[start] = next_id
        while stack:
            p = stack.pop()
            for q in np.flatnonzero(within[p] & core):
                if labels[q] == -1:
                    labels[q] = next_id
                    stack.append(int(q))
        next_id += 1

    if core_idx.size:
        border = np.flatnonzero(~core & within[:, core_idx].any(axis=1))
        for p in border:
            cands = dist[p, core_idx]
            reach = cands <= eps
            best = core_idx[reach][int(np.argmin(cands[reach]))]
            labels[p] = labels[best]

    return labels


def partition_of(labels):
    groups = defaultdict(set)
    for i, lab in enumerate(labels.tolist()):
        if lab != -1:
            groups[lab].add(i)
    return frozenset(frozenset(g) for g in groups.values())


def oracle_sse(X, centroids, labels):
    return sum(float(((X[i] - centroids[lab]) ** 2).sum()) for i, lab in enumerate(labels))


FOUR_POINTS = np.array([[0.0], [1.0], [10.0], [11.0]])
AABB = np.array([0, 0, 1, 1])


def two_blob_matrix(seed, sigma=0.1, per=30, centers=((0.0, 0.0), (10.0, 10.0))):
    rng = np.random.default_rng(seed)
    blocks = [np.asarray(c) + rng.normal(0, sigma, (per, len(c))) for c in centers]
    return np.vstack(blocks)


# --- k-means ----------------------------------------------------------------


def test_kmeans_two_copies_exact():
    X = np.vstack([np.tile([0.0, 0.0], (5, 1)), np.tile([10.0, 10.0], (5, 1))])
    model, assign = kmeans(X, 2, seed=0)
    got = {tuple(c) for c in model.centroids}
    assert got == {(0.0, 0.0), (10.0, 10.0)}
    assert model.sse == 0.0
    assert len(set(assign[:5].tolist())) == 1 and len(set(assign[5:].tolist())) == 1


def test_kmeans_k1_is_column_mean():
    X = np.array([[1.0, 5.0], [3.0, 1.0], [5.0, 0.0]])
    model, assign = kmeans(X, 1, seed=3)
    assert np.allclose(model.centroids[0], X.mean(axis=0))
    assert model.sse == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())
    assert assign.tolist() == [0, 0, 0]


def test_kmeans_k_equals_n():
    X = np.array([[0.0], [5.0], [9.0], [14.0]])
    model, _ = kmeans(X, 4, seed=11)
    assert model.sse == pytest.approx(0.0, abs=1e-12)


def test_kmeans_blob_recovery_ten_seeds():
    for seed in range(10):
        X = two_blob_matrix(seed)
        model, labels = kmeans(X, 2, seed=seed)
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]
        for center in ((0.0, 0.0), (10.0, 10.0)):
            nearest = np.sqrt(((model.centroids - center) ** 2).sum(axis=1)).min()
            assert nearest < 0.1


def test_kmeans_determinism():
    X = two_blob_matrix(4)
    m1, a1 = kmeans(X, 3, seed=123)
    m2, a2 = kmeans(X, 3, seed=123)
    assert np.array_equal(m1.centroids, m2.centroids)
    assert np.array_equal(a1, a2)
    assert m1.sse == m2.sse


@given(
    n=st.integers(min_value=2, max_value=24),
    d=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_kmeans_postconditions_fuzz(n, d, k, seed):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 3, (n, d))
    model, labels = kmeans(X, k, seed=seed)  # internal monotone check armed
    assert labels.min() >= 0 and labels.max() < k
    recomputed = oracle_sse(X, model.centroids, labels)
    assert model.sse == pytest.approx(recomputed, rel=1e-9, abs=1e-12)
    # Every point sits with its nearest centroid (ties allowed).
    d2 = ((X[:, None, :] - model.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.all(d2[np.arange(n), labels] <= d2.min(axis=1) + 1e-12)


@given(
    kind=st.sampled_from(["normal", "grid", "duplicates"]),
    n=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=4),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=120, deadline=None)
@example(kind="grid", n=30, d=1, k_frac=0.2, seed=0)  # 30 rows on 3 values
@example(kind="duplicates", n=12, d=2, k_frac=1.0, seed=1)  # k = n over 4 rows
def test_kmeans_matches_reference(kind, n, d, k_frac, seed):
    X = _drawn_matrix(kind, n, d, seed)
    k = 1 + int(k_frac * (n - 1))
    model, labels = kmeans(X, k, seed=seed)
    centroids, ref_labels, sse, iterations = _reference_kmeans(X, k, seed)
    assert np.array_equal(model.centroids, centroids)
    assert np.array_equal(labels, ref_labels)
    # The fold loop routes training rows by these labels, not by a second pass.
    assert np.array_equal(labels, assign_clusters_batch(X, model.centroids))
    assert model.sse == sse
    assert model.iterations == iterations


def test_kmeans_errors():
    X = np.zeros((3, 2))
    with pytest.raises(ClusterError):
        kmeans(X, 0, seed=1)
    with pytest.raises(ClusterError):
        kmeans(X, 4, seed=1)
    with pytest.raises(ClusterError):
        kmeans(np.array([[np.nan, 0.0]]), 1, seed=1)


# --- SSE curve ---------------------------------------------------------------


def test_sse_curve_elbow_at_two():
    X = two_blob_matrix(7)
    curve = dict(sse_curve(X, range(1, 6), seed=7))
    assert curve[2] < curve[1] / 50
    for k in (2, 3, 4, 5):
        assert curve[k] < 3.0  # both blobs captured, only noise left


def test_sse_curve_non_increasing_on_fixture():
    X = two_blob_matrix(13)
    values = [sse for _, sse in sse_curve(X, range(1, 7), seed=13)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_sse_curve_repeated_point():
    X = np.tile([2.0, 4.0], (6, 1))
    for _, sse in sse_curve(X, [1, 2, 3], seed=0):
        assert sse == 0.0


def test_sse_curve_single_k():
    X = two_blob_matrix(2)
    curve = sse_curve(X, [1], seed=5)
    assert len(curve) == 1 and curve[0][0] == 1


# --- agglomerative -----------------------------------------------------------


def test_agglomerative_worked_example():
    target = frozenset({frozenset({0, 1}), frozenset({2, 3})})
    outcomes = oracle_merge_outcomes(FOUR_POINTS.tolist(), 2)
    assert outcomes == {target}  # oracle: unique under every tie order
    assign = cut(agglomerative(FOUR_POINTS), 2)
    assert partition_of(assign) == target


def test_agglomerative_matches_merge_oracle():
    rng = np.random.default_rng(42)
    grid_rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(1, n + 1))
        X = rng.normal(0, 2, (n, int(rng.integers(1, 4))))
        # Points on an integer grid give many equal merge distances.
        grid = grid_rng.integers(0, 3, X.shape).astype(float)
        for Z in (X, grid):
            assign = cut(agglomerative(Z), k)
            assert partition_of(assign) in oracle_merge_outcomes(Z.tolist(), k)
            assert list(dict.fromkeys(assign.tolist())) == list(range(k))  # ids by first row


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_agglomerative_trivial_partitions(n, seed):
    X = np.random.default_rng(seed).normal(0, 1, (n, 2))
    one = cut(agglomerative(X), 1)
    assert set(one.tolist()) == {0}
    singles = cut(agglomerative(X), n)
    assert sorted(set(singles.tolist())) == list(range(n))


def test_agglomerative_label_order_is_by_first_row():
    X = np.array([[10.0], [10.5], [0.0], [0.5]])
    assign = cut(agglomerative(X), 2)
    assert assign.tolist() == [0, 0, 1, 1]  # cluster 0 owns row 0


def test_agglomerative_errors():
    X = np.zeros((3, 1))
    with pytest.raises(ClusterError):
        cut(agglomerative(X), 4)


@given(
    n=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=3),
    grid=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=80, deadline=None)
@example(n=1, d=1, grid=False, seed=0)
@example(n=30, d=1, grid=True, seed=0)  # 30 points on 3 values: ties everywhere
def test_cut_matches_per_k_reference(n, d, grid, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, (n, d)).astype(float) if grid else rng.normal(0, 3, (n, d))
    merges = agglomerative(X)
    assert merges.shape == (n - 1, 2)
    assert (merges[:, 0] < merges[:, 1]).all()
    for k in range(1, n + 1):
        assert np.array_equal(cut(merges, k), _reference_agglomerative(X, k))


# --- BIRCH -------------------------------------------------------------------


def test_birch_worked_example():
    assign = birch_cut(_birch(FOUR_POINTS, threshold=0.6), 2)
    assert partition_of(assign) == frozenset({frozenset({0, 1}), frozenset({2, 3})})


def test_birch_single_cluster_with_huge_threshold():
    assign = birch_cut(_birch(FOUR_POINTS, threshold=10.0), 1)
    assert assign.tolist() == [0, 0, 0, 0]


def test_birch_singletons_with_tiny_threshold():
    assign = birch_cut(_birch(FOUR_POINTS, threshold=1e-6), 4)
    assert sorted(set(assign.tolist())) == [0, 1, 2, 3]


def test_birch_k_exceeds_entries():
    X = np.vstack([np.tile([0.0], (5, 1)), np.tile([50.0], (5, 1))])
    tree = _birch(X, threshold=0.9)  # big radius: only 2 entries survive
    with pytest.raises(ClusterError, match="leaf entries"):
        birch_cut(tree, 3)


def test_birch_blobs_with_node_splits():
    X = two_blob_matrix(21, per=100)
    labels = birch_cut(_birch(X, threshold=0.01, branching=4), 2)  # force many splits
    assert len(set(labels[:100])) == 1
    assert len(set(labels[100:])) == 1
    assert labels[0] != labels[100]


def test_birch_default_threshold_separates_blobs():
    X = two_blob_matrix(8)
    labels = birch_cut(birch(X), 2)
    assert len(set(labels[:30])) == 1 and labels[0] != labels[30]


@given(
    n=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=6),
    threshold=st.sampled_from([1e-6, 0.05, 0.3]),
    grid=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_birch_label_order_is_by_first_row(n, d, k, threshold, grid, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, (n, d)).astype(float) if grid else rng.normal(0, 3, (n, d))
    try:
        assign = birch_cut(_birch(X, threshold=threshold, branching=3), min(k, n))
    except ClusterError as exc:
        assert "leaf entries" in str(exc)
        return
    assert list(dict.fromkeys(assign.tolist())) == list(range(assign.max() + 1))


@given(
    kind=st.sampled_from(["normal", "grid", "duplicates"]),
    n=st.integers(min_value=1, max_value=30),
    d=st.integers(min_value=1, max_value=3),
    threshold=st.sampled_from([1e-6, 0.05, 0.3]),
    branching=st.sampled_from([3, 50]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=80, deadline=None)
@example(kind="normal", n=30, d=2, threshold=1e-6, branching=3, seed=0)  # node splits
def test_birch_cut_matches_per_k_reference(kind, n, d, threshold, branching, seed):
    X = _drawn_matrix(kind, n, d, seed)
    tree = _birch(X, threshold, branching)
    for k in range(1, n + 2):
        try:
            expected = _reference_birch(X, k, threshold, branching)
        except ClusterError as exc:
            with pytest.raises(ClusterError) as got:
                birch_cut(tree, k)
            assert str(got.value) == str(exc)
            continue
        assert np.array_equal(birch_cut(tree, k), expected)


def test_birch_errors():
    tree = _birch(FOUR_POINTS, threshold=1e-6)
    for k in (0, 5):
        with pytest.raises(ClusterError, match="1 <= k <= n"):
            birch_cut(tree, k)


# --- DBSCAN ------------------------------------------------------------------


def test_dbscan_line_is_one_cluster():
    X = np.array([[0.0], [1.0], [2.0]])
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.5, 2)
    assert comps == [frozenset({0, 1, 2})] and not noise
    assign = _dbscan(X, eps=1.5, min_pts=2)
    assert assign.tolist() == [0, 0, 0]
    assert assign.max() + 1 == 1


def test_dbscan_outlier_is_noise():
    X = np.array([[0.0], [1.0], [2.0], [100.0]])
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.5, 2)
    assert noise == {3}
    assign = _dbscan(X, eps=1.5, min_pts=2)
    assert assign.tolist() == [0, 0, 0, -1]


def test_dbscan_all_noise():
    X = np.array([[0.0], [10.0], [20.0]])
    assign = _dbscan(X, eps=1.0, min_pts=2)
    assert assign.tolist() == [-1, -1, -1]
    assert assign.max() + 1 == 0


def test_dbscan_border_attaches_to_core_cluster():
    X = np.array([[0.0], [1.0], [2.0]])
    # Only the middle point is core; ends are border.
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.1, 3)
    assert cores == {1} and not noise
    assign = _dbscan(X, eps=1.1, min_pts=3)
    assert assign.tolist() == [0, 0, 0]


def test_dbscan_ids_follow_first_core_row():
    X = np.array([[50.0], [51.0], [0.0], [1.0]])
    assign = _dbscan(X, eps=1.5, min_pts=2)
    assert assign.tolist() == [0, 0, 1, 1]


def test_dbscan_two_islands_match_oracle():
    rng = np.random.default_rng(17)
    X = np.vstack([rng.normal(0, 0.3, (12, 2)), rng.normal(8, 0.3, (9, 2)), [[100.0, 100.0]]])
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.0, 4)
    assign = _dbscan(X, eps=1.0, min_pts=4)
    assert partition_of(assign) == frozenset(
        frozenset(c | {i for i in range(len(X)) if assign[i] == assign[min(c)]})
        for c in comps
    )
    assert {i for i, lab in enumerate(assign.tolist()) if lab == -1} == noise


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=40, deadline=None)
def test_dbscan_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 0.5, (10, 2)), rng.normal(6, 0.5, (8, 2)),
                   rng.uniform(-20, 20, (4, 2))])
    perm = rng.permutation(len(X))
    base = _dbscan(X, eps=1.2, min_pts=3)
    shuffled = _dbscan(X[perm], eps=1.2, min_pts=3)
    unshuffled = [None] * len(X)
    for pos, orig in enumerate(perm):
        unshuffled[orig] = int(shuffled[pos])

    def canonical(labels):
        remap, out = {}, []
        for lab in labels:
            if lab == -1:
                out.append(-1)
                continue
            if lab not in remap:
                remap[lab] = len(remap)
            out.append(remap[lab])
        return out

    assert canonical(base.tolist()) == canonical(unshuffled)


@st.composite
def _dbscan_problems(draw):
    min_pts = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # Integer grid, eps one of its short distances: ties everywhere,
        # several clusters, and border rows equidistant from two cores.
        n = draw(st.integers(1, 60))
        d = draw(st.integers(1, 2))
        X = rng.integers(0, 9, (n, d)).astype(float)
        eps = math.sqrt(draw(st.integers(1, 2 * d)))
    else:
        # Shuffled line: the search runs up to n levels deep.
        n = draw(st.integers(1, 60))
        X = rng.permutation(n).astype(float)[:, None]
        eps = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return X, eps, min_pts


@settings(max_examples=200, deadline=None)
@given(_dbscan_problems())
# Row 3 is a border row at distance 1 from the cores of two clusters.
@example((np.array([[0.0], [0.0], [1.0], [2.0], [3.0], [4.0], [4.0]]), 1.0, 4))
def test_dbscan_matches_reference(problem):
    X, eps, min_pts = problem
    got = _dbscan(X, eps, min_pts)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_dbscan(X, eps, min_pts))


def test_dbscan_errors():
    dist = exact_distances(FOUR_POINTS)
    with pytest.raises(ClusterError, match="eps"):
        dbscan(dist, eps=0.0)
    with pytest.raises(ClusterError, match="square"):
        dbscan(dist[:, :3], eps=1.0)
    # A feature matrix is not a distance matrix.
    with pytest.raises(ClusterError, match="square"):
        dbscan(np.zeros((4, 2)), eps=1.0)
    with pytest.raises(ClusterError, match="non-empty 2-D"):
        dbscan(np.zeros((0, 0)), eps=1.0)
    with pytest.raises(ClusterError, match="non-empty 2-D"):
        dbscan(dist[0], eps=1.0)
    dist[1, 2] = np.nan
    with pytest.raises(ClusterError, match="NaN"):
        dbscan(dist, eps=1.0)


@pytest.mark.parametrize("quantile", [0.05, 0.25])
def test_dbscan_memory_stays_below_2_25_bytes_per_cell(quantile):
    # Given the matrix, dbscan allocates boolean masks and no float copy
    # of it, and the search's core×core mask is gone before the border
    # step.  Poisson counts from four rate profiles, as the benchmark's
    # mixture draws them; eps at the 5% distance quantile leaves clusters,
    # border rows and noise, and at 25% every row is core, so the
    # core×core mask is a second n×n one.  The search reads that mask in
    # row chunks, never copying a whole frontier's rows.
    n = 2_000
    rng = np.random.default_rng(5)
    rates = rng.gamma(1.0, 50.0, size=(4, 256))
    scale = rng.gamma(5.0, 0.2, size=n)
    X = rng.poisson(rates[np.arange(n) % 4] * scale[:, None]).astype(float)
    dist = exact_distances(X)
    eps = float(np.quantile(dist, quantile))
    tracemalloc.start()
    try:
        labels = dbscan(dist, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if quantile == 0.05:
        assert labels.max() >= 1 and (labels == -1).any()
    else:
        assert (labels == 0).all()
    assert peak < 2.25 * dist.size


# --- GMM ---------------------------------------------------------------------


def _reference_gmm(X, k, seed):
    """The mixture ``gmm`` replaced: first parameters from each k-means
    cluster's moments (an empty cluster alive at weight 1/n, with the
    data's moments), then E-step, convergence test and M-step per
    pass, and one more E-step when the passes run out.  Returns
    (weights, means, variances, log likelihood, labels)."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    floor = clustering._GMM_VAR_FLOOR
    _, init_labels = kmeans(X, k, seed)
    means = np.empty((k, d))
    variances = np.empty((k, d))
    weights = np.empty(k)
    global_var = np.maximum(X.var(axis=0), floor)
    for j in range(k):
        rows = X[init_labels == j]
        if rows.shape[0] == 0:
            means[j] = X.mean(axis=0)
            variances[j] = global_var
            weights[j] = 1.0 / n
        else:
            means[j] = rows.mean(axis=0)
            variances[j] = np.maximum(rows.var(axis=0), floor)
            weights[j] = rows.shape[0] / n
    weights /= weights.sum()

    def e_step():
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        log_prob = _log_gaussian(X, means, variances) + log_w[None, :]
        row_max = log_prob.max(axis=1, keepdims=True)
        lse = row_max[:, 0] + np.log(np.exp(log_prob - row_max).sum(axis=1))
        return float(lse.sum()), np.exp(log_prob - lse[:, None])

    prev_ll = -math.inf
    for _ in range(clustering._GMM_MAX_ITER):
        ll, resp = e_step()
        converged = prev_ll != -math.inf and ll - prev_ll < clustering._GMM_TOL
        prev_ll = ll
        if converged:
            break
        mass = resp.sum(axis=0)
        for j in range(k):
            if mass[j] < 1e-12:
                continue
            means[j] = resp[:, j] @ X / mass[j]
            gap = X - means[j]
            variances[j] = np.maximum(resp[:, j] @ (gap * gap) / mass[j], floor)
        weights = np.maximum(mass / n, 0.0)
        weights /= weights.sum()
    else:
        prev_ll, resp = e_step()
    return weights, means, variances, prev_ll, np.argmax(resp, axis=1)


def _gmm_mixture(kind, seed, n=400):
    """n rows of a two-blob, four-blob or Poisson-count mixture."""
    if kind == "two_blob":
        return two_blob_matrix(seed, sigma=1.5, per=n // 2)
    if kind == "four_blob":
        centers = ((0.0, 0.0, 0.0), (6.0, 0.0, 2.0), (0.0, 6.0, 4.0), (6.0, 6.0, 6.0))
        return two_blob_matrix(seed, sigma=1.0, per=n // 4, centers=centers)
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.5, 20.0, (3, 6))
    return rng.poisson(rates[rng.integers(0, 3, n)]).astype(np.float64)


def _standardized(X):
    std = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0)


@pytest.mark.parametrize("kind", ["two_blob", "four_blob", "poisson"])
@pytest.mark.parametrize("standardize", [False, True])
def test_gmm_matches_reference(kind, standardize):
    X = _gmm_mixture(kind, seed=5)
    if standardize:
        X = _standardized(X)
    # No k-means partition of these inputs has an empty cluster, the one
    # case where the two starts differ.
    for k in (2, 3, 4, 5):
        seed = derive_seed(1, "compare", "gmm", str(k))
        model, labels = gmm(X, k, seed)
        weights, means, variances, ll, ref_labels = _reference_gmm(X, k, seed)
        assert np.array_equal(labels, ref_labels)
        assert np.allclose(model.weights, weights, rtol=1e-9, atol=1e-12)
        assert np.allclose(model.means, means, rtol=1e-9, atol=1e-9)
        assert np.allclose(model.variances, variances, rtol=1e-9, atol=1e-12)
        assert model.log_likelihood == pytest.approx(ll, rel=1e-12)


@pytest.mark.parametrize("max_iter", [0, 1, 2, clustering._GMM_MAX_ITER])
@pytest.mark.parametrize("kind", ["four_blob", "poisson"])
def test_gmm_result_describes_returned_parameters(monkeypatch, max_iter, kind):
    monkeypatch.setattr(clustering, "_GMM_MAX_ITER", max_iter)
    X = _gmm_mixture(kind, seed=9)
    model, labels = gmm(X, 4, seed=3)
    with np.errstate(divide="ignore"):
        log_w = np.log(model.weights)
    log_prob = _log_gaussian(X, model.means, model.variances) + log_w[None, :]
    row_max = log_prob.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.exp(log_prob - row_max).sum(axis=1))
    assert model.log_likelihood == pytest.approx(float(lse.sum()), rel=1e-12)
    assert np.array_equal(labels, np.argmax(log_prob, axis=1))


def test_gmm_empty_kmeans_cluster_starts_dead():
    X = np.tile([3.0, 7.0], (10, 1))
    assert np.bincount(kmeans(X, 2, seed=5)[1], minlength=2).tolist() == [10, 0]
    model, labels = gmm(X, 2, seed=5)
    assert model.weights.tolist() == [1.0, 0.0]
    assert np.array_equal(model.means[1], X.mean(axis=0))
    assert np.all(model.variances[1] == clustering._GMM_VAR_FLOOR)
    assert (labels == 0).all()


def test_gmm_two_separated_blobs():
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(0, 0.5, (40, 2)), rng.normal(100, 0.5, (40, 2))])
    model, labels = gmm(X, 2, seed=7)
    order = np.argsort(model.means[:, 0])
    assert np.abs(model.means[order[0]] - 0.0).max() < 0.2
    assert np.abs(model.means[order[1]] - 100.0).max() < 0.2
    assert len(set(labels[:40])) == 1 and labels[0] != labels[40]
    # Responsibilities are essentially hard at this separation.
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(model.variances >= 1e-6)


def test_gmm_k1_matches_moments():
    X = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    model, assign = gmm(X, 1, seed=0)
    assert np.allclose(model.means[0], X.mean(axis=0))
    assert np.allclose(model.variances[0], X.var(axis=0))
    assert model.weights[0] == 1.0
    assert set(assign.tolist()) == {0}


def test_gmm_repeated_points_hit_floor():
    X = np.tile([3.0, 7.0], (10, 1))
    model, assign = gmm(X, 2, seed=5)
    assert np.all(model.variances == 1e-6)
    assert np.isfinite(model.means).all()
    assert np.isfinite(model.log_likelihood)


def test_gmm_determinism_and_ll_finite():
    X = two_blob_matrix(9)
    m1, a1 = gmm(X, 2, seed=42)
    m2, a2 = gmm(X, 2, seed=42)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(a1, a2)
    assert math.isfinite(m1.log_likelihood)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_gmm_ll_monotone_fuzz(seed):
    # The EM loop raises internally if the log likelihood ever drops.
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 2, (int(rng.integers(4, 20)), int(rng.integers(1, 4))))
    k = int(rng.integers(1, 4))
    model, assign = gmm(X, min(k, len(X)), seed=seed)
    assert math.isfinite(model.log_likelihood)
    assert np.all(model.variances >= 1e-6 - 1e-18)


def test_gmm_errors():
    with pytest.raises(ClusterError):
        gmm(FOUR_POINTS, 5, seed=0)


# --- Validity indices ----------------------------------------------------------


def _reference_exact_dists(X, chunk=256):
    """The row-chunked form exact_distances replaced: chunk×n×d
    difference tensors, every entry computed independently."""
    n = X.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        gap = X[start:stop, None, :] - X[None, :, :]
        out[start:stop] = np.sqrt((gap * gap).sum(axis=2))
    return out


def test_ch_worked_example_exact():
    assert calinski_harabasz(FOUR_POINTS, AABB) == 200.0
    assert oracle_ch(FOUR_POINTS.tolist(), [0, 0, 1, 1]) == 200.0


def test_silhouette_worked_example():
    expected = ((9.5 / 10.5) + (8.5 / 9.5)) / 2  # hand-computed, symmetric
    assert expected == pytest.approx(0.89974937, abs=5e-9)
    assert silhouette(exact_distances(FOUR_POINTS), AABB) == pytest.approx(expected, rel=1e-12)


def test_ch_singleton_clusters_give_infinity():
    X = np.array([[0.0], [10.0]])
    pair = np.array([0, 1])
    with pytest.raises(ClusterError):
        calinski_harabasz(X, pair)  # n > k fails first: n = k = 2
    X3 = np.array([[0.0], [0.0], [10.0]])
    score = calinski_harabasz(X3, np.array([0, 0, 1]))
    assert score == math.inf


def test_ch_errors():
    with pytest.raises(ClusterError):
        calinski_harabasz(FOUR_POINTS, np.array([0, 0, 0, 0]))
    with pytest.raises(ClusterError):
        calinski_harabasz(FOUR_POINTS, np.array([0, 0, 1, -1]))


def test_ch_counts_non_empty_clusters():
    # k-means on identical rows leaves cluster 1 empty: one cluster found.
    same = np.ones((6, 3))
    model, assign = kmeans(same, 2, seed=0)
    assert model.centroids.shape[0] == 2 and set(assign.tolist()) == {0}
    with pytest.raises(ClusterError, match="k >= 2"):
        calinski_harabasz(same, assign)
    X = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]])
    gapped = np.array([0, 0, 2, 2, 2])
    assert calinski_harabasz(X, gapped) == oracle_ch(X.tolist(), gapped.tolist())


def test_silhouette_singleton_convention():
    X = np.array([[0.0], [10.0], [11.0]])
    got = silhouette(exact_distances(X), np.array([0, 1, 1]))
    assert got == pytest.approx(oracle_silhouette(X.tolist(), [0, 1, 1]), rel=1e-12)


def test_silhouette_excludes_noise():
    X = np.array([[0.0], [1.0], [10.0], [11.0], [500.0]])
    noisy = np.array([0, 0, 1, 1, -1])
    clean = silhouette(exact_distances(FOUR_POINTS), AABB)
    assert silhouette(exact_distances(X), noisy) == pytest.approx(clean, rel=1e-12)


def test_silhouette_errors():
    with pytest.raises(ClusterError):
        silhouette(exact_distances(FOUR_POINTS), np.array([0, 0, 0, 0]))
    X = np.array([[0.0], [5.0], [9.0]])
    with pytest.raises(ClusterError):
        silhouette(exact_distances(X), np.array([0, 1, 2]))  # all singletons


def test_partition_label_validation():
    noisy = np.array([0, 0, 1, 1, -1])
    X = np.vstack([FOUR_POINTS, [[500.0]]])
    for index, data in (
        (calinski_harabasz, FOUR_POINTS),
        (silhouette, exact_distances(FOUR_POINTS)),
    ):
        with pytest.raises(ClusterError, match="shape"):
            index(data, np.array([0, 0, 1]))
        with pytest.raises(ClusterError, match="shape"):
            index(data, AABB[:, None])
        # Fractional or boolean labels are rejected, not truncated.
        with pytest.raises(ClusterError, match="integers"):
            index(data, np.array([0, 0.5, 1, 1]))
        with pytest.raises(ClusterError, match="integers"):
            index(data, AABB.astype(bool))
        # Several bad rows: the message names the first.
        with pytest.raises(ClusterError, match=r"^row 2: label -5 below -1$"):
            index(data, np.array([0, -1, -5, -2]))
        assert index(data, AABB.tolist()) == index(data, AABB)
    # -1 is noise: silhouette leaves it out, Calinski-Harabasz rejects it.
    assert silhouette(exact_distances(X), noisy) == silhouette(exact_distances(FOUR_POINTS), AABB)
    with pytest.raises(ClusterError, match="noise"):
        calinski_harabasz(X, noisy)


def test_silhouette_rejects_misshapen_dist():
    X = np.array([[0.0], [1.0], [10.0], [11.0], [500.0]])
    noisy = np.array([0, 0, 1, 1, -1])
    dist = exact_distances(X)
    with pytest.raises(ClusterError, match="square"):
        silhouette(dist[:, :4], noisy)
    with pytest.raises(ClusterError, match="square"):
        silhouette(X, noisy)  # a feature matrix is not a distance matrix
    with pytest.raises(ClusterError, match="non-empty 2-D"):
        silhouette(np.zeros((0, 0)), noisy[:0])
    # The matrix covers the rows before the noise filter, not after it.
    with pytest.raises(ClusterError, match="shape"):
        silhouette(exact_distances(X[:4]), noisy)
    dist[4, 0] = np.inf
    with pytest.raises(ClusterError, match="infinity"):
        silhouette(dist, noisy)


def test_silhouette_ignores_noise_rows_and_matches_oracle():
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 12))
        X = rng.integers(0, 3, (n, d)).astype(float) if trial % 2 else rng.normal(0, 5, (n, d))
        k = int(rng.integers(2, 6))
        labels = rng.integers(-1 if trial % 3 == 0 else 0, k, size=n)
        present = sorted(set(labels.tolist()) - {-1})
        if len(present) < 2:
            continue
        remap = {c: i for i, c in enumerate(present)}
        assign = np.array([remap.get(int(v), -1) for v in labels])
        try:
            want = silhouette(exact_distances(X), assign)
        except ClusterError:
            continue
        keep = labels != -1
        # Noise rows change nothing.
        assert silhouette(exact_distances(X[keep]), assign[keep]) == want
        if keep.all():
            assert want == pytest.approx(
                oracle_silhouette(X.tolist(), assign.tolist()), rel=1e-9, abs=1e-12
            )


@st.composite
def _distance_problems(draw):
    n = draw(st.integers(1, 70))
    d = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        X = rng.normal(0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (n, d))
        jitter = [-1e-9, 0.0, 1e-9]
    else:
        # Signed integers, the largest magnitude present: at the Gram
        # path's bound it is taken, one above it is not.
        limit = math.isqrt(2**53 // (4 * d))
        top = draw(st.sampled_from([1, 3, 1000, limit, limit + 1]))
        X = rng.integers(-top, top + 1, (n, d)).astype(float)
        X[rng.integers(n), rng.integers(d)] = draw(st.sampled_from([top, -top]))
        jitter = [0.0]
    if n > 1 and draw(st.booleans()):
        # Near-coincident rows, where the expanded form cancels badly, or
        # duplicate integer rows.
        twins = rng.integers(0, n, size=n // 2 + 1)
        X[twins] = X[0] + rng.choice(jitter, size=(twins.size, d))
    # A small tile (its tile²·d element budget) or the default one.
    tile = draw(st.one_of(st.none(), st.integers(1, 9)))
    return X, clustering._TILE_ELEMENTS if tile is None else tile * tile * d


@settings(max_examples=150, deadline=None)
@given(_distance_problems())
def test_exact_distances_match_reference_bit_for_bit(problem):
    X, budget = problem
    with mock.patch.object(clustering, "_TILE_ELEMENTS", budget):
        got = exact_distances(X)
    assert np.array_equal(got, _reference_exact_dists(X))
    assert np.array_equal(got, got.T)
    assert not got.diagonal().any()


@pytest.mark.parametrize("n, d", [(0, 4), (3, 0), (5, 1), (40, 256)])
def test_exact_distances_takes_the_gram_product_only_within_the_bound(n, d):
    # The tile loop reads _TILE_ELEMENTS and fails on None, so a call that
    # returns took the Gram product.
    limit = math.isqrt(2**53 // (4 * max(d, 1)))
    X = np.random.default_rng(n).integers(-limit, limit + 1, (n, d)).astype(float)
    X[:, :1] = -limit
    with mock.patch.object(clustering, "_TILE_ELEMENTS", None):
        assert np.array_equal(exact_distances(X), _reference_exact_dists(X))
        if X.size:
            above = np.where(X == -limit, -limit - 1.0, X)
            for outside in (X + 0.5, above, np.where(X == -limit, np.nan, X)):
                with pytest.raises(TypeError):
                    exact_distances(outside)


@pytest.mark.parametrize("standardize", [False, True])
def test_exact_distances_memory_stays_below_8_5_bytes_per_cell(standardize):
    # The Gram product scales and shifts its one n×n output in place; the
    # tile loop adds only a cache-sized block.  Poisson counts as the
    # benchmark's mixture draws them, raw or z-scored.
    n = 2_000
    rng = np.random.default_rng(5)
    rates = rng.gamma(1.0, 50.0, size=(4, 256))
    X = rng.poisson(rates[np.arange(n) % 4]).astype(float)
    if standardize:
        X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
    tracemalloc.start()
    try:
        dist = exact_distances(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * dist.size


def _random_partition(rng, n, k):
    while True:
        labels = rng.integers(0, k, size=n)
        if len(set(labels.tolist())) == k:
            return labels


def test_validity_indices_match_oracles_on_random_data():
    rng = np.random.default_rng(1234)
    for trial in range(100):
        n = int(rng.integers(6, 51))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(2, min(n - 1, 6) + 1))
        X = rng.normal(0, 5, (n, d))
        labels = _random_partition(rng, n, k)
        ch = calinski_harabasz(X, labels)
        ch_ref = oracle_ch(X.tolist(), labels.tolist())
        assert ch == pytest.approx(ch_ref, rel=1e-9)
        sil = silhouette(exact_distances(X), labels)
        sil_ref = oracle_silhouette(X.tolist(), labels.tolist())
        assert sil == pytest.approx(sil_ref, rel=1e-9, abs=1e-12)


# --- assign_clusters_batch -------------------------------------------------------


def test_assign_exact_centroid_and_tie():
    centroids = np.array([[0.0, 0.0], [4.0, 0.0]])
    points = np.array([[4.0, 0.0], [2.0, 0.0], [3.9, 0.1]])  # exact, equidistant tie, near
    assert assign_clusters_batch(points, centroids).tolist() == [1, 0, 1]


def test_assign_dimension_mismatch():
    centroids = np.array([[0.0, 0.0]])
    with pytest.raises(ClusterError):
        assign_clusters_batch(np.array([1.0, 2.0, 3.0]), centroids)
    with pytest.raises(ClusterError):
        assign_clusters_batch(np.zeros((2, 3)), centroids)


def test_assign_batch_matches_single():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 5, (40, 3))
    model, _ = kmeans(X, 4, seed=3)
    # A duplicated centroid puts its own probe row on an exact tie.
    tied = np.vstack([model.centroids, model.centroids[2]])
    probe = np.vstack([X, model.centroids])

    def nearest(row, centroids):
        best, best_d = 0, math.inf
        for c, centroid in enumerate(centroids.tolist()):
            d = sum((a - b) ** 2 for a, b in zip(row.tolist(), centroid))
            if d < best_d:  # strict: ties keep the lowest index
                best, best_d = c, d
        return best

    for centroids in (model.centroids, tied):
        singles = [nearest(row, centroids) for row in probe]
        assert assign_clusters_batch(probe, centroids).tolist() == singles
