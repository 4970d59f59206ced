"""Clustering fitters and validity indices.

Oracles here are written from the definitions with plain Python loops
and share no code with the library: direct-definition Calinski-Harabasz
and silhouette, an exhaustive merge-order explorer for ward
agglomeration, and a neighbor-count reachability oracle for DBSCAN.
``_reference_dbscan`` is the stack search and per-border loop that
``dbscan`` replaced; it shares the library's distance computation.
"""

import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from droidlens.clustering import (
    _sq_dists,
    agglomerative,
    assign_clusters_batch,
    birch,
    calinski_harabasz,
    dbscan,
    exact_distances,
    gmm,
    kmeans,
    silhouette,
    sse_curve,
)
from droidlens.errors import ClusterError

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
    assign = agglomerative(FOUR_POINTS, 2)
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
            assign = agglomerative(Z, k)
            assert partition_of(assign) in oracle_merge_outcomes(Z.tolist(), k)
            assert list(dict.fromkeys(assign.tolist())) == list(range(k))  # ids by first row


@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_agglomerative_trivial_partitions(n, seed):
    X = np.random.default_rng(seed).normal(0, 1, (n, 2))
    one = agglomerative(X, 1)
    assert set(one.tolist()) == {0}
    singles = agglomerative(X, n)
    assert sorted(set(singles.tolist())) == list(range(n))


def test_agglomerative_label_order_is_by_first_row():
    X = np.array([[10.0], [10.5], [0.0], [0.5]])
    assign = agglomerative(X, 2)
    assert assign.tolist() == [0, 0, 1, 1]  # cluster 0 owns row 0


def test_agglomerative_errors():
    X = np.zeros((3, 1))
    with pytest.raises(ClusterError):
        agglomerative(X, 4)


# --- BIRCH -------------------------------------------------------------------


def test_birch_worked_example():
    assign = birch(FOUR_POINTS, 2, threshold=0.6)
    assert partition_of(assign) == frozenset({frozenset({0, 1}), frozenset({2, 3})})


def test_birch_single_cluster_with_huge_threshold():
    assign = birch(FOUR_POINTS, 1, threshold=10.0)
    assert assign.tolist() == [0, 0, 0, 0]


def test_birch_singletons_with_tiny_threshold():
    assign = birch(FOUR_POINTS, 4, threshold=1e-6)
    assert sorted(set(assign.tolist())) == [0, 1, 2, 3]


def test_birch_k_exceeds_entries():
    X = np.vstack([np.tile([0.0], (5, 1)), np.tile([50.0], (5, 1))])
    with pytest.raises(ClusterError, match="leaf entries"):
        birch(X, 3, threshold=0.9)  # big radius: only 2 entries survive


def test_birch_blobs_with_node_splits():
    X = two_blob_matrix(21, per=100)
    labels = birch(X, 2, threshold=0.01, branching=4)  # force many splits
    assert len(set(labels[:100])) == 1
    assert len(set(labels[100:])) == 1
    assert labels[0] != labels[100]


def test_birch_default_threshold_separates_blobs():
    X = two_blob_matrix(8)
    labels = birch(X, 2)
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
        assign = birch(X, min(k, n), threshold=threshold, branching=3)
    except ClusterError as exc:
        assert "leaf entries" in str(exc)
        return
    assert list(dict.fromkeys(assign.tolist())) == list(range(assign.max() + 1))


def test_birch_errors():
    with pytest.raises(ClusterError):
        birch(FOUR_POINTS, 2, threshold=0.0)
    with pytest.raises(ClusterError):
        birch(FOUR_POINTS, 2, threshold=0.5, branching=1)


# --- DBSCAN ------------------------------------------------------------------


def test_dbscan_line_is_one_cluster():
    X = np.array([[0.0], [1.0], [2.0]])
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.5, 2)
    assert comps == [frozenset({0, 1, 2})] and not noise
    assign = dbscan(X, eps=1.5, min_pts=2)
    assert assign.tolist() == [0, 0, 0]
    assert assign.max() + 1 == 1


def test_dbscan_outlier_is_noise():
    X = np.array([[0.0], [1.0], [2.0], [100.0]])
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.5, 2)
    assert noise == {3}
    assign = dbscan(X, eps=1.5, min_pts=2)
    assert assign.tolist() == [0, 0, 0, -1]


def test_dbscan_all_noise():
    X = np.array([[0.0], [10.0], [20.0]])
    assign = dbscan(X, eps=1.0, min_pts=2)
    assert assign.tolist() == [-1, -1, -1]
    assert assign.max() + 1 == 0


def test_dbscan_border_attaches_to_core_cluster():
    X = np.array([[0.0], [1.0], [2.0]])
    # Only the middle point is core; ends are border.
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.1, 3)
    assert cores == {1} and not noise
    assign = dbscan(X, eps=1.1, min_pts=3)
    assert assign.tolist() == [0, 0, 0]


def test_dbscan_ids_follow_first_core_row():
    X = np.array([[50.0], [51.0], [0.0], [1.0]])
    assign = dbscan(X, eps=1.5, min_pts=2)
    assert assign.tolist() == [0, 0, 1, 1]


def test_dbscan_two_islands_match_oracle():
    rng = np.random.default_rng(17)
    X = np.vstack([rng.normal(0, 0.3, (12, 2)), rng.normal(8, 0.3, (9, 2)), [[100.0, 100.0]]])
    comps, cores, noise = oracle_dbscan_cores(X.tolist(), 1.0, 4)
    assign = dbscan(X, eps=1.0, min_pts=4)
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
    base = dbscan(X, eps=1.2, min_pts=3)
    shuffled = dbscan(X[perm], eps=1.2, min_pts=3)
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
    got = dbscan(X, eps, min_pts)
    assert got.dtype == np.int64
    assert np.array_equal(got, _reference_dbscan(X, eps, min_pts))


def test_dbscan_errors():
    with pytest.raises(ClusterError):
        dbscan(FOUR_POINTS, eps=0.0)
    with pytest.raises(ClusterError):
        dbscan(FOUR_POINTS, eps=1.0, min_pts=0)


# --- GMM ---------------------------------------------------------------------


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
    assert silhouette(FOUR_POINTS, AABB) == pytest.approx(expected, rel=1e-12)


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
    got = silhouette(X, np.array([0, 1, 1]))
    assert got == pytest.approx(oracle_silhouette(X.tolist(), [0, 1, 1]), rel=1e-12)


def test_silhouette_excludes_noise():
    X = np.array([[0.0], [1.0], [10.0], [11.0], [500.0]])
    noisy = np.array([0, 0, 1, 1, -1])
    clean = silhouette(FOUR_POINTS, AABB)
    assert silhouette(X, noisy) == pytest.approx(clean, rel=1e-12)


def test_silhouette_errors():
    with pytest.raises(ClusterError):
        silhouette(FOUR_POINTS, np.array([0, 0, 0, 0]))
    X = np.array([[0.0], [5.0], [9.0]])
    with pytest.raises(ClusterError):
        silhouette(X, np.array([0, 1, 2]))  # all singletons


def test_partition_label_validation():
    noisy = np.array([0, 0, 1, 1, -1])
    X = np.vstack([FOUR_POINTS, [[500.0]]])
    for index in (calinski_harabasz, silhouette):
        with pytest.raises(ClusterError, match="shape"):
            index(FOUR_POINTS, np.array([0, 0, 1]))
        with pytest.raises(ClusterError, match="shape"):
            index(FOUR_POINTS, AABB[:, None])
        # Fractional or boolean labels are rejected, not truncated.
        with pytest.raises(ClusterError, match="integers"):
            index(FOUR_POINTS, np.array([0, 0.5, 1, 1]))
        with pytest.raises(ClusterError, match="integers"):
            index(FOUR_POINTS, AABB.astype(bool))
        # Several bad rows: the message names the first.
        with pytest.raises(ClusterError, match=r"^row 2: label -5 below -1$"):
            index(FOUR_POINTS, np.array([0, -1, -5, -2]))
        assert index(FOUR_POINTS, AABB.tolist()) == index(FOUR_POINTS, AABB)
    # -1 is noise: silhouette leaves it out, Calinski-Harabasz rejects it.
    assert silhouette(X, noisy) == silhouette(FOUR_POINTS, AABB)
    with pytest.raises(ClusterError, match="noise"):
        calinski_harabasz(X, noisy)


def test_silhouette_rejects_misshapen_dist():
    X = np.array([[0.0], [1.0], [10.0], [11.0], [500.0]])
    noisy = np.array([0, 0, 1, 1, -1])
    with pytest.raises(ClusterError, match="distance matrix"):
        silhouette(X, noisy, dist=np.zeros((5, 4)))
    # The matrix covers X's rows before the noise filter, not after it.
    with pytest.raises(ClusterError, match="distance matrix"):
        silhouette(X, noisy, dist=exact_distances(X[:4]))
    assert silhouette(X, noisy, dist=exact_distances(X)) == silhouette(X, noisy)


def test_silhouette_with_dist_matches_without():
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
            want = silhouette(X, assign)
        except ClusterError:
            with pytest.raises(ClusterError):
                silhouette(X, assign, dist=exact_distances(X))
            continue
        assert silhouette(X, assign, dist=exact_distances(X)) == want
        keep = labels != -1
        assert silhouette(X[keep], assign[keep]) == want  # noise rows change nothing
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
    X = rng.normal(0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (n, d))
    if n > 1 and draw(st.booleans()):
        # Near-coincident rows: where the expanded form cancels badly.
        twins = rng.integers(0, n, size=n // 2 + 1)
        X[twins] = X[0] + rng.choice([-1e-9, 0.0, 1e-9], size=(twins.size, d))
    tile = draw(st.one_of(st.none(), st.integers(1, 9)))
    return X, tile


@settings(max_examples=150, deadline=None)
@given(_distance_problems())
def test_exact_distances_match_reference_bit_for_bit(problem):
    X, tile = problem
    got = exact_distances(X, tile=tile)
    assert np.array_equal(got, _reference_exact_dists(X))
    assert np.array_equal(got, got.T)
    assert not got.diagonal().any()


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
        sil = silhouette(X, labels)
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
