"""Metrics, fold construction, the two pipelines, and report rendering.

Oracles: exact rational arithmetic for the three metrics, and direct
set algebra for fold partition properties.
"""

import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from droidlens import clustering, evaluate
from droidlens.errors import ClusterError, EvalError
from droidlens.evaluate import (
    UNDEFINED,
    ComparisonRow,
    ConfusionCounts,
    EvalReport,
    ReportRow,
    aggregate_metrics,
    clustering_table_csv,
    clustering_table_text,
    compare_clusterings,
    kfold_indices,
    metrics,
    report_csv,
    report_text,
    run_clustered_pipeline,
    run_plain_pipeline,
    side_by_side_markdown,
)
from droidlens.learn import KINDS, ClassifierSpec
from droidlens.rng import derive_rng, derive_seed
from evalfactory import four_blob_dataset, make_ds, two_blob_dataset


LR = ClassifierSpec(kind="logistic_regression")


# --- Oracles ----------------------------------------------------------------


def oracle_metrics(tp, tn, fp, fn):
    total = tp + tn + fp + fn
    acc = Fraction(tp + tn, total) if total else None
    tpr = Fraction(tp, tp + fn) if tp + fn else None
    tnr = Fraction(tn, tn + fp) if tn + fp else None
    return acc, tpr, tnr


def check_fold_partition(folds, labels, k, expect_stratified):
    n = len(labels)
    seen = [i for fold in folds for i in fold.tolist()]
    assert len(folds) == k
    assert sorted(seen) == list(range(n))  # disjoint and exhaustive
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    if expect_stratified:
        for c in np.unique(labels):
            per_fold = [int((labels[f] == c).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1


# --- metrics ----------------------------------------------------------------


def test_metric_examples():
    assert metrics(ConfusionCounts(tp=9, fn=1, tn=9, fp=1)) == (0.9, 0.9, 0.9)
    assert metrics(ConfusionCounts(tp=4, tn=6)) == (1.0, 1.0, 1.0)
    acc, tpr, tnr = metrics(ConfusionCounts(tp=0, fn=0, tn=5, fp=0))
    assert tpr is None
    assert acc == 1.0
    assert tnr == 1.0


def test_metrics_match_rational_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, 4))
        got = metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        want = oracle_metrics(tp, tn, fp, fn)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert abs(g - float(w)) <= 1e-12


def test_confusion_counts_validation_and_add():
    with pytest.raises(EvalError, match="tp"):
        ConfusionCounts(tp=-1)
    with pytest.raises(EvalError, match="fp"):
        ConfusionCounts(fp=1.5)
    c = ConfusionCounts(tp=1, tn=2) + ConfusionCounts(fp=3, fn=4)
    assert (c.tp, c.tn, c.fp, c.fn) == (1, 2, 3, 4)
    assert c.total == 10


def test_from_predictions():
    c = ConfusionCounts.from_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert (c.tp, c.fn, c.tn, c.fp) == (2, 1, 1, 1)
    with pytest.raises(EvalError, match="shape"):
        ConfusionCounts.from_predictions([1, 0], [1])


# --- folds ------------------------------------------------------------------


def reference_kfold_indices(labels, k, seed, stratified):
    """The per-row dealing loop: each row in turn goes to the fold after
    the previous row's, across classes in stratified mode."""
    labels = np.asarray(labels)
    rng = derive_rng(seed, "folds")
    folds = [[] for _ in range(k)]
    classes = np.unique(labels)
    if stratified and min(int((labels == c).sum()) for c in classes) < k:
        stratified = False
    if stratified:
        ptr = 0
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            for j in idx:
                folds[ptr % k].append(int(j))
                ptr += 1
    else:
        for pos, j in enumerate(rng.permutation(len(labels))):
            folds[pos % k].append(int(j))
    return [np.array(sorted(f), dtype=np.intp) for f in folds]


def test_fold_examples():
    folds = kfold_indices(np.zeros(10, dtype=int), k=10, seed=1)
    assert all(len(f) == 1 for f in folds)
    folds = kfold_indices(np.zeros(11, dtype=int), k=10, seed=1)
    assert sorted(len(f) for f in folds) == [1] * 9 + [2]


def test_fold_even_stratification():
    labels = np.array([0, 1] * 50)
    folds = kfold_indices(labels, k=10, seed=3)
    for f in folds:
        assert int((labels[f] == 0).sum()) == 5
        assert int((labels[f] == 1).sum()) == 5


def test_fold_errors():
    with pytest.raises(EvalError, match="folds"):
        kfold_indices(np.zeros(5, dtype=int), k=6)
    with pytest.raises(EvalError, match="at least 2"):
        kfold_indices(np.zeros(5, dtype=int), k=1)


def test_fold_fallback_warns(caplog):
    labels = np.array([0] * 18 + [1] * 2)
    with caplog.at_level("WARNING", logger="droidlens.evaluate"):
        folds = kfold_indices(labels, k=5, seed=0)
    assert "plain split" in caplog.text
    check_fold_partition(folds, labels, 5, expect_stratified=False)


def test_folds_deterministic_per_seed():
    labels = np.array([0, 1] * 20)
    a = kfold_indices(labels, k=7, seed=5)
    b = kfold_indices(labels, k=7, seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = kfold_indices(labels, k=7, seed=6)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@given(
    n=st.integers(min_value=2, max_value=60),
    k=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    p=st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=150, deadline=None)
def test_fold_partition_properties(n, k, seed, p):
    if k > n:
        return
    labels = (np.random.default_rng(seed).random(n) < p).astype(int)
    folds = kfold_indices(labels, k=k, seed=seed)
    counts = np.bincount(labels, minlength=2)
    check_fold_partition(folds, labels, k, expect_stratified=counts.min() >= k)


@given(
    n=st.integers(min_value=2, max_value=80),
    k=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    n_classes=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=300, deadline=None)
def test_folds_match_per_row_reference(n, k, seed, n_classes):
    # Small classes make the split fall back to the plain one.
    if k > n:
        return
    labels = np.random.default_rng(seed).integers(0, n_classes, n)
    got = kfold_indices(labels, k=k, seed=seed)
    want = reference_kfold_indices(labels, k, seed, stratified=True)
    assert len(got) == len(want) == k
    for g, w in zip(got, want):
        assert g.dtype == np.intp
        assert np.array_equal(g, w)


# --- pooled metrics and report invariants -----------------------------------


def test_pooled_metrics_equal_metrics_of_sums():
    rng = np.random.default_rng(2)
    folds = tuple(
        ConfusionCounts(*(int(v) for v in rng.integers(0, 20, 4))) for _ in range(10)
    )
    total = ConfusionCounts()
    for c in folds:
        total = total + c
    got = aggregate_metrics(folds)
    want = metrics(total)
    for g, w in zip(got, want):
        assert (g is None and w is None) or abs(g - w) <= 1e-12
    row = ReportRow(kind="decision_tree", folds=folds)
    assert aggregate_metrics(row.folds) == got


# --- plain pipeline ----------------------------------------------------------


def test_plain_pipeline_separable():
    ds = two_blob_dataset(1)
    for k in (2, 10):
        report = run_plain_pipeline(ds, [LR], k=k, seed=4)
        assert aggregate_metrics(report.rows[0].folds)[0] == 1.0
        assert report.fold_count == k
        assert len(report.rows[0].folds) == k


def test_plain_pipeline_null_labels_near_chance():
    rng = np.random.default_rng(10)
    accs = []
    for seed in range(5):
        X = rng.uniform(0, 10, (60, 2))
        labels = np.array([0, 1] * 30)
        rng.shuffle(labels)
        ds = make_ds(X, labels)
        report = run_plain_pipeline(ds, [ClassifierSpec(kind="gaussian_nb")], k=5, seed=seed)
        accs.append(aggregate_metrics(report.rows[0].folds)[0])
    assert 0.35 <= float(np.mean(accs)) <= 0.65


def test_plain_pipeline_single_class_rejected():
    ds = make_ds([[0.0], [1.0], [2.0]], [1, 1, 1])
    with pytest.raises(EvalError, match="both classes"):
        run_plain_pipeline(ds, [LR], k=2, seed=0)
    with pytest.raises(EvalError, match="no classifier"):
        run_plain_pipeline(two_blob_dataset(0), [], k=2, seed=0)


def test_plain_pipeline_deterministic():
    ds = two_blob_dataset(3, per=20, sigma=2.0)
    spec = ClassifierSpec(kind="random_forest", hyperparameters={"n_trees": 15})
    a = run_plain_pipeline(ds, [spec], k=4, seed=9)
    b = run_plain_pipeline(ds, [spec], k=4, seed=9)
    assert report_csv(a) == report_csv(b)


# --- clustered pipeline -------------------------------------------------------


def test_clustered_pipeline_beats_plain_on_four_blobs():
    gaps = []
    for seed in range(3):
        ds = four_blob_dataset(seed, per=40)
        plain = run_plain_pipeline(ds, [LR], k=5, seed=seed)
        clustered = run_clustered_pipeline(ds, [LR], cluster_k=2, k=5, seed=seed)
        gaps.append(
            aggregate_metrics(clustered.rows[0].folds)[0]
            - aggregate_metrics(plain.rows[0].folds)[0]
        )
    assert float(np.mean(gaps)) >= 0.10


@pytest.mark.parametrize(
    "ds, k",
    [
        (two_blob_dataset(6, per=25, sigma=2.5), 5),
        # One training row per fold: the constant one-row model.
        (make_ds([[0.0], [1.0]], [0, 1]), 2),
    ],
    ids=["two_blobs", "two_rows"],
)
def test_reduction_identity_with_smote_off(ds, k):
    specs = [ClassifierSpec(kind=kind) for kind in KINDS]
    plain = run_plain_pipeline(ds, specs, k=k, seed=11)
    reduced = run_clustered_pipeline(
        ds, specs, cluster_k=1, k=k, seed=11, smote=False
    )
    assert report_csv(reduced) == report_csv(plain)
    assert report_text(reduced) == report_text(plain)
    assert reduced.rows == plain.rows


def test_single_class_cluster_constant_model():
    # Far-away pure-benign blob clusters alone; its model must be the
    # constant benign predictor and its test rows all predicted 0.
    rng = np.random.default_rng(0)
    far = rng.normal(1000.0, 0.5, (12, 2))
    near = np.vstack([rng.normal(0, 0.5, (12, 2)), rng.normal(10, 0.5, (12, 2))])
    X = np.vstack([near, far])
    y = np.array([0] * 12 + [1] * 12 + [0] * 12)
    ds = make_ds(X, y)
    report = run_clustered_pipeline(ds, [LR], cluster_k=2, k=3, seed=2)
    assert aggregate_metrics(report.rows[0].folds)[2] == 1.0  # far benign rows all correct


def test_empty_cluster_rerouting_logged(caplog):
    # Paper protocol clusters everything up front; the lone extreme row
    # forms its own cluster, which has no training rows in the fold
    # where that row is held out.
    rng = np.random.default_rng(4)
    X = np.vstack(
        [rng.normal(0, 0.5, (10, 2)), rng.normal(20, 0.5, (10, 2)), [[1e6, 1e6]]]
    )
    y = np.array([0] * 10 + [1] * 10 + [1])
    ds = make_ds(X, y)
    with caplog.at_level("INFO", logger="droidlens.evaluate"):
        report = run_clustered_pipeline(
            ds, [LR], cluster_k=3, k=3, seed=1, paper_protocol=True
        )
    assert "rerouted" in caplog.text
    assert report.fold_count == 3


def _reference_route(test_X, centroids, live):
    """The two routing passes the fold loop once made: every row to its
    nearest centroid, then the rows whose cluster has no training rows
    to the nearest live centroid by direct differences."""
    routed = clustering.assign_clusters_batch(test_X, centroids)
    orphan = ~np.isin(routed, live)
    if orphan.any():
        diffs = test_X[orphan, None, :] - centroids[live][None, :, :]
        routed[orphan] = live[np.argmin((diffs * diffs).sum(axis=2), axis=1)]
    return routed


@st.composite
def _routing_problems(draw):
    """Distinct integer-grid rows and centroids on a grid of halves or
    thirds: many rows sit equidistant from two centroids, and whole
    clusters lose their training rows to the test fold.  A repeated
    centroid never gets training rows, since ties go to the lower id."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 3))
    cluster_k = draw(st.integers(2, 6))
    n = draw(st.integers(2 * cluster_k, 30))
    grid = np.array(list(np.ndindex(*(6,) * d)), dtype=float)
    X = grid[rng.choice(len(grid), size=n, replace=False)]
    centroids = rng.integers(-1, 8, (cluster_k, d)) / draw(st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        centroids[-1] = centroids[0]
    return X, centroids


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@settings(max_examples=150, deadline=None)
@given(_routing_problems())
def test_routing_matches_reference(problem):
    X, centroids = problem
    ds = make_ds(X, np.arange(len(X)) % 2)
    cluster_k, folds = len(centroids), 3
    model = clustering.KMeansModel(centroids=centroids, sse=0.0, iterations=0)
    # The fit seed names the fold and cluster each model was trained for.
    fit_key = {
        derive_seed(0, "fit", LR.kind, i, c): (i, c)
        for i in range(folds)
        for c in range(cluster_k)
    }
    routed = {}

    def fit(spec, sub):
        assert sub.n > 0
        return fit_key[spec.seed]

    def predict_batch(key, rows):
        for row in rows.tolist():
            assert (key[0], tuple(row)) not in routed
            routed[key[0], tuple(row)] = key[1]
        return np.zeros(len(rows), dtype=np.int64)

    records = _Records()
    logger = logging.getLogger("droidlens.evaluate")
    logger.addHandler(records)
    old_level = logger.level
    logger.setLevel(logging.INFO)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                evaluate,
                "kmeans",
                lambda X, *a, **kw: (model, clustering.assign_clusters_batch(X, centroids)),
            )
            mp.setattr(evaluate, "fit", fit)
            mp.setattr(evaluate, "predict_batch", predict_batch)
            run_clustered_pipeline(
                ds, [LR], cluster_k=cluster_k, k=folds, seed=0, smote=False,
                paper_protocol=True,
            )
    finally:
        logger.removeHandler(records)
        logger.setLevel(old_level)

    logged = dict(r.args for r in records.records if "rerouted" in r.msg)
    for i, test_idx in enumerate(kfold_indices(ds.labels, k=folds, seed=0)):
        train_X = np.delete(X, test_idx, axis=0)
        test_X = X[test_idx]
        live = np.unique(clustering.assign_clusters_batch(train_X, centroids))
        gaps = test_X[:, None, :] - centroids[None, :, :]
        d2 = (gaps * gaps).sum(axis=2)
        best = d2[:, live].min(axis=1)
        margin = 1e-9 * np.maximum(best, 1.0)
        ref = _reference_route(test_X, centroids, live)
        clear = True
        for r, row in enumerate(test_X.tolist()):
            c = routed.pop((i, tuple(row)))  # every test row reached a model
            assert c in live
            assert d2[r, c] <= best[r] + margin[r]
            near_live = (d2[r, live] <= best[r] + margin[r]).sum()
            near_all = (d2[r] <= d2[r].min() + margin[r]).sum()
            if near_live == 1:
                assert c == ref[r]
            clear = clear and near_live == near_all == 1
        if clear:
            orphans = int((~np.isin(clustering.assign_clusters_batch(test_X, centroids), live)).sum())
            assert logged.get(i, 0) == orphans
    assert not routed


def test_clustered_pipeline_validation():
    ds = two_blob_dataset(0, per=3)
    with pytest.raises(EvalError, match="cluster_k"):
        run_clustered_pipeline(ds, [LR], cluster_k=0, k=2, seed=0)
    with pytest.raises(EvalError, match="at least 8 rows"):
        run_clustered_pipeline(ds, [LR], cluster_k=4, k=2, seed=0)


def _rows(X) -> set:
    return {tuple(row) for row in np.asarray(X).tolist()}


def _record_training_rows(monkeypatch) -> list:
    """Record, in call order, ``(stage, rows)`` for every k-means call and
    every fit the fold loop makes, rows taken by content."""
    calls = []
    real_kmeans, real_fit = evaluate.kmeans, evaluate.fit

    def kmeans(X, *args, **kwargs):
        calls.append(("kmeans", _rows(X)))
        return real_kmeans(X, *args, **kwargs)

    def fit(spec, ds):
        calls.append(("fit", _rows(ds.features)))
        return real_fit(spec, ds)

    monkeypatch.setattr(evaluate, "kmeans", kmeans)
    monkeypatch.setattr(evaluate, "fit", fit)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda ds: run_plain_pipeline(ds, [LR], k=5, seed=3),
        lambda ds: run_clustered_pipeline(ds, [LR], cluster_k=2, k=5, seed=3),
    ],
    ids=["plain", "clustered"],
)
def test_no_test_rows_reach_training_stages(run, monkeypatch):
    ds = two_blob_dataset(8, per=15, sigma=2.0)
    assert len(_rows(ds.features)) == ds.n  # so rows can be told apart by content
    calls = _record_training_rows(monkeypatch)
    report = run(ds)

    # Each fold opens with its own k-means call, so every call belongs to
    # the fold of the k-means call at or before it.
    fold_of = np.cumsum([stage == "kmeans" for stage, _ in calls]) - 1
    assert {(stage, int(i)) for (stage, _), i in zip(calls, fold_of)} == {
        (stage, i) for stage in ("kmeans", "fit") for i in range(5)
    }
    folds = kfold_indices(ds.labels, k=5, seed=3)
    for (stage, rows), i in zip(calls, fold_of):
        assert not (rows & _rows(ds.features[folds[i]])), f"fold {i}: {stage} saw test rows"
    assert report.fold_count == 5


def test_leak_detector_fires_under_paper_protocol(monkeypatch):
    ds = two_blob_dataset(8, per=15, sigma=2.0)
    calls = _record_training_rows(monkeypatch)
    run_clustered_pipeline(ds, [LR], cluster_k=2, k=5, seed=3, paper_protocol=True)
    kmeans_calls = [rows for stage, rows in calls if stage == "kmeans"]
    assert kmeans_calls == [_rows(ds.features)]  # every row, test rows included


@pytest.mark.parametrize("paper_protocol", [False, True], ids=["per-fold", "paper"])
def test_only_test_rows_are_assigned_to_centroids(paper_protocol, monkeypatch):
    # Training rows take their clusters from the k-means run that found
    # the centroids, so no assignment pass sees more than a test fold.
    ds = two_blob_dataset(8, per=15, sigma=2.0)
    sizes = []
    real_assign = evaluate.assign_clusters_batch

    def assign_clusters_batch(X, centroids):
        sizes.append(len(X))
        return real_assign(X, centroids)

    monkeypatch.setattr(evaluate, "assign_clusters_batch", assign_clusters_batch)
    run_clustered_pipeline(
        ds, [LR], cluster_k=2, k=5, seed=3, paper_protocol=paper_protocol
    )
    assert sizes
    assert max(sizes) <= max(f.size for f in kfold_indices(ds.labels, k=5, seed=3))


def test_clusters_no_test_row_reaches_are_not_fitted(monkeypatch):
    # Three far rows form a cluster of their own in every fold; a fold
    # whose test rows hold none of them neither oversamples nor fits it.
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(100, 1, (3, 2))])
    ds = make_ds(X, [0, 1] * 15 + [0, 1, 0])
    far = X[:, 0] > 50
    fits_with_far_rows = []
    real_fit = evaluate.fit

    def fit(spec, sub):
        fits_with_far_rows.append(bool((sub.features[:, 0] > 50).any()))
        return real_fit(spec, sub)

    monkeypatch.setattr(evaluate, "fit", fit)
    run_clustered_pipeline(ds, [LR], cluster_k=2, k=5, seed=0)
    reached = sum(bool(far[test].any()) for test in kfold_indices(ds.labels, k=5, seed=0))
    assert reached < 5
    assert sum(fits_with_far_rows) == reached


def test_smote_skipped_for_tiny_minority(caplog):
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(0, 1, (19, 2)), [[0.0, 0.0]]])
    y = np.array([0] * 19 + [1])
    ds = make_ds(X, y)
    with caplog.at_level("INFO", logger="droidlens.evaluate"):
        run_clustered_pipeline(ds, [LR], cluster_k=1, k=2, seed=0)
    assert "too small to oversample" in caplog.text


# --- clustering comparison -----------------------------------------------------


def test_comparison_two_blob_winner_is_k2():
    ds = two_blob_dataset(5)
    rows = compare_clusterings(ds.features, seed=0)
    km = [r for r in rows if r.algorithm == "kmeans"]
    best = max(km, key=lambda r: r.calinski_harabasz)
    assert best.parameter == "k = 2"


def test_comparison_default_grid_shape():
    ds = two_blob_dataset(7, per=15)
    rows = compare_clusterings(ds.features, seed=1)
    assert len(rows) == 20
    assert sum(r.winner for r in rows) == 1
    algorithms = {r.algorithm for r in rows}
    assert algorithms == {"kmeans", "agglomerative", "birch", "gmm", "dbscan"}
    # Opcode-scale eps values dwarf this fixture: every point is a core
    # point of one giant cluster, so the scores are undefined there.
    for r in rows:
        if r.algorithm == "dbscan":
            assert r.n_clusters == 1
            assert r.calinski_harabasz is None


def test_comparison_degenerate_dbscan_row(monkeypatch):
    ds = two_blob_dataset(2, per=10)
    monkeypatch.setitem(evaluate.DEFAULT_GRIDS, "dbscan", (1e-6,))
    rows = compare_clusterings(ds.features, seed=0)
    row = next(r for r in rows if r.algorithm == "dbscan")
    assert row.n_clusters == 0
    assert row.calinski_harabasz is None
    assert row.silhouette is None


def test_comparison_config_validation():
    with pytest.raises(EvalError, match="2-D"):
        compare_clusterings(np.zeros(3))
    # Each clusterer would reject these itself, and its row would read n/a.
    with pytest.raises(EvalError, match="2-D"):
        compare_clusterings(np.zeros((4, 0)))
    X = np.zeros((4, 2))
    X[2, 1] = np.nan
    with pytest.raises(EvalError, match="NaN"):
        compare_clusterings(X)


def test_comparison_standardize_changes_dbscan_scale(monkeypatch):
    ds = two_blob_dataset(9, per=20)
    # Raw coordinates: the blob gap is ~14, so eps=5 finds two clusters.
    # Standardized, the gap shrinks to ~2.8 and eps=5 glues them.
    monkeypatch.setitem(evaluate.DEFAULT_GRIDS, "dbscan", (5.0,))
    raw = compare_clusterings(ds.features, seed=0)
    std = compare_clusterings(ds.features, seed=0, standardize=True)
    assert next(r for r in raw if r.algorithm == "dbscan").n_clusters == 2
    assert next(r for r in std if r.algorithm == "dbscan").n_clusters == 1


def test_comparison_shares_one_distance_matrix(monkeypatch):
    ds = four_blob_dataset(3, per=12)
    outliers = [[55.0, 40.0], [-60.0, 10.0], [105.0, -30.0]]
    X = np.vstack([ds.features, outliers])
    built, scored, clustered = [], [], []

    def counting_distances(Z):
        built.append(clustering.exact_distances(Z))
        return built[-1]

    def recording_silhouette(dist, labels):
        scored.append((dist, labels))
        return clustering.silhouette(dist, labels)

    def recording_dbscan(dist, eps):
        clustered.append((dist, eps))
        return clustering.dbscan(dist, eps)

    monkeypatch.setattr(evaluate, "exact_distances", counting_distances)
    monkeypatch.setattr(evaluate, "silhouette", recording_silhouette)
    monkeypatch.setattr(evaluate, "dbscan", recording_dbscan)
    monkeypatch.setitem(evaluate.DEFAULT_GRIDS, "dbscan", (0.3, 0.6, 1.0, 3.0))
    rows = compare_clusterings(X, seed=2, standardize=True)
    assert len(built) == 1
    assert len(scored) == len(rows) == 20
    assert [eps for _, eps in clustered] == [0.3, 0.6, 1.0, 3.0]
    assert all(dist is built[0] for dist, _ in scored + clustered)
    # The matrix is the standardized input's.
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    assert np.array_equal(built[0], clustering.exact_distances(Z))
    # The outliers are DBSCAN noise at the small eps values, where the
    # shared matrix goes through silhouette's noise filter.
    assert any(
        r.silhouette is not None for r, (_, a) in zip(rows, scored) if -1 in a
    )

    built.clear()
    monkeypatch.setitem(evaluate.DEFAULT_GRIDS, "dbscan", (1e-6,))
    compare_clusterings(X, seed=2)
    assert len(built) == 1


def test_comparison_builds_one_ward_hierarchy(monkeypatch):
    calls = []

    def counting_agglomerative(*args):
        calls.append(args)
        return clustering.agglomerative(*args)

    monkeypatch.setattr(evaluate, "agglomerative", counting_agglomerative)
    ds = two_blob_dataset(7, per=15)
    rows = compare_clusterings(ds.features, seed=1)
    assert len(calls) == 1
    agg = [r for r in rows if r.algorithm == "agglomerative"]
    assert [r.parameter for r in agg] == ["k = 2", "k = 3", "k = 4", "k = 5"]
    assert [r.n_clusters for r in agg] == [2, 3, 4, 5]


def test_comparison_builds_one_birch_tree(monkeypatch):
    calls = []

    def counting_birch(*args):
        calls.append(args)
        return clustering.birch(*args)

    monkeypatch.setattr(evaluate, "birch", counting_birch)
    ds = two_blob_dataset(7, per=15)
    rows = compare_clusterings(ds.features, seed=1)
    assert len(calls) == 1
    tree = [r for r in rows if r.algorithm == "birch"]
    assert [r.parameter for r in tree] == ["k = 2", "k = 3", "k = 4", "k = 5"]
    assert [r.n_clusters for r in tree] == [2, 3, 4, 5]


def test_comparison_deterministic():
    ds = two_blob_dataset(4, per=12)
    a = compare_clusterings(ds.features, seed=5)
    b = compare_clusterings(ds.features, seed=5)
    assert a == b


# --- rendering ----------------------------------------------------------------


def test_report_csv_layout():
    ds = two_blob_dataset(1)
    report = run_plain_pipeline(ds, [LR, ClassifierSpec(kind="decision_tree")], k=3, seed=0)
    text = report_csv(report)
    lines = text.splitlines()
    assert lines[0] == "Classifier,Accuracy,Recall/TPR,Specificity/TNR"
    assert lines[1].startswith("Logistic Regression,")
    assert lines[2].startswith("Decision Trees,")
    assert len(lines) == 3
    for word in ("plain", "clustered"):
        assert word not in text


def test_report_renders_undefined_marker():
    folds = (ConfusionCounts(tn=3, fp=1), ConfusionCounts(tn=2))
    row = ReportRow(kind="gaussian_nb", folds=folds)
    assert aggregate_metrics(row.folds)[1] is None
    report = EvalReport(rows=(row,), fold_count=2, seed=0)
    assert f",{UNDEFINED}," in report_csv(report)
    assert UNDEFINED in report_text(report)
    assert "nan" not in report_csv(report).lower()


def test_clustering_table_renders_winner_and_marker():
    rows = (
        ComparisonRow("kmeans", "k = 2", 2, 150.0, 0.9, winner=True),
        ComparisonRow("dbscan", "eps = 1", 0, None, None),
    )
    text = clustering_table_csv(rows)
    lines = text.splitlines()
    assert lines[0] == (
        "Algorithm,Parameter,No of Clusters,Calinski Harabaz Score,"
        "Silhouette Score,Winner"
    )
    assert lines[1].endswith(",*")
    assert f"{UNDEFINED},{UNDEFINED}" in lines[2]
    pretty = clustering_table_text(rows)
    assert "k-means Clustering" in pretty
    assert "*" in pretty


def test_side_by_side_markdown_shape():
    ds = two_blob_dataset(3, per=15, sigma=2.0)
    specs = [ClassifierSpec(kind=k) for k in KINDS]
    plain = run_plain_pipeline(ds, specs, k=3, seed=1)
    clustered = run_clustered_pipeline(ds, specs, cluster_k=2, k=3, seed=1)
    md = side_by_side_markdown(plain, clustered)
    lines = md.strip().splitlines()
    table = [ln for ln in lines if ln.startswith("|")]
    assert len(table) == 7  # header, divider, five classifier rows
    assert table[0] == "| Classifier | Accuracy | Recall/TPR | Specificity/TNR |"
    for name in (
        "Logistic Regression",
        "Naive Bayes",
        "Support Vector Machines",
        "Decision Trees",
        "Random Forest",
    ):
        assert any(name in ln for ln in table[2:])
    with pytest.raises(EvalError, match="different classifier"):
        side_by_side_markdown(plain, run_clustered_pipeline(ds, [LR], k=3, seed=1))
