"""Cross-validated evaluation of the two pipelines.

The clustered pipeline partitions each training split with k-means;
each test row goes to its nearest centroid among the clusters that
have training rows, and each cluster some test row reaches is
balanced with SMOTE and trains one model.  A fold holds row indices
into the one input Dataset: its training rows take their clusters
from the labels of the k-means run that found the centroids (the
fold's own, or the single run on all rows under the paper protocol),
and only test rows are assigned to centroids.  The plain pipeline, which trains
one model per fold on the whole training split, is implemented as that
loop with one cluster and SMOTE off.

Each report row keeps its classifier's per-fold confusion counts;
its metrics are computed from those counts pooled over the folds.
Undefined metrics (zero denominator) are carried as None and rendered
as a marker string, never as NaN.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, replace

import numpy as np

from .clustering import (
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
)
from .dataset import Dataset
from .errors import ClusterError, EvalError, LearnError
from .learn import ClassifierSpec, fit, predict_batch, smote_balance
from .rng import derive_rng, derive_seed

logger = logging.getLogger(__name__)

UNDEFINED = "n/a"

REPORT_COLUMNS = ("Accuracy", "Recall/TPR", "Specificity/TNR")

DISPLAY_NAMES = {
    "logistic_regression": "Logistic Regression",
    "gaussian_nb": "Naive Bayes",
    "linear_svm": "Support Vector Machines",
    "decision_tree": "Decision Trees",
    "random_forest": "Random Forest",
}


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion matrix; malware (label 1) is the positive class."""

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 0:
                raise EvalError(f"{name} must be a non-negative integer, got {v!r}")
            object.__setattr__(self, name, int(v))

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            tn=self.tn + other.tn,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
        )

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionCounts":
        t = np.asarray(y_true)
        p = np.asarray(y_pred)
        if t.shape != p.shape or t.ndim != 1:
            raise EvalError(f"prediction shape {p.shape} does not match labels {t.shape}")
        return cls(
            tp=int(((t == 1) & (p == 1)).sum()),
            tn=int(((t == 0) & (p == 0)).sum()),
            fp=int(((t == 0) & (p == 1)).sum()),
            fn=int(((t == 1) & (p == 0)).sum()),
        )


def metrics(c: ConfusionCounts) -> tuple[float | None, float | None, float | None]:
    """(accuracy, tpr, tnr); None where the denominator is zero."""
    acc = (c.tp + c.tn) / c.total if c.total else None
    tpr = c.tp / (c.tp + c.fn) if c.tp + c.fn else None
    tnr = c.tn / (c.tn + c.fp) if c.tn + c.fp else None
    return acc, tpr, tnr


def kfold_indices(labels, k: int = 10, seed: int = 0):
    """Disjoint, exhaustive folds with sizes differing by at most one.

    Rows are dealt round-robin to the folds from one order: each
    class's shuffled rows, class after class, which bounds both the
    per-class and the total per-fold spread by one.  Falls back to a
    plain split (one shuffled order, with a warning) when some class
    has fewer than k rows.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise EvalError(f"labels must be 1-D, got shape {labels.shape}")
    n = labels.shape[0]
    if k < 2:
        raise EvalError(f"need at least 2 folds, got k={k}")
    if k > n:
        raise EvalError(f"cannot split {n} rows into {k} folds")
    rng = derive_rng(seed, "folds")
    per_class = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    if min(idx.size for idx in per_class) < k:
        logger.warning(
            "stratification needs every class count >= k=%d; using a plain split", k
        )
        order = rng.permutation(n)
    else:
        for idx in per_class:
            rng.shuffle(idx)
        order = np.concatenate(per_class)
    return [np.sort(order[f::k]).astype(np.intp) for f in range(k)]


def aggregate_metrics(folds):
    """Metrics of the confusion counts summed over folds."""
    return metrics(sum(folds, ConfusionCounts()))


@dataclass(frozen=True)
class ReportRow:
    """One classifier's per-fold counts; its metrics are the pooled ones."""

    kind: str
    folds: tuple[ConfusionCounts, ...]


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[ReportRow, ...]
    fold_count: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            if len(row.folds) != self.fold_count:
                raise EvalError(
                    f"{row.kind}: {len(row.folds)} fold counts for "
                    f"{self.fold_count} folds"
                )


def _check_pipeline_input(ds: Dataset, specs) -> None:
    if not specs:
        raise EvalError("no classifier specs given")
    present = set(np.unique(ds.labels).tolist())
    if present != {0, 1}:
        raise EvalError(f"pipelines need both classes present, got labels {sorted(present)}")


def _fit_with_context(spec: ClassifierSpec, ds: Dataset, fold: int):
    try:
        return fit(spec, ds)
    except LearnError as exc:
        raise EvalError(f"fold {fold}: fitting {spec.kind} failed: {exc}") from exc


def run_clustered_pipeline(
    ds: Dataset,
    specs,
    cluster_k: int = 2,
    k: int = 10,
    seed: int = 0,
    smote: bool = True,
    paper_protocol: bool = False,
) -> EvalReport:
    """Cluster-then-classify CV.

    Default protocol fits k-means inside each fold on training rows
    only.  paper_protocol=True instead clusters the full dataset once
    before splitting, which leaks test rows into the clustering step;
    it exists for comparison against that published ordering.
    """
    _check_pipeline_input(ds, specs)
    if cluster_k < 1:
        raise EvalError(f"cluster_k must be >= 1, got {cluster_k}")
    if ds.n < cluster_k * 2:
        raise EvalError(f"need at least {cluster_k * 2} rows for cluster_k={cluster_k}")
    folds = kfold_indices(ds.labels, k=k, seed=seed)
    if paper_protocol:
        global_km, global_assign = kmeans(
            ds.features, cluster_k, seed=derive_seed(seed, "cluster")
        )
    all_rows = np.arange(ds.n)
    per_spec_folds: list[list[ConfusionCounts]] = [[] for _ in specs]
    for i, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_rows, test_idx)
        test_X, test_y = ds.features[test_idx], ds.labels[test_idx]
        if paper_protocol:
            km, train_assign = global_km, global_assign[train_idx]
        else:
            km, train_assign = kmeans(
                ds.features[train_idx], cluster_k, seed=derive_seed(seed, "cluster", i)
            )
        live = np.unique(train_assign)
        routed = live[assign_clusters_batch(test_X, km.centroids[live])]
        if live.size < cluster_k:
            nearest = assign_clusters_batch(test_X, km.centroids)
            moved = int((routed != nearest).sum())
            if moved:
                logger.info(
                    "fold %d: rerouted %d test rows from training-empty clusters", i, moved
                )
        cluster_data: dict[int, Dataset] = {}
        for c in np.unique(routed).tolist():
            sub = ds.take(train_idx[train_assign == c])
            counts = np.bincount(sub.labels, minlength=2)
            if smote and counts.min() >= 2:
                sub = smote_balance(sub, seed=derive_seed(seed, "smote", i, c))
            elif smote and 0 < counts.min() < 2:
                logger.info(
                    "fold %d cluster %d: minority class too small to oversample", i, c
                )
            cluster_data[c] = sub
        for s, spec in enumerate(specs):
            preds = np.zeros(test_idx.size, dtype=np.int64)
            for c, sub in cluster_data.items():
                fit_spec = replace(spec, seed=derive_seed(seed, "fit", spec.kind, i, c))
                model = _fit_with_context(fit_spec, sub, i)
                mask = routed == c
                preds[mask] = predict_batch(model, test_X[mask])
            per_spec_folds[s].append(ConfusionCounts.from_predictions(test_y, preds))
    rows = [
        ReportRow(kind=spec.kind, folds=tuple(spec_folds))
        for spec, spec_folds in zip(specs, per_spec_folds)
    ]
    return EvalReport(rows=rows, fold_count=k, seed=seed)


def run_plain_pipeline(ds: Dataset, specs, k: int = 10, seed: int = 0) -> EvalReport:
    """k-fold CV of each spec on the whole training split per fold: the
    clustered pipeline with one cluster and no SMOTE."""
    return run_clustered_pipeline(ds, specs, cluster_k=1, k=k, seed=seed, smote=False)


# --- clustering comparison ---------------------------------------------------


ALGORITHM_NAMES = {
    "kmeans": "k-means Clustering",
    "agglomerative": "Agglomerative Clustering",
    "birch": "BIRCH Clustering",
    "gmm": "Gaussian Mixture Model Clustering",
    "dbscan": "DBSCAN Clustering",
}

DEFAULT_GRIDS = {
    "kmeans": (2, 3, 4, 5),
    "agglomerative": (2, 3, 4, 5),
    "birch": (2, 3, 4, 5),
    "gmm": (2, 3, 4, 5),
    "dbscan": (5000.0, 10000.0, 15000.0, 20000.0),
}


@dataclass(frozen=True)
class ComparisonRow:
    algorithm: str
    parameter: str
    n_clusters: int | None
    calinski_harabasz: float | None
    silhouette: float | None
    winner: bool = False


def _grid_labels(algorithm: str, X, param, seed: int, merges, tree, dist) -> np.ndarray:
    row_seed = derive_seed(seed, "compare", algorithm, str(param))
    if algorithm == "kmeans":
        return kmeans(X, int(param), seed=row_seed)[1]
    if algorithm == "agglomerative":
        return cut(merges, int(param))
    if algorithm == "birch":
        return birch_cut(tree, int(param))
    if algorithm == "gmm":
        return gmm(X, int(param), seed=row_seed)[1]
    return dbscan(dist, float(param))


def compare_clusterings(X, seed: int = 0, standardize: bool = False):
    """Score each algorithm's ``DEFAULT_GRIDS`` entry with both validity
    indices.

    Returns one ComparisonRow per (algorithm, parameter); the winner
    (max Calinski-Harabasz, ties broken by silhouette) is flagged.
    Undefined scores are carried as None.  One exact distance matrix
    serves every DBSCAN row and every silhouette; every agglomerative
    row cuts one ward hierarchy, and every BIRCH row one CF tree.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise EvalError(f"expected a non-empty 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise EvalError("matrix contains NaN or infinity")
    if standardize:
        std = X.std(axis=0)
        X = (X - X.mean(axis=0)) / np.where(std > 0, std, 1.0)
    rows: list[ComparisonRow] = []
    dist = exact_distances(X)
    merges = agglomerative(X)
    tree = birch(X)
    for algorithm in ALGORITHM_NAMES:
        label = "eps" if algorithm == "dbscan" else "k"
        for param in DEFAULT_GRIDS[algorithm]:
            parameter = f"{label} = {param:g}"
            try:
                labels = _grid_labels(algorithm, X, param, seed, merges, tree, dist)
            except ClusterError as exc:
                logger.info("%s %s failed: %s", algorithm, parameter, exc)
                rows.append(ComparisonRow(algorithm, parameter, None, None, None))
                continue
            found = np.unique(labels[labels >= 0]).size
            try:
                ch = calinski_harabasz(X, labels)
            except ClusterError:
                ch = None
            try:
                sil = silhouette(dist, labels)
            except ClusterError:
                sil = None
            rows.append(ComparisonRow(algorithm, parameter, found, ch, sil))
    scored = [r for r in rows if r.calinski_harabasz is not None]
    if scored:
        best = max(
            scored,
            key=lambda r: (
                r.calinski_harabasz,
                r.silhouette if r.silhouette is not None else -np.inf,
            ),
        )
        rows = [replace(r, winner=True) if r is best else r for r in rows]
    return tuple(rows)


# --- rendering ---------------------------------------------------------------


def _fmt_full(value) -> str:
    return UNDEFINED if value is None else repr(float(value))


def _fmt_fixed(value, digits: int) -> str:
    if value is None:
        return UNDEFINED
    return f"{float(value):.{digits}f}"


def _classifier_display(kind: str) -> str:
    return DISPLAY_NAMES.get(kind, kind)


def _fmt4(value) -> str:
    return _fmt_fixed(value, 4)


def _csv(header: tuple, body) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    return buf.getvalue()


def _aligned(header: tuple, body) -> str:
    table = [tuple(map(str, r)) for r in [header, *body]]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


REPORT_HEADER = ("Classifier",) + REPORT_COLUMNS


def _report_cells(row: ReportRow, fmt) -> tuple:
    return (_classifier_display(row.kind),) + tuple(map(fmt, aggregate_metrics(row.folds)))


def report_csv(report: EvalReport) -> str:
    """Full-precision CSV; carries no pipeline tag so that equivalent
    runs of either pipeline serialize identically."""
    return _csv(REPORT_HEADER, [_report_cells(row, _fmt_full) for row in report.rows])


def report_text(report: EvalReport) -> str:
    return _aligned(REPORT_HEADER, [_report_cells(row, _fmt4) for row in report.rows])


COMPARISON_HEADER = (
    "Algorithm",
    "Parameter",
    "No of Clusters",
    "Calinski Harabaz Score",
    "Silhouette Score",
    "Winner",
)


def _comparison_cells(row: ComparisonRow, full: bool) -> tuple:
    ch = _fmt_full(row.calinski_harabasz) if full else _fmt_fixed(row.calinski_harabasz, 2)
    return (
        ALGORITHM_NAMES.get(row.algorithm, row.algorithm),
        row.parameter,
        UNDEFINED if row.n_clusters is None else str(row.n_clusters),
        ch,
        (_fmt_full if full else _fmt4)(row.silhouette),
        "*" if row.winner else "",
    )


def clustering_table_csv(rows) -> str:
    return _csv(COMPARISON_HEADER, [_comparison_cells(row, full=True) for row in rows])


def elbow_csv(curve) -> str:
    """The elbow curve, one (k, SSE) row per k, SSE at full precision."""
    return _csv(("k", "SSE"), [(k, _fmt_full(sse)) for k, sse in curve])


def clustering_table_text(rows) -> str:
    return _aligned(COMPARISON_HEADER, [_comparison_cells(row, full=False) for row in rows])


def side_by_side_markdown(plain: EvalReport, clustered: EvalReport) -> str:
    """One markdown table, five classifier rows, three metric columns;
    each cell shows the plain then the clustered value."""
    if [r.kind for r in plain.rows] != [r.kind for r in clustered.rows]:
        raise EvalError("reports cover different classifier lists")
    lines = [
        "# Plain vs clustered pipelines",
        "",
        f"Folds: {plain.fold_count}, seed: {plain.seed}. "
        "Each cell shows plain / clustered.",
        "",
        "| Classifier | " + " | ".join(REPORT_COLUMNS) + " |",
        "|---|---|---|---|",
    ]
    for p_row, c_row in zip(plain.rows, clustered.rows):
        cells = [
            f"{_fmt4(p)} / {_fmt4(c)}"
            for p, c in zip(aggregate_metrics(p_row.folds), aggregate_metrics(c_row.folds))
        ]
        lines.append("| " + " | ".join([_classifier_display(p_row.kind), *cells]) + " |")
    return "\n".join(lines) + "\n"
