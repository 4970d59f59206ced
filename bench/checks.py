"""Output checks for each workload's CLI stages.

Each check reads the stage's output file with the csv module and
compares it with what the generator knows about the input.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

CLASSIFIERS = (
    "Logistic Regression",
    "Naive Bayes",
    "Support Vector Machines",
    "Decision Trees",
    "Random Forest",
)
FEATURE_HEADER = ["id", "label"] + [f"op_{i:02x}" for i in range(256)]
COMPARE_HEADER = [
    "Algorithm", "Parameter", "No of Clusters", "Calinski Harabaz Score",
    "Silhouette Score", "Winner",
]
COMPARE_ROWS = 20
UNDEFINED = "n/a"


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _read_features(path: Path):
    rows = _rows(path)
    if not rows or rows[0] != FEATURE_HEADER:
        raise ValueError(f"{path.name}: bad header")
    body = rows[1:]
    ids = [r[0] for r in body]
    labels = [r[1] for r in body]
    counts = np.array([[float(c) for c in r[2:]] for r in body])
    return ids, labels, counts


def check_extract(path: Path, apps) -> list[str]:
    """One row per app in name order: id is the SHA-256 of the app's
    bytes, the histogram equals the generator's counts, label is 0."""
    try:
        ids, labels, counts = _read_features(path)
    except (OSError, ValueError) as exc:
        return [f"extract: {exc}"]
    problems = []
    if ids != [a.sha256 for a in apps]:
        problems.append(f"extract: ids differ from the apps' SHA-256 ({len(ids)} rows)")
    elif not np.array_equal(counts, np.vstack([a.counts for a in apps])):
        bad = [a.name for a, row in zip(apps, counts) if not np.array_equal(row, a.counts)]
        problems.append(f"extract: histograms differ for {len(bad)} apps, first {bad[0]}")
    if any(label != "0" for label in labels):
        problems.append("extract: unlabeled rows must carry label 0")
    return problems


def check_label(path: Path, apps, features: Path) -> list[str]:
    """Same rows as the extract output, labels from report consensus."""
    try:
        ids, labels, counts = _read_features(path)
        src_ids, _, src_counts = _read_features(features)
    except (OSError, ValueError) as exc:
        return [f"label: {exc}"]
    problems = []
    if ids != src_ids or not np.array_equal(counts, src_counts):
        problems.append("label: rows differ from the extract output")
    want = [str(a.malware) for a in apps]
    if labels != want:
        wrong = sum(a != b for a, b in zip(labels, want)) + abs(len(labels) - len(want))
        problems.append(f"label: {wrong} labels differ from the fixture consensus")
    return problems


def check_eval(path: Path, labels: np.ndarray, classifiers=CLASSIFIERS) -> list[str]:
    """One row per classifier; each metric recomputes from pooled counts.

    Pooled over folds that partition the rows, tp + fn is the number of
    positives P and tn + fp the number of negatives N, so TPR = tp/P and
    TNR = tn/N fix integer tp and tn, and accuracy must then equal
    (tp + tn)/n to the last bit of the printed float.
    """
    try:
        rows = _rows(path)
    except OSError as exc:
        return [f"eval: {exc}"]
    n = labels.size
    positives = int(labels.sum())
    negatives = n - positives
    if not rows or rows[0] != ["Classifier", "Accuracy", "Recall/TPR", "Specificity/TNR"]:
        return ["eval: bad header"]
    body = rows[1:]
    if [r[0] for r in body] != list(classifiers):
        return [f"eval: classifier rows {[r[0] for r in body]}"]
    problems = []
    for name, acc, tpr, tnr in body:
        try:
            tp = round(float(tpr) * positives)
            tn = round(float(tnr) * negatives)
        except ValueError:
            problems.append(f"eval: {name}: unreadable metrics {tpr!r}, {tnr!r}")
            continue
        fn, fp = positives - tp, negatives - tn
        if min(tp, tn, fn, fp) < 0 or tp + tn + fn + fp != n:
            problems.append(f"eval: {name}: counts {tp, tn, fp, fn} do not sum to n={n}")
        elif (repr(tp / positives), repr(tn / negatives), repr((tp + tn) / n)) != (tpr, tnr, acc):
            problems.append(f"eval: {name}: metrics do not recompute from pooled counts")
    return problems


def _score(cell: str) -> float | None:
    return None if cell == UNDEFINED else float(cell)


def check_compare(path: Path) -> list[str]:
    """20 rows, one winner with the top Calinski-Harabasz score, and
    silhouette scores in [-1, 1]."""
    try:
        rows = _rows(path)
    except OSError as exc:
        return [f"cluster-compare: {exc}"]
    if not rows or rows[0] != COMPARE_HEADER:
        return ["cluster-compare: bad header"]
    body = rows[1:]
    problems = []
    if len(body) != COMPARE_ROWS:
        problems.append(f"cluster-compare: {len(body)} rows, expected {COMPARE_ROWS}")
    try:
        ch = [_score(r[3]) for r in body]
        sil = [_score(r[4]) for r in body]
    except (ValueError, IndexError) as exc:
        return problems + [f"cluster-compare: unreadable score: {exc}"]
    winners = [i for i, r in enumerate(body) if r[5] == "*"]
    if len(winners) != 1:
        problems.append(f"cluster-compare: {len(winners)} winners, expected 1")
    elif ch[winners[0]] != max(c for c in ch if c is not None):
        problems.append("cluster-compare: winner lacks the top Calinski-Harabasz score")
    if any(s is not None and not -1.0 <= s <= 1.0 for s in sil):
        problems.append("cluster-compare: silhouette score outside [-1, 1]")
    if any(c is not None and not c >= 0.0 for c in ch):
        problems.append("cluster-compare: negative Calinski-Harabasz score")
    return problems


def check_elbow(path: Path, counts: np.ndarray, ks) -> list[str]:
    """One row per k with a finite SSE; at k=1 the SSE is the total
    sum of squares about the mean."""
    try:
        rows = _rows(path)
    except OSError as exc:
        return [f"elbow: {exc}"]
    if not rows or rows[0] != ["k", "SSE"]:
        return ["elbow: bad header"]
    try:
        got = [(int(k), float(sse)) for k, sse in rows[1:]]
    except ValueError as exc:
        return [f"elbow: {exc}"]
    if [k for k, _ in got] != list(ks):
        return [f"elbow: ks {[k for k, _ in got]}"]
    problems = []
    if any(not math.isfinite(s) or s < 0 for _, s in got):
        problems.append("elbow: SSE negative or not finite")
    total = float(((counts - counts.mean(axis=0)) ** 2).sum())
    if ks[0] == 1 and not math.isclose(got[0][1], total, rel_tol=1e-9):
        problems.append(f"elbow: SSE at k=1 is {got[0][1]!r}, expected {total!r}")
    return problems
