"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to stream them)
and asserts both the property and its runtime budget.  Oracles are
imported from the per-module test files so the checked values stay
independent of the implementation.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import test_uleb128 as uleb
from droidlens.clustering import calinski_harabasz, exact_distances, kmeans, silhouette
from droidlens.dex import extract_histogram, parse_dex
from droidlens.errors import DexParseError
from droidlens.evaluate import (
    ConfusionCounts,
    aggregate_metrics,
    kfold_indices,
    metrics,
    report_csv,
    report_text,
    run_clustered_pipeline,
    run_plain_pipeline,
)
from droidlens.learn import KINDS, ClassifierSpec, smote_balance

from dexfactory import (
    FIXTURE_MULTI_COUNTS,
    FIXTURE_PAYLOAD_COUNTS,
    FIXTURE_PLAIN_COUNTS,
    build_dex,
    fixture_empty,
    fixture_multi,
    fixture_payload,
    fixture_plain,
)
from evalfactory import four_blob_dataset, make_ds, noisy_blob_dataset
from test_clustering import AABB, FOUR_POINTS, oracle_ch, oracle_silhouette
from test_eval import check_fold_partition, oracle_metrics
from test_learn import segment_residual


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _within_budget(name, ok, detail, elapsed, budget) -> None:
    detail = f"{detail} ({elapsed:.2f}s, budget {budget:.0f}s)"
    _criterion(name, ok and elapsed < budget, detail)


def test_reproduction_guide_present():
    # The published corpus-scale numbers need the Drebin malware set
    # plus a private benign collection, neither shipped here; the
    # README must document the exact commands for corpus holders.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.is_file() else ""
    needed = ("Reproduc", "droidlens extract", "droidlens eval", "cluster-compare")
    missing = [s for s in needed if s not in text]
    _criterion(
        "reproduction guide",
        not missing,
        "README documents the corpus walkthrough"
        if not missing
        else f"README lacks {missing}",
    )


def test_metric_oracle_exact():
    rng = np.random.default_rng(20240401)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
        got = metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        want = oracle_metrics(tp, tn, fp, fn)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                worst = max(worst, abs(g - float(w)))
    elapsed = time.perf_counter() - t0
    _within_budget(
        "metric oracle", worst <= 1e-12, f"1000 cases, max err {worst:.1e}", elapsed, 1.0
    )


def _random_partition(rng):
    n = int(rng.integers(6, 51))
    d = int(rng.integers(1, 9))
    k = int(rng.integers(2, min(6, n - 1) + 1))
    X = rng.uniform(0, 20, (n, d))
    labels = rng.integers(0, k, n)
    labels[:k] = np.arange(k)  # every cluster occupied
    rng.shuffle(labels)
    return X, labels


def test_validity_index_oracles():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        X, labels = _random_partition(rng)
        for got, want in (
            (calinski_harabasz(X, labels), oracle_ch(X, labels)),
            (silhouette(exact_distances(X), labels), oracle_silhouette(X, labels)),
        ):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))

    ch = calinski_harabasz(FOUR_POINTS, AABB)
    sil = silhouette(exact_distances(FOUR_POINTS), AABB)
    worked = ch == 200.0 and abs(sil - 0.89974937) < 1e-7
    elapsed = time.perf_counter() - t0
    _within_budget(
        "validity-index oracle",
        worst <= 1e-9 and worked,
        f"100 datasets, max rel err {worst:.1e}; worked example CH={ch:g} sil={sil:.8f}",
        elapsed,
        10.0,
    )


def test_kmeans_monotone_and_blob_recovery():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    # Every Lloyd iteration self-checks that SSE did not increase and
    # raises otherwise; here the returned SSE is also recomputed from
    # the final centroids as an external check.
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(8, 80))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(6, n) + 1))
        X = rng.uniform(0, 10, (n, d))
        model, labels = kmeans(X, k, seed=int(rng.integers(0, 2**31)))
        sse = sum(
            float(((X[labels == c] - model.centroids[c]) ** 2).sum()) for c in range(k)
        )
        worst = max(worst, abs(sse - model.sse) / max(1.0, sse))

    recovered = 0
    for seed in range(10):
        blob_rng = np.random.default_rng(1000 + seed)
        X = np.vstack(
            [
                blob_rng.normal((0.0, 0.0), 0.1, (40, 2)),
                blob_rng.normal((6.0, 6.0), 0.1, (40, 2)),
            ]
        )
        _, labels = kmeans(X, 2, seed=seed)
        two_sides = (labels[:40] == labels[0]).all() and (labels[40:] == labels[40]).all()
        if two_sides and labels[0] != labels[40]:
            recovered += 1
    elapsed = time.perf_counter() - t0
    _within_budget(
        "k-means",
        worst <= 1e-9 and recovered == 10,
        f"SSE recheck on 60 runs (max drift {worst:.1e}); blob recovery {recovered}/10 seeds",
        elapsed,
        5.0,
    )


def test_smote_residuals():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    balanced_ok = True
    for trial in range(50):
        n_min = int(rng.integers(2, 10))
        n_maj = int(rng.integers(n_min + 1, 30))
        d = int(rng.integers(1, 6))
        X = np.vstack([rng.uniform(0, 40, (n_maj, d)), rng.uniform(0, 40, (n_min, d))])
        y = np.array([0] * n_maj + [1] * n_min)
        out = smote_balance(make_ds(X, y), seed=trial)
        counts = np.bincount(out.labels, minlength=2)
        balanced_ok = balanced_ok and counts[0] == counts[1] == n_maj
        minority = X[y == 1]
        for row in out.features[n_maj + n_min :]:
            worst = max(worst, segment_residual(row, minority))
    elapsed = time.perf_counter() - t0
    _within_budget(
        "SMOTE",
        balanced_ok and worst < 1e-9,
        f"50 datasets balanced, max segment residual {worst:.1e}",
        elapsed,
        5.0,
    )


def test_fold_partition_search():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    cases = 0
    while cases < 500:
        n = int(rng.integers(2, 121))
        k = int(rng.integers(2, 16))
        if k > n:
            continue
        p = float(rng.uniform(0.05, 0.95))
        labels = (rng.random(n) < p).astype(int)
        folds = kfold_indices(labels, k=k, seed=cases)
        counts = np.bincount(labels, minlength=2)
        check_fold_partition(folds, labels, k, expect_stratified=counts.min() >= k)
        cases += 1
    elapsed = time.perf_counter() - t0
    _within_budget(
        "cross-validation folds", True, f"{cases} randomized cases", elapsed, 5.0
    )


def test_clustered_beats_plain_on_four_blobs():
    spec = ClassifierSpec(kind="logistic_regression")
    t0 = time.perf_counter()
    gaps = []
    for seed in range(5):
        ds = four_blob_dataset(seed)
        plain = run_plain_pipeline(ds, [spec], k=10, seed=seed)
        clustered = run_clustered_pipeline(ds, [spec], cluster_k=2, k=10, seed=seed)
        gaps.append(
            aggregate_metrics(clustered.rows[0].folds)[0]
            - aggregate_metrics(plain.rows[0].folds)[0]
        )
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - t0
    _within_budget(
        "direction of effect",
        mean_gap >= 0.10,
        f"clustered LR beats plain by {100 * mean_gap:.1f} points (5 seeds)",
        elapsed,
        60.0,
    )


def test_classifier_sanity():
    t0 = time.perf_counter()
    means = {}
    for kind in ("decision_tree", "random_forest"):
        accs = []
        for seed in range(10):
            noisy = noisy_blob_dataset(seed)
            report = run_plain_pipeline(noisy, [ClassifierSpec(kind=kind)], k=5, seed=seed)
            accs.append(aggregate_metrics(report.rows[0].folds)[0])
        means[kind] = float(np.mean(accs))

    clean = noisy_blob_dataset(0, flip=0.0)
    baseline = max(float(clean.labels.mean()), 1 - float(clean.labels.mean()))
    clean_accs = {}
    for kind in KINDS:
        report = run_plain_pipeline(clean, [ClassifierSpec(kind=kind)], k=5, seed=0)
        clean_accs[kind] = aggregate_metrics(report.rows[0].folds)[0]
    elapsed = time.perf_counter() - t0
    ok = means["random_forest"] >= means["decision_tree"] and all(
        acc > baseline for acc in clean_accs.values()
    )
    _within_budget(
        "classifier sanity",
        ok,
        f"noisy CV acc RF {means['random_forest']:.3f} >= DT {means['decision_tree']:.3f}; "
        f"clean accs all > {baseline:.2f} baseline (min {min(clean_accs.values()):.3f})",
        elapsed,
        120.0,
    )


def test_dex_parser_criteria():
    t0 = time.perf_counter()
    cases = [
        (fixture_plain(), FIXTURE_PLAIN_COUNTS),
        (fixture_payload(), FIXTURE_PAYLOAD_COUNTS),
        (fixture_multi(), FIXTURE_MULTI_COUNTS),
        (fixture_empty(), {}),
    ]
    for data, expected in cases:
        got = {op: c for op, c in enumerate(extract_histogram(data).counts) if c}
        assert got == expected, f"histogram mismatch: {got} != {expected}"

    uleb.test_one_byte_exhaustive()
    uleb.test_two_byte_exhaustive()
    uleb.test_three_byte_exhaustive()

    # Truncation fuzz: every strict prefix of a corpus of valid files
    # must raise the parse error, never crash or read out of bounds.
    corpus = [data for data, _ in cases]
    for n_classes in (8, 16, 32, 64, 96):
        corpus.append(build_dex([[[0x000E]] for _ in range(n_classes)]))
    variants = 0
    for data in corpus:
        for cut in range(len(data)):
            with pytest.raises(DexParseError):
                parse_dex(data[:cut])
            variants += 1
    elapsed = time.perf_counter() - t0
    _within_budget(
        "DEX parser",
        variants >= 10_000,
        f"fixture histograms exact; ULEB128 1-3 byte exhaustive; "
        f"{variants} truncations all clean errors",
        elapsed,
        30.0,
    )


def test_reduction_identity():
    specs = [ClassifierSpec(kind=k) for k in KINDS]
    ds = noisy_blob_dataset(4, per=30)
    t0 = time.perf_counter()
    plain = run_plain_pipeline(ds, specs, k=5, seed=42)
    reduced = run_clustered_pipeline(ds, specs, cluster_k=1, k=5, seed=42, smote=False)
    same = (
        report_csv(plain) == report_csv(reduced)
        and report_text(plain) == report_text(reduced)
    )
    elapsed = time.perf_counter() - t0
    _within_budget(
        "reduction identity",
        same,
        "cluster_k=1 without SMOTE serializes byte-identical to plain",
        elapsed,
        60.0,
    )
