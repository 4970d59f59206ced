"""End-to-end command tests driven through main(argv)."""

import hashlib
import json
import os
import stat

import numpy as np
import pytest

from droidlens import evaluate
from droidlens.cli import RunConfig, load_config, main
from droidlens.dataset import CSV_HEADER, read_dataset, write_dataset
from droidlens.errors import ConfigError
from droidlens.evaluate import report_csv, run_plain_pipeline
from droidlens.learn import ClassifierSpec
from droidlens.oracle import LabelOracle
from dexfactory import (
    FIXTURE_MULTI_CLASSES,
    build_dex,
    fixture_multi,
    fixture_payload,
    fixture_plain,
    histogram_tuple,
)
from evalfactory import BlobSpec, make_ds, synth_blobs


def make_labeled_csv(path, per=18, sigma=1.0, seed=0):
    """Wire-format dataset: 256 columns, two blobs split on two dims."""
    c0 = np.zeros(256)
    c1 = np.zeros(256)
    c0[[14, 18]] = (40.0, 10.0)
    c1[[14, 18]] = (10.0, 40.0)
    spec = BlobSpec(
        centers=(tuple(c0), tuple(c1)),
        per_center_count=per,
        noise_sigma=sigma,
        labels=(0, 1),
    )
    ds = synth_blobs(spec, seed)
    write_dataset(ds, path)
    return ds


@pytest.fixture
def labeled_csv(tmp_path):
    path = tmp_path / "labeled.csv"
    make_labeled_csv(path)
    return path


# --- extract -------------------------------------------------------------------


def test_extract_fixture_corpus(tmp_path, capsys):
    corpus = tmp_path / "dex"
    corpus.mkdir()
    (corpus / "a.dex").write_bytes(fixture_plain())
    (corpus / "b.dex").write_bytes(fixture_payload())
    app = corpus / "multidex-app"
    app.mkdir()
    (app / "classes.dex").write_bytes(fixture_plain())
    (app / "classes2.dex").write_bytes(fixture_multi())
    out = tmp_path / "features.csv"

    assert main(["extract", str(corpus), "-o", str(out)]) == 0
    assert "3 rows" in capsys.readouterr().out
    ds = read_dataset(out)
    assert ds.n == 3
    assert all(len(i) == 64 for i in ds.ids)
    assert ds.ids[0] == hashlib.sha256(fixture_plain()).hexdigest()
    assert np.array_equal(ds.labels, np.zeros(3))

    plain_counts = np.array(histogram_tuple({0x12: 1, 0x13: 1, 0x00: 1, 0x0E: 1}), dtype=float)
    assert np.array_equal(ds.features[0], plain_counts)
    # Multidex rows sum their members' histograms.
    multi_counts = np.array(
        histogram_tuple({0x18: 1, 0xFA: 1, 0x90: 1, 0xB0: 1, 0x0E: 3}), dtype=float
    )
    assert np.array_equal(ds.features[2], plain_counts + multi_counts)


def test_extract_bad_dex_exits_1_and_leaves_no_output(tmp_path, capsys):
    corpus = tmp_path / "dex"
    corpus.mkdir()
    (corpus / "fine.dex").write_bytes(fixture_plain())
    (corpus / "broken.dex").write_bytes(b"not a dex at all")
    out = tmp_path / "features.csv"
    assert main(["extract", str(corpus), "-o", str(out)]) == 1
    assert "broken.dex" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("features.csv.*"))  # no temp litter


def test_extract_empty_dir_exits_1(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    assert main(["extract", str(corpus), "-o", str(tmp_path / "f.csv")]) == 1
    assert "no .dex" in capsys.readouterr().err


# --- label ----------------------------------------------------------------------


def test_label_from_fixture_dir(tmp_path, capsys):
    corpus = tmp_path / "dex"
    corpus.mkdir()
    (corpus / "a.dex").write_bytes(fixture_plain())
    (corpus / "b.dex").write_bytes(fixture_payload())
    features = tmp_path / "features.csv"
    assert main(["extract", str(corpus), "-o", str(features)]) == 0

    reports = tmp_path / "reports"
    reports.mkdir()
    ids = read_dataset(features).ids
    for file_hash, detections in ((ids[0], 3), (ids[1], 0)):
        engines = {f"engine{j}": {"detected": j < detections} for j in range(5)}
        (reports / f"{file_hash}.json").write_text(json.dumps({"engines": engines}))

    out = tmp_path / "labeled.csv"
    assert main(["label", str(features), "--oracle", str(reports), "-o", str(out)]) == 0
    assert "1 malware, 1 benign" in capsys.readouterr().out
    assert read_dataset(out).labels.tolist() == [1, 0]

    strict = tmp_path / "strict.csv"
    assert (
        main(
            [
                "label", str(features), "--oracle", str(reports),
                "--threshold", "4", "-o", str(strict),
            ]
        )
        == 0
    )
    assert read_dataset(strict).labels.tolist() == [0, 0]


def test_label_missing_report_exits_1(tmp_path, capsys):
    from droidlens.dataset import Dataset

    features = tmp_path / "features.csv"
    ds = Dataset(
        ids=("ab" * 32,),
        features=np.zeros((1, 256)),
        labels=np.zeros(1, dtype=np.int64),
    )
    write_dataset(ds, features)
    reports = tmp_path / "reports"
    reports.mkdir()
    out = tmp_path / "labeled.csv"
    assert main(["label", str(features), "--oracle", str(reports), "-o", str(out)]) == 1
    assert "no recorded report" in capsys.readouterr().err
    assert not out.exists()


def test_label_missing_fixture_dir_exits_1(tmp_path, capsys):
    features = tmp_path / "features.csv"
    write_dataset(make_ds(np.ones((2, 256)), [0, 1]), features)
    missing = tmp_path / "missing"
    out = tmp_path / "labeled.csv"
    assert main(["label", str(features), "--oracle", str(missing), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"droidlens: error: fixture directory not found: {missing}\n"
    assert not out.exists()


def _label_with_bad_cell(tmp_path, capsys, monkeypatch, cell) -> str:
    """Run ``label`` on a feature CSV whose line 3 holds ``cell``; check
    that it exits 1 before any oracle request, and return its stderr."""
    fetched = []
    monkeypatch.setattr(LabelOracle, "fetch", lambda self, h: fetched.append(h))
    rows = [[f"{i:02x}" * 32, "0"] + ["1"] * 256 for i in range(3)]
    rows[1][40] = cell
    features = tmp_path / "features.csv"
    features.write_text("\n".join(",".join(r) for r in [CSV_HEADER, *rows]) + "\n")
    reports = tmp_path / "reports"
    reports.mkdir()
    out = tmp_path / "labeled.csv"
    assert main(["label", str(features), "--oracle", str(reports), "-o", str(out)]) == 1
    assert fetched == []
    assert not out.exists()
    return capsys.readouterr().err


def test_label_rejects_negative_counts_before_any_fetch(tmp_path, capsys, monkeypatch):
    err = _label_with_bad_cell(tmp_path, capsys, monkeypatch, "-2")
    assert "line 3: negative feature value -2" in err


@pytest.mark.parametrize("cell, value", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")])
def test_label_rejects_non_finite_counts_before_any_fetch(
    tmp_path, capsys, monkeypatch, cell, value
):
    err = _label_with_bad_cell(tmp_path, capsys, monkeypatch, cell)
    assert f"line 3: non-finite feature value {value}\n" in err


@pytest.mark.parametrize("command", [["eval", "clustered"], ["cluster-compare"]])
def test_cell_above_2_pow_53_exits_1(labeled_csv, tmp_path, capsys, command):
    # Such a cell would overflow k-means' squared distances into NaN.
    lines = labeled_csv.read_text().splitlines()
    cells = lines[2].split(",")
    cells[20] = "1e200"
    lines[2] = ",".join(cells)
    labeled_csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert main([*command, str(labeled_csv), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"droidlens: error: {labeled_csv}: line 3: feature value 1e+200 above 2**53\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--threshold", "0"], "threshold must be positive, got 0"),
        (["--threshold", "-2"], "threshold must be positive, got -2"),
        (["--rpm", "nan"], "requests_per_minute must be finite and positive, got nan"),
        (["--rpm", "inf"], "requests_per_minute must be finite and positive, got inf"),
    ],
)
def test_label_rejects_bad_settings_before_any_fetch(
    tmp_path, capsys, monkeypatch, flags, message
):
    fetched = []
    monkeypatch.setattr(LabelOracle, "fetch", lambda self, h: fetched.append(h))
    features = tmp_path / "features.csv"
    write_dataset(make_ds(np.ones((2, 256)), [0, 1]), features)
    reports = tmp_path / "reports"
    reports.mkdir()
    out = tmp_path / "labeled.csv"
    argv = ["label", str(features), "--oracle", str(reports), "-o", str(out), *flags]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert fetched == []
    assert not out.exists()


# --- cluster-compare and elbow ----------------------------------------------------


def test_cluster_compare_output(labeled_csv, tmp_path, capsys):
    out = tmp_path / "table.csv"
    assert main(["cluster-compare", str(labeled_csv), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "Algorithm,Parameter,No of Clusters,Calinski Harabaz Score,"
        "Silhouette Score,Winner"
    )
    assert len(lines) == 21
    assert sum(1 for ln in lines if ln.endswith(",*")) == 1
    assert "k-means Clustering" in capsys.readouterr().out


def test_elbow_curve(labeled_csv, tmp_path):
    out = tmp_path / "elbow.csv"
    assert main(["elbow", str(labeled_csv), "--k", "1..6", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,SSE"
    ks = [int(ln.split(",")[0]) for ln in lines[1:]]
    sses = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert ks == [1, 2, 3, 4, 5, 6]
    assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    # Rows at 0, 2, 10 and 12 on one axis: every optimum is exact.
    features = np.zeros((4, 256))
    features[:, 0] = (0.0, 2.0, 10.0, 12.0)
    tiny = tmp_path / "tiny.csv"
    write_dataset(make_ds(features, [0, 1, 0, 1]), tiny)
    assert main(["elbow", str(tiny), "--k", "1..4", "-o", str(out)]) == 0
    assert out.read_bytes() == b"k,SSE\n1,104.0\n2,4.0\n3,2.0\n4,0.0\n"


def test_elbow_bad_range_exits_2(labeled_csv, tmp_path, capsys):
    code = main(["elbow", str(labeled_csv), "--k", "potato", "-o", str(tmp_path / "e.csv")])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_elbow_huge_range_exits_1(labeled_csv, tmp_path, capsys):
    # The range is checked against the row count as it is read, never
    # listed whole: listing 10**18 ks raised MemoryError.
    out = tmp_path / "e.csv"
    code = main(["elbow", str(labeled_csv), "--k", f"1..{10**18}", "-o", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("droidlens: error:") and "1 <= k <= n" in err
    assert not out.exists()


def test_elbow_comma_list(labeled_csv, tmp_path):
    out = tmp_path / "elbow.csv"
    assert main(["elbow", str(labeled_csv), "--k", "2,4", "-o", str(out)]) == 0
    ks = [ln.split(",")[0] for ln in out.read_text().splitlines()[1:]]
    assert ks == ["2", "4"]


# --- eval and compare ---------------------------------------------------------------


def test_eval_plain_matches_library_run(labeled_csv, tmp_path):
    out = tmp_path / "report.csv"
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "seed": 7,
                "cv_k": 3,
                "classifiers": [{"kind": "decision_tree"}],
            }
        )
    )
    assert main(["eval", "plain", str(labeled_csv), "--config", str(config), "-o", str(out)]) == 0
    ds = read_dataset(labeled_csv)
    want = report_csv(
        run_plain_pipeline(ds, [ClassifierSpec(kind="decision_tree")], k=3, seed=7)
    )
    assert out.read_text() == want
    assert "Decision Trees" in want


def test_eval_output_has_the_mode_of_a_plain_write(labeled_csv, tmp_path):
    out = tmp_path / "report.csv"
    plain = tmp_path / "plain.txt"
    mask = os.umask(0o022)
    try:
        assert main(["eval", "plain", str(labeled_csv), "--cv-k", "2", "-o", str(out)]) == 0
        plain.write_text("")
    finally:
        os.umask(mask)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o644


def test_eval_reduction_identity_via_cli(labeled_csv, tmp_path):
    plain_out = tmp_path / "plain.csv"
    reduced_out = tmp_path / "reduced.csv"
    common = ["--cv-k", "3", "--seed", "42"]
    assert main(["eval", "plain", str(labeled_csv), *common, "-o", str(plain_out)]) == 0
    assert (
        main(
            [
                "eval", "clustered", str(labeled_csv), *common,
                "--cluster-k", "1", "--no-smote", "-o", str(reduced_out),
            ]
        )
        == 0
    )
    assert plain_out.read_bytes() == reduced_out.read_bytes()


def test_eval_flags_override_config(labeled_csv, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 7, "cv_k": 3, "classifiers": [{"kind": "gaussian_nb"}]}))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(
        ["eval", "plain", str(labeled_csv), "--config", str(config), "--seed", "11", "-o", str(out_a)]
    ) == 0
    ds = read_dataset(labeled_csv)
    want = report_csv(run_plain_pipeline(ds, [ClassifierSpec(kind="gaussian_nb")], k=3, seed=11))
    assert out_a.read_text() == want
    # Same command again: byte-identical.
    assert main(
        ["eval", "plain", str(labeled_csv), "--config", str(config), "--seed", "11", "-o", str(out_b)]
    ) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_eval_paper_protocol_runs(labeled_csv, tmp_path):
    out = tmp_path / "paper.csv"
    assert (
        main(
            [
                "eval", "clustered", str(labeled_csv), "--cv-k", "3",
                "--protocol", "paper", "--cluster-k", "2", "-o", str(out),
                "--config", str(_dt_only_config(tmp_path)),
            ]
        )
        == 0
    )
    assert out.read_text().startswith("Classifier,")


def _dt_only_config(tmp_path):
    path = tmp_path / "dt.json"
    path.write_text(json.dumps({"classifiers": [{"kind": "decision_tree"}]}))
    return path


def test_eval_missing_input_exits_1(tmp_path, capsys):
    code = main(["eval", "plain", "missing.csv", "-o", str(tmp_path / "r.csv")])
    assert code == 1
    assert "missing.csv" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["eval", "plain", "x.csv", "--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err


def test_bad_config_exits_1(labeled_csv, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 1, "mystery": True}))
    code = main(
        ["eval", "plain", str(labeled_csv), "--config", str(config), "-o", str(tmp_path / "r.csv")]
    )
    assert code == 1
    assert "mystery" in capsys.readouterr().err


def test_bad_hyperparameter_value_exits_1(labeled_csv, tmp_path, capsys, monkeypatch):
    fits, real_fit = [], evaluate.fit
    monkeypatch.setattr(evaluate, "fit", lambda spec, ds: fits.append(spec) or real_fit(spec, ds))
    config = tmp_path / "run.json"
    # max_iter and grad_tol are the solver's constants, not settings.
    for hp in ({"l2": "0.1"}, {"max_iter": 1000}, {"grad_tol": 1e-6}):
        entry = {"kind": "logistic_regression", "hyperparameters": hp}
        config.write_text(json.dumps({"classifiers": [entry]}))
        code = main(
            ["eval", "plain", str(labeled_csv), "--config", str(config),
             "-o", str(tmp_path / "r.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "droidlens: error:" in err and next(iter(hp)) in err
        assert "Traceback" not in err
        if "l2" not in hp:
            assert "valid keys: ['l2']" in err
    assert not (tmp_path / "r.csv").exists()
    assert fits == []


@pytest.mark.parametrize("hp", [[], 0, False, "", "abc"], ids=repr)
def test_non_object_hyperparameters_exit_1(labeled_csv, tmp_path, capsys, monkeypatch, hp):
    fits, real_fit = [], evaluate.fit
    monkeypatch.setattr(evaluate, "fit", lambda spec, ds: fits.append(spec) or real_fit(spec, ds))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"classifiers": [
        {"kind": "gaussian_nb"},
        {"kind": "logistic_regression", "hyperparameters": hp},
    ]}))
    code = main(
        ["eval", "plain", str(labeled_csv), "--config", str(config), "-o", str(tmp_path / "r.csv")]
    )
    assert code == 1
    assert (
        capsys.readouterr().err
        == "droidlens: error: classifiers[1]: hyperparameters must be an object\n"
    )
    assert fits == []
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("hp", [{"n_trees": 0}, {"mtry": 0}])
def test_forest_size_checked_before_any_fit(labeled_csv, tmp_path, capsys, monkeypatch, hp):
    fits, real_fit = [], evaluate.fit
    monkeypatch.setattr(evaluate, "fit", lambda spec, ds: fits.append(spec) or real_fit(spec, ds))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"classifiers": [
        {"kind": "logistic_regression"},
        {"kind": "linear_svm"},
        {"kind": "random_forest", "hyperparameters": hp},
    ]}))
    code = main(
        ["eval", "plain", str(labeled_csv), "--config", str(config), "-o", str(tmp_path / "r.csv")]
    )
    assert code == 1
    assert f"random_forest {next(iter(hp))} must be >= 1" in capsys.readouterr().err
    assert fits == []


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "command", [["eval", "plain"], ["compare"], ["cluster-compare"], ["elbow"]]
)
def test_seed_out_of_range_exits_1(labeled_csv, tmp_path, capsys, command, seed):
    out = tmp_path / "out.csv"
    assert main([*command, str(labeled_csv), "--seed", seed, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"droidlens: error: seed out of range: {seed}\n"
    assert not out.exists()


def test_compare_summary(labeled_csv, tmp_path):
    out = tmp_path / "summary.md"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"cv_k": 3, "seed": 5}))
    assert main(["compare", str(labeled_csv), "--config", str(config), "-o", str(out)]) == 0
    table = [ln for ln in out.read_text().splitlines() if ln.startswith("|")]
    assert len(table) == 7
    for name in (
        "Logistic Regression",
        "Naive Bayes",
        "Support Vector Machines",
        "Decision Trees",
        "Random Forest",
    ):
        assert any(ln.startswith(f"| {name} |") for ln in table)


_HASH = "ab" * 32
_HEADER = ",".join(CSV_HEADER).encode() + b"\n"
_ROW = ",".join([_HASH, "0"] + ["1"] * 256).encode() + b"\n"
_DEEP = b"[" * 100_000  # deeper than the interpreter's recursion limit


@pytest.mark.parametrize(
    "read_as, content",
    [
        ("csv", _HEADER.replace(b"op_05", b"op_\xff5") + _ROW),
        ("csv", _HEADER + _ROW.replace(_HASH.encode(), b"a" * 200_000)),
        ("config", b'{"seed": 1}\xff'),
        ("config", _DEEP),
        ("config", b'{"classifiers": [{"kind": "decision_tree", "hyperparameters": '
         b'{"max_depth": ' + _DEEP + b"}}]}"),
        ("fixture", b'{"engines": {}}\xff'),
        ("fixture", _DEEP),
    ],
    ids=[
        "csv-0xff-header", "csv-huge-cell", "config-0xff", "config-deep",
        "config-deep-hyperparameters", "fixture-0xff", "fixture-deep",
    ],
)
def test_undecodable_input_exits_1_naming_the_file(tmp_path, capsys, read_as, content):
    features = tmp_path / "features.csv"
    features.write_bytes(_HEADER + _ROW)
    reports = tmp_path / "reports"
    reports.mkdir()
    config = tmp_path / "run.json"
    bad = {"csv": features, "config": config, "fixture": reports / f"{_HASH}.json"}[read_as]
    bad.write_bytes(content)
    argv = {
        "csv": ["eval", "plain", str(features)],
        "config": ["eval", "plain", str(features), "--config", str(config)],
        "fixture": ["label", str(features), "--oracle", str(reports)],
    }[read_as]
    out = tmp_path / "out.csv"
    assert main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("droidlens: error: ")
    assert str(bad) in err
    assert not out.exists()


# --- config object ------------------------------------------------------------------


def test_config_validation_direct(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ConfigError, match="cv_k"):
        RunConfig(cv_k=1)
    with pytest.raises(ConfigError, match="protocol"):
        RunConfig(protocol="fast")
    with pytest.raises(ConfigError, match="smote"):
        RunConfig(smote="yes")
    cfg = RunConfig()
    assert cfg.seed == 42
    assert cfg.classifiers == tuple(
        ClassifierSpec(kind=kind) for kind in (
            "logistic_regression", "gaussian_nb", "linear_svm", "decision_tree", "random_forest",
        )
    )
    named = (ClassifierSpec(kind="decision_tree"),)
    assert RunConfig(classifiers=named).classifiers == named

    path = tmp_path / "c.json"
    path.write_text(json.dumps({"classifiers": [{"kind": "decision_tree", "seed": 1}]}))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    path.write_text(json.dumps({"classifiers": []}))
    with pytest.raises(ConfigError, match="non-empty"):
        load_config(path)


def test_logging_handlers_replaced_per_run(tmp_path, capsys):
    corpus = tmp_path / "dex"
    corpus.mkdir()
    (corpus / "a.dex").write_bytes(fixture_plain())
    out = str(tmp_path / "f.csv")
    logs = [tmp_path / "a.log", tmp_path / "b.log"]
    for log in logs:
        assert main(["--log-file", str(log), "extract", str(corpus), "-o", out]) == 0
    # Each file holds only its own run's line, and without --verbose
    # stderr gets no INFO lines.
    for log in logs:
        assert log.read_text().count("extracted a.dex") == 1
    assert "INFO" not in capsys.readouterr().err
    assert main(["--verbose", "extract", str(corpus), "-o", out]) == 0
    assert "INFO droidlens.cli: extracted a.dex" in capsys.readouterr().err
    assert all(log.read_text().count("extracted a.dex") == 1 for log in logs)
    assert main(["extract", str(corpus), "-o", out]) == 0
    assert "INFO" not in capsys.readouterr().err


def test_log_file_in_missing_directory_exits_1(labeled_csv, tmp_path, capsys):
    log = tmp_path / "missing" / "run.log"
    out = tmp_path / "elbow.csv"
    assert main(["--log-file", str(log), "elbow", str(labeled_csv), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("droidlens: error:") and str(log) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_multidex_constant_under_file_ordering(tmp_path):
    # The unit hash folds files in sorted name order, so renaming
    # changes the id but identical bytes in the same order do not.
    corpus_a = tmp_path / "a"
    corpus_b = tmp_path / "b"
    for corpus in (corpus_a, corpus_b):
        app = corpus / "app"
        app.mkdir(parents=True)
        (app / "classes.dex").write_bytes(fixture_plain())
        (app / "classes2.dex").write_bytes(fixture_payload())
    out_a = tmp_path / "fa.csv"
    out_b = tmp_path / "fb.csv"
    assert main(["extract", str(corpus_a), "-o", str(out_a)]) == 0
    assert main(["extract", str(corpus_b), "-o", str(out_b)]) == 0
    assert read_dataset(out_a).ids == read_dataset(out_b).ids
