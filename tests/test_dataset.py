"""Dataset type, CSV round trip, consensus labeling, blob synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from droidlens.dataset import (
    CSV_HEADER,
    Dataset,
    ScanVerdicts,
    consensus_label,
    read_dataset,
    write_dataset,
)
from droidlens.errors import DatasetError, NoVerdictsError

from evalfactory import BlobSpec, datasets_equal, synth_blobs


def make_ds(features, labels, ids=None):
    features = np.asarray(features, dtype=np.float64)
    if ids is None:
        ids = tuple(f"row{i}" for i in range(features.shape[0]))
    return Dataset(ids=ids, features=features, labels=np.asarray(labels))


# --- Construction and invariants -----------------------------------------


def test_length_mismatch_rejected():
    with pytest.raises(DatasetError, match="length mismatch"):
        Dataset(ids=("a",), features=np.zeros((2, 3)), labels=np.array([0, 1]))
    with pytest.raises(DatasetError, match="length mismatch"):
        Dataset(ids=("a", "b"), features=np.zeros((2, 3)), labels=np.array([0]))


def test_bad_labels_rejected():
    with pytest.raises(DatasetError, match="labels"):
        make_ds([[1.0], [2.0]], [0, 2])
    with pytest.raises(DatasetError, match="labels"):
        make_ds([[1.0]], [-1])


def test_non_finite_features_rejected():
    with pytest.raises(DatasetError, match="NaN"):
        make_ds([[np.nan]], [0])
    with pytest.raises(DatasetError, match="NaN"):
        make_ds([[np.inf]], [1])


def test_arrays_are_read_only():
    ds = make_ds([[1.0, 2.0]], [1])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 0


def test_take():
    ds = make_ds([[0.0], [1.0], [2.0]], [0, 1, 0])
    sub = ds.take([2, 0])
    assert sub.ids == ("row2", "row0")
    assert sub.features[:, 0].tolist() == [2.0, 0.0]
    assert sub.labels.tolist() == [0, 0]


# --- CSV round trip -------------------------------------------------------


def _random_wire_dataset(rng, n):
    # Mix of integer counts and fractional values, plus awkward ids.
    features = rng.integers(0, 5000, size=(n, 256)).astype(np.float64)
    mask = rng.random(size=features.shape) < 0.3
    features[mask] += rng.random(size=int(mask.sum()))
    ids = []
    for i in range(n):
        base = f"sample-{i:04d}"
        if i % 7 == 0:
            base += ',with "quotes", and commas'
        ids.append(base)
    labels = rng.integers(0, 2, size=n)
    return Dataset(ids=tuple(ids), features=features, labels=labels)


@given(n=st.integers(min_value=0, max_value=12), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_round_trip_identity(n, seed, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "ds.csv"
    ds = _random_wire_dataset(np.random.default_rng(seed), n)
    write_dataset(ds, path)
    assert datasets_equal(read_dataset(path), ds)


def test_empty_dataset_round_trip(tmp_path):
    path = tmp_path / "empty.csv"
    ds = Dataset(ids=(), features=np.empty((0, 256)), labels=np.array([], dtype=np.int64))
    write_dataset(ds, path)
    text = path.read_text()
    assert text.strip() == ",".join(CSV_HEADER)
    again = read_dataset(path)
    assert again.n == 0 and again.dim == 256


def test_integral_values_written_without_decimal_point(tmp_path):
    path = tmp_path / "ints.csv"
    features = np.zeros((1, 256))
    features[0, 0] = 3.0
    features[0, 1] = 0.5
    write_dataset(make_ds(features, [1], ids=("x",)), path)
    line = path.read_text().splitlines()[1]
    cells = line.split(",")
    assert cells[2] == "3"
    assert cells[3] == "0.5"


def test_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    good = ["h"] + ["1"] + ["0"] * 256
    bad = ["h2"] + ["1"] + ["0"] * 255
    path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(good) + "\n" + ",".join(bad) + "\n")
    with pytest.raises(DatasetError, match="line 3"):
        read_dataset(path)


def test_non_numeric_cell_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    row = ["h", "1"] + ["0"] * 256
    row[5] = "abc"
    path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n")
    with pytest.raises(DatasetError, match="line 2"):
        read_dataset(path)


@pytest.mark.parametrize(
    "cell, value",
    [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf")],
)
def test_non_finite_cell_names_line(tmp_path, cell, value):
    path = tmp_path / "bad.csv"
    rows = [["h0", "0"] + ["1"] * 256, ["h1", "1"] + ["1"] * 256]
    rows[1][9] = cell
    rows[1][12] = "-3"
    path.write_text("\n".join(",".join(r) for r in [CSV_HEADER, *rows]) + "\n")
    with pytest.raises(DatasetError) as info:
        read_dataset(path)
    assert str(info.value) == f"{path}: line 3: non-finite feature value {value}"


def test_cell_above_2_pow_53_names_line(tmp_path):
    path = tmp_path / "big.csv"
    rows = [["h0", "0"] + ["1"] * 256, ["h1", "1"] + ["1"] * 256]
    rows[0][5] = str(2**53)  # the bound itself is a count
    rows[1][9] = "1e200"
    path.write_text("\n".join(",".join(r) for r in [CSV_HEADER, *rows]) + "\n")
    with pytest.raises(DatasetError) as info:
        read_dataset(path)
    assert str(info.value) == f"{path}: line 3: feature value 1e+200 above 2**53"
    rows[1][9] = "1"
    path.write_text("\n".join(",".join(r) for r in [CSV_HEADER, *rows]) + "\n")
    assert read_dataset(path).features[0, 3] == 2.0**53


def test_label_outside_01_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    row = ["h", "2"] + ["0"] * 256
    path.write_text(",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n")
    with pytest.raises(DatasetError, match="label"):
        read_dataset(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(DatasetError, match="header"):
        read_dataset(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetError, match="empty"):
        read_dataset(empty)


def test_wrong_width_not_writable(tmp_path):
    ds = make_ds([[1.0, 2.0]], [0])
    with pytest.raises(DatasetError, match="256"):
        write_dataset(ds, tmp_path / "w.csv")


def test_cells_above_2_pow_53_not_writable(tmp_path):
    features = np.zeros((1, 256))
    features[0, 3] = 1e200
    with pytest.raises(DatasetError, match=r"1e\+200 above 2\*\*53"):
        write_dataset(make_ds(features, [0]), tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


def test_negative_features_not_writable(tmp_path):
    features = np.zeros((1, 256))
    features[0, 3] = -1.0
    ds = make_ds(features, [0])
    with pytest.raises(DatasetError, match="negative"):
        write_dataset(ds, tmp_path / "w.csv")


# --- Consensus labeling ---------------------------------------------------


def _verdicts(detected, clean):
    engines = {f"det{i}": True for i in range(detected)}
    engines.update({f"clean{i}": False for i in range(clean)})
    return ScanVerdicts(file_hash="ab" * 32, engines=engines)


def test_one_of_sixty_is_malware():
    assert consensus_label(_verdicts(1, 59)) == 1


def test_zero_of_sixty_is_benign():
    assert consensus_label(_verdicts(0, 60)) == 0


def test_all_detected_is_malware():
    assert consensus_label(_verdicts(60, 0)) == 1


def test_threshold_raises_bar():
    assert consensus_label(_verdicts(2, 10), threshold=3) == 0
    assert consensus_label(_verdicts(3, 10), threshold=3) == 1


def test_empty_engines_is_an_error():
    with pytest.raises(NoVerdictsError):
        consensus_label(ScanVerdicts(file_hash="ab" * 32, engines={}))


def test_bad_threshold_rejected():
    with pytest.raises(DatasetError):
        consensus_label(_verdicts(1, 1), threshold=0)


@given(
    st.lists(st.booleans(), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=39),
    st.integers(min_value=1, max_value=5),
)
def test_consensus_monotone_in_detections(flags, flip_at, threshold):
    # Turning one engine's verdict on never flips malware back to benign.
    flip_at %= len(flags)
    before = consensus_label(_verdicts(sum(flags), len(flags) - sum(flags)), threshold)
    flags2 = list(flags)
    flags2[flip_at] = True
    after = consensus_label(_verdicts(sum(flags2), len(flags2) - sum(flags2)), threshold)
    assert after >= before


# --- Synthetic blobs ------------------------------------------------------


def test_zero_sigma_reproduces_centers():
    spec = BlobSpec(
        centers=((1.0, 2.0, 3.0), (7.0, 8.0, 9.0)),
        per_center_count=4,
        noise_sigma=0.0,
        labels=(0, 1),
    )
    ds = synth_blobs(spec, seed=5)
    assert ds.n == 8
    assert np.array_equal(ds.features[:4], np.tile([1.0, 2.0, 3.0], (4, 1)))
    assert np.array_equal(ds.features[4:], np.tile([7.0, 8.0, 9.0], (4, 1)))
    assert ds.labels.tolist() == [0] * 4 + [1] * 4


def test_same_seed_identical_datasets():
    spec = BlobSpec(centers=((0.0, 5.0),), per_center_count=16, noise_sigma=2.0, labels=(1,))
    a = synth_blobs(spec, seed=99)
    b = synth_blobs(spec, seed=99)
    assert datasets_equal(a, b)
    c = synth_blobs(spec, seed=100)
    assert not datasets_equal(a, c)


def test_negative_draws_clamped():
    spec = BlobSpec(centers=((0.0,) * 6,), per_center_count=200, noise_sigma=3.0, labels=(0,))
    ds = synth_blobs(spec, seed=1)
    assert ds.features.min() == 0.0  # clamping visibly hit
    assert ds.features.max() > 0.0


def test_blob_spec_validation():
    with pytest.raises(DatasetError):
        BlobSpec(centers=(), per_center_count=1, noise_sigma=0.0, labels=())
    with pytest.raises(DatasetError):
        BlobSpec(centers=((0.0,),), per_center_count=0, noise_sigma=0.0, labels=(0,))
    with pytest.raises(DatasetError):
        BlobSpec(centers=((0.0,),), per_center_count=1, noise_sigma=-1.0, labels=(0,))
    with pytest.raises(DatasetError):
        BlobSpec(centers=((0.0,), (1.0, 2.0)), per_center_count=1, noise_sigma=0.0, labels=(0, 1))
    with pytest.raises(DatasetError):
        BlobSpec(centers=((0.0,),), per_center_count=1, noise_sigma=0.0, labels=(3,))
