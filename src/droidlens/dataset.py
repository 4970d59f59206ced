"""Feature datasets: assembly, CSV persistence, labeling.

A Dataset ties together row ids, an n by d feature matrix, and binary
labels (0 benign, 1 malware).  The on-disk CSV format is fixed at 256
opcode columns; in memory any width is allowed so that small synthetic
problems can exercise the learners.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import DatasetError, NoVerdictsError

N_OPCODE_FEATURES = 256
CSV_HEADER = ["id", "label"] + [f"op_{i:02x}" for i in range(N_OPCODE_FEATURES)]
# Largest cell a feature CSV holds.  Opcode counts stay below 2**32; at
# 2**53 a sum of squares over 256 columns is still far inside float64,
# where a cell such as 1e200 makes k-means' distances overflow.
_MAX_CELL = 2.0**53


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable rows of (id, feature vector, label).

    Feature values are float64.  Raw ingest produces non-negative
    counts; oversampling keeps them non-negative but fractional.  The
    matrix itself accepts any finite reals so derived fixtures (for
    example standardized or signed toy problems) can reuse the type.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(str(i) for i in self.ids)
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise DatasetError(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if len(ids) != n or labels.shape != (n,):
            raise DatasetError(
                f"length mismatch: {len(ids)} ids, {n} feature rows, "
                f"{labels.shape[0] if labels.ndim == 1 else 'non-vector'} labels"
            )
        if n and not np.isfinite(features).all():
            raise DatasetError("features contain NaN or infinity")
        bad = set(np.unique(labels)) - {0, 1}
        if bad:
            raise DatasetError(f"labels outside {{0, 1}}: {sorted(bad)}")
        features = features.copy()
        labels = labels.copy()
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            ids=tuple(self.ids[i] for i in idx),
            features=self.features[idx],
            labels=self.labels[idx],
        )


def _format_cell(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_dataset(ds: Dataset, path) -> None:
    """Write `id,label,op_00,...,op_ff` CSV (258 columns).

    Integer-valued features are printed as integers; fractional values
    use repr, which round-trips float64 exactly.
    """
    if ds.n and ds.dim != N_OPCODE_FEATURES:
        raise DatasetError(
            f"CSV format holds {N_OPCODE_FEATURES} feature columns, dataset has {ds.dim}"
        )
    if ds.n and ds.features.min() < 0:
        raise DatasetError("negative feature values cannot be persisted as counts")
    if ds.n and ds.features.max() > _MAX_CELL:
        raise DatasetError(
            f"feature value {ds.features.max():g} above 2**53 cannot be persisted"
        )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(ds.n):
            row = [ds.ids[i], str(int(ds.labels[i]))]
            row.extend(_format_cell(v) for v in ds.features[i])
            writer.writerow(row)


def _csv_rows(path, fh):
    """The CSV records of ``fh``; a non-UTF-8 byte or a csv error (such
    as a cell above the field size limit) raises DatasetError naming ``path``."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None


def read_dataset(path) -> Dataset:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = _csv_rows(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a CSV header") from None
        if header != CSV_HEADER:
            raise DatasetError(f"{path}: bad header, expected id,label,op_00,...,op_ff")
        ids: list[str] = []
        labels: list[int] = []
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise DatasetError(
                    f"{path}: line {line_no}: {len(row)} fields, expected {len(CSV_HEADER)}"
                )
            try:
                label = float(row[1])
                values = [float(cell) for cell in row[2:]]
            except ValueError as exc:
                raise DatasetError(f"{path}: line {line_no}: {exc}") from None
            if label not in (0.0, 1.0):
                raise DatasetError(f"{path}: line {line_no}: label {row[1]} outside {{0, 1}}")
            ids.append(row[0])
            labels.append(int(label))
            rows.append(values)
    features = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.empty((0, N_OPCODE_FEATURES), dtype=np.float64)
    )
    # Opcode counts are finite, never negative and at most _MAX_CELL, and
    # write_dataset refuses other values.  The first bad cell in file
    # order is named.
    bad = ~((features >= 0) & (features <= _MAX_CELL))  # NaN fails both
    if bad.any():
        row, col = np.unravel_index(np.argmax(bad), bad.shape)
        value = features[row, col]
        if not np.isfinite(value):
            what = f"non-finite feature value {value:g}"
        elif value < 0:
            what = f"negative feature value {value:g}"
        else:
            what = f"feature value {value:g} above 2**53"
        raise DatasetError(f"{path}: line {row + 2}: {what}")
    return Dataset(ids=tuple(ids), features=features, labels=np.array(labels, dtype=np.int64))


@dataclass(frozen=True)
class ScanVerdicts:
    """Per-engine detection verdicts for one file hash."""

    file_hash: str
    engines: Mapping[str, bool]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "engines", MappingProxyType({str(k): bool(v) for k, v in self.engines.items()})
        )

    @property
    def detections(self) -> int:
        return sum(self.engines.values())


def check_threshold(threshold: int) -> None:
    if threshold < 1:
        raise DatasetError(f"threshold must be positive, got {threshold}")


def consensus_label(v: ScanVerdicts, threshold: int = 1) -> int:
    """1 (malware) iff at least ``threshold`` engines flagged the file."""
    check_threshold(threshold)
    if not v.engines:
        raise NoVerdictsError(f"no engine verdicts for {v.file_hash}; label unknown")
    return 1 if v.detections >= threshold else 0
