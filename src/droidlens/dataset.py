"""Feature datasets: assembly and CSV persistence.

A Dataset ties together row ids, an n by d feature matrix, and binary
labels (0 benign, 1 malware).  The on-disk CSV format is fixed at 256
opcode columns; in memory any width is allowed so that small synthetic
problems can exercise the learners.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError

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

    A Dataset adopts the arrays it is handed instead of copying them:
    float64 features or int64 labels passed in become read-only, and a
    writable view of them kept elsewhere can still change them.
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
    use repr, which round-trips float64 exactly.  A row of whole
    numbers, as every ``extract`` row is, goes to the writer as int64
    values, with no Python float per cell.
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
        for row_id, label, row in zip(ds.ids, ds.labels.tolist(), ds.features):
            counts = row.astype(np.int64)
            cells = counts.tolist() if (counts == row).all() else map(_format_cell, row)
            writer.writerow([row_id, label, *cells])


_HEADER_LINE = ",".join(CSV_HEADER)
# No plain record holds one of these.  A quote or a line end inside a
# record is csv syntax, NUL is a csv error on Python 3.10, and numpy
# strips \x1c-\x1f as whitespace where float() refuses them.
_NOT_PLAIN = ('"', "\r", "\n", "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain(path):
    """(ids, labels, features, line numbers) of a plain feature CSV in
    one vectorised parse, or None.

    A plain file is UTF-8, its first line is the header, its lines all
    end in ``\\n`` or all in ``\\r\\n``, and every other line is a
    record of 258 fields that holds no character of ``_NOT_PLAIN`` and
    is no longer than csv's field size limit.  csv.reader splits such a
    line at its commas, so an id is the line up to its first comma, and
    one ``np.loadtxt`` call parses labels and features to the values
    float() gives.  A cell loadtxt refuses, or a label outside {0, 1},
    also returns None, and the record loop names the fault.  The
    features are a strided view of loadtxt's n×257 table, not a copy.
    """
    ids = []
    limit = csv.field_size_limit()
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            header = fh.readline()
            end = header[len(_HEADER_LINE):]
            if not header.startswith(_HEADER_LINE) or end not in ("\n", "\r\n"):
                return None
            for line in fh:
                record = line[: -len(end)] if line.endswith(end) else line
                if (
                    record.count(",") != len(CSV_HEADER) - 1
                    or len(record) > limit
                    or any(c in record for c in _NOT_PLAIN)
                ):
                    return None
                ids.append(record[: record.index(",")])
            if not ids:
                return None
            fh.seek(0)
            table = np.loadtxt(
                fh, delimiter=",", usecols=range(1, len(CSV_HEADER)), comments=None,
                skiprows=1, ndmin=2,
            )
        except ValueError:  # UnicodeDecodeError too
            return None
    labels = table[:, 0]
    if len(table) != len(ids) or not ((labels == 0) | (labels == 1)).all():
        return None
    return ids, labels.astype(np.int64), table[:, 1:], range(2, len(ids) + 2)


def _csv_records(path, fh):
    """(line, fields) of each CSV record of ``fh``, line being the file
    line the record starts on; a non-UTF-8 byte or a csv error (such as
    a cell above the field size limit) raises DatasetError naming
    ``path``."""
    reader = csv.reader(fh)
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_records(path):
    """(ids, labels, features, line numbers) of any feature CSV, one
    csv.reader record at a time; the first bad record raises."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        records = _csv_records(path, fh)
        try:
            _, header = next(records)
        except StopIteration:
            raise DatasetError(f"{path}: empty file, expected a CSV header") from None
        if header != CSV_HEADER:
            raise DatasetError(f"{path}: bad header, expected id,label,op_00,...,op_ff")
        ids: list[str] = []
        labels: list[int] = []
        rows: list[list[float]] = []
        lines: list[int] = []
        for line_no, row in records:
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
            lines.append(line_no)
    features = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.empty((0, N_OPCODE_FEATURES), dtype=np.float64)
    )
    return ids, np.array(labels, dtype=np.int64), features, lines


def read_dataset(path) -> Dataset:
    """The Dataset of a feature CSV.

    A plain file (see ``_read_plain``) is parsed in one vectorised
    pass; any other file is read by the record loop, whose errors name
    the file line a bad record starts on.
    """
    ids, labels, features, lines = _read_plain(path) or _read_records(path)
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
        raise DatasetError(f"{path}: line {lines[row]}: {what}")
    return Dataset(ids=tuple(ids), features=features, labels=labels)
