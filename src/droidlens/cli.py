"""Command-line front end.

Subcommands chain the library stages: extract opcode features from
.dex files, label rows through the scan-report oracle, compare
clustering settings, trace the elbow curve, and evaluate the plain or
clustered pipeline.  Exit codes: 0 success, 1 data or processing
error, 2 usage error.  Output files are written to a temp file and
renamed into place, so a failed run never leaves a partial file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .clustering import sse_curve
from .dataset import Dataset, read_dataset, write_dataset
from .dex import extract_histogram
from .errors import ConfigError, DexParseError, DroidlensError
from .evaluate import (
    clustering_table_csv,
    clustering_table_text,
    compare_clusterings,
    elbow_csv,
    report_csv,
    report_text,
    run_clustered_pipeline,
    run_plain_pipeline,
    side_by_side_markdown,
)
from .learn import KINDS, ClassifierSpec
from .oracle import LabelOracle, relabel

logger = logging.getLogger(__name__)

DEFAULT_SEED = 42
PROTOCOLS = ("leakfree", "paper")
CONFIG_KEYS = ("seed", "cluster_k", "cv_k", "smote", "protocol", "classifiers")

_log_handlers: list[logging.Handler] = []


def _setup_logging(verbose: bool, log_file: str | None) -> None:
    """stderr gets timestamp-free warnings (or info with --verbose);
    timestamps are confined to the optional log file, which gets info
    either way.  The handlers of an earlier call are removed and closed."""
    global _log_handlers
    pkg = logging.getLogger("droidlens")
    for handler in _log_handlers:
        pkg.removeHandler(handler)
        handler.close()
    stream = logging.StreamHandler(sys.stderr)
    stream.setLevel(logging.INFO if verbose else logging.WARNING)
    stream.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    _log_handlers = [stream]
    if log_file:
        fh = logging.FileHandler(log_file)
        fh.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        _log_handlers.append(fh)
    for handler in _log_handlers:
        pkg.addHandler(handler)
    pkg.setLevel(logging.INFO if verbose or log_file else logging.WARNING)


# --- config -------------------------------------------------------------------


def _check_seed(seed: int) -> None:
    """Seeds are unsigned 64-bit; anything outside would be wrapped."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed out of range: {seed}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    cluster_k: int = 2
    cv_k: int = 10
    smote: bool = True
    protocol: str = "leakfree"
    classifiers: tuple[ClassifierSpec, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        _check_seed(self.seed)
        for name, minimum in (("cluster_k", 1), ("cv_k", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        if not isinstance(self.smote, bool):
            raise ConfigError(f"smote must be true or false, got {self.smote!r}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"protocol must be one of {'/'.join(PROTOCOLS)}, got {self.protocol!r}"
            )
        specs = tuple(self.classifiers) or tuple(ClassifierSpec(kind=kind) for kind in KINDS)
        object.__setattr__(self, "classifiers", specs)


def _parse_classifier_entry(index: int, entry) -> ClassifierSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"classifiers[{index}] must be an object, got {entry!r}")
    unknown = sorted(set(entry) - {"kind", "hyperparameters"})
    if unknown:
        raise ConfigError(f"classifiers[{index}]: unknown keys {unknown}")
    if "kind" not in entry:
        raise ConfigError(f"classifiers[{index}]: missing 'kind'")
    hyperparameters = entry.get("hyperparameters")
    if not isinstance(hyperparameters, (dict, type(None))):
        raise ConfigError(f"classifiers[{index}]: hyperparameters must be an object")
    return ClassifierSpec(kind=entry["kind"], hyperparameters=hyperparameters or {})


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {unknown}")
    fields = dict(raw)
    entries = fields.pop("classifiers", None)
    if entries is not None:
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"config {path}: classifiers must be a non-empty list")
        fields["classifiers"] = tuple(
            _parse_classifier_entry(i, e) for i, e in enumerate(entries)
        )
    return RunConfig(**fields)


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    updates = {}
    for name in ("seed", "cluster_k", "cv_k", "smote", "protocol"):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    return replace(cfg, **updates) if updates else cfg


# --- shared plumbing ------------------------------------------------------------


def _require_file(path) -> Path:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    return path


def _check_output(path) -> Path:
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        raise ConfigError(f"output directory not found: {parent}")
    return path


def _atomic_write(path: Path, write_fn) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        write_fn(Path(tmp))
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_dataset(path: Path, ds: Dataset) -> None:
    _atomic_write(path, lambda tmp: write_dataset(ds, tmp))


# --- subcommands ----------------------------------------------------------------


def _collect_dex_units(root: Path) -> list[tuple[str, list[Path]]]:
    """One unit per .dex file in root, plus one unit per subdirectory
    holding .dex files (a multidex app; its histograms are summed)."""
    units = []
    for entry in sorted(root.iterdir()):
        if entry.is_file() and entry.suffix == ".dex":
            units.append((entry.name, [entry]))
        elif entry.is_dir():
            dexes = sorted(p for p in entry.rglob("*.dex") if p.is_file())
            if dexes:
                units.append((entry.name, dexes))
    if not units:
        raise ConfigError(f"no .dex files under {root}")
    return units


def _cmd_extract(args) -> int:
    root = Path(args.dex_dir)
    if not root.is_dir():
        raise ConfigError(f"not a directory: {root}")
    out = _check_output(args.output)
    ids = []
    rows = []
    for name, files in _collect_dex_units(root):
        digest = hashlib.sha256()
        total = None
        for f in files:
            data = f.read_bytes()
            digest.update(data)
            try:
                hist = extract_histogram(data)
            except DexParseError as exc:
                raise DexParseError(f"{f}: {exc}") from exc
            total = hist if total is None else total + hist
        ids.append(digest.hexdigest())
        rows.append(np.array(total.counts, dtype=np.float64))
        logger.info("extracted %s (%d instructions)", name, total.total)
    ds = Dataset(
        ids=tuple(ids),
        features=np.vstack(rows),
        labels=np.zeros(len(ids), dtype=np.int64),
    )
    _write_dataset(out, ds)
    print(f"wrote {ds.n} rows to {out}")
    return 0


def _cmd_label(args) -> int:
    src = _require_file(args.features)
    out = _check_output(args.output)
    ds = read_dataset(src)
    oracle = LabelOracle(args.oracle, requests_per_minute=args.rpm)
    labeled = relabel(ds, oracle, threshold=args.threshold)
    _write_dataset(out, labeled)
    malware = int(labeled.labels.sum())
    print(f"wrote {labeled.n} rows to {out} ({malware} malware, {labeled.n - malware} benign)")
    return 0


def _cmd_cluster_compare(args) -> int:
    src = _require_file(args.dataset)
    out = _check_output(args.output)
    _check_seed(args.seed)
    ds = read_dataset(src)
    rows = compare_clusterings(ds.features, seed=args.seed, standardize=args.standardize)
    _write_text(out, clustering_table_csv(rows))
    print(clustering_table_text(rows), end="")
    return 0


def _parse_k_range(text: str) -> range | list[int]:
    """Accepts '4', '1..10', or '2,4,8'."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo < 1 or hi < lo:
                raise ValueError
            return range(lo, hi + 1)  # sse_curve stops at the first k above n
        values = [int(part) for part in text.split(",")]
        if not values or any(v < 1 for v in values):
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected K, LO..HI, or a comma list of ks, got {text!r}"
        ) from None


def _cmd_elbow(args) -> int:
    src = _require_file(args.dataset)
    out = _check_output(args.output)
    _check_seed(args.seed)
    ds = read_dataset(src)
    curve = sse_curve(ds.features, args.k, seed=args.seed)
    _write_text(out, elbow_csv(curve))
    print(f"wrote elbow curve for k in {[k for k, _ in curve]} to {out}")
    return 0


def _run_one_pipeline(pipeline: str, ds: Dataset, cfg: RunConfig):
    if pipeline == "plain":
        return run_plain_pipeline(ds, cfg.classifiers, k=cfg.cv_k, seed=cfg.seed)
    return run_clustered_pipeline(
        ds,
        cfg.classifiers,
        cluster_k=cfg.cluster_k,
        k=cfg.cv_k,
        seed=cfg.seed,
        smote=cfg.smote,
        paper_protocol=cfg.protocol == "paper",
    )


def _cmd_eval(args) -> int:
    src = _require_file(args.dataset)
    out = _check_output(args.output)
    cfg = _config_from_args(args)
    ds = read_dataset(src)
    report = _run_one_pipeline(args.pipeline, ds, cfg)
    _write_text(out, report_csv(report))
    print(report_text(report), end="")
    return 0


def _cmd_compare(args) -> int:
    src = _require_file(args.dataset)
    out = _check_output(args.output)
    cfg = _config_from_args(args)
    ds = read_dataset(src)
    plain = _run_one_pipeline("plain", ds, cfg)
    clustered = _run_one_pipeline("clustered", ds, cfg)
    _write_text(out, side_by_side_markdown(plain, clustered))
    print(f"wrote comparison to {out}")
    return 0


# --- parser ------------------------------------------------------------------


def _add_pipeline_flags(sub) -> None:
    sub.add_argument("--config", help="JSON run config; flags override its values")
    sub.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    sub.add_argument("--cluster-k", dest="cluster_k", type=int, help="clusters per fold")
    sub.add_argument("--cv-k", dest="cv_k", type=int, help="cross-validation folds")
    sub.add_argument(
        "--smote",
        dest="smote",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="oversample minority class per cluster",
    )
    sub.add_argument(
        "--protocol",
        choices=PROTOCOLS,
        help="leakfree clusters per training fold; paper clusters everything first",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droidlens",
        description="Opcode-histogram malware triage: extract, cluster, classify.",
    )
    parser.add_argument("--verbose", action="store_true", help="info logging on stderr")
    parser.add_argument("--log-file", help="append timestamped logs to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="fold .dex files into an opcode feature CSV")
    p.add_argument("dex_dir")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("label", help="set labels from scan-report consensus")
    p.add_argument("features")
    p.add_argument("--oracle", required=True, help="report API base URL or fixture directory")
    p.add_argument("--threshold", type=int, default=1, help="detections needed for malware")
    p.add_argument("--rpm", type=float, default=4.0, help="oracle requests per minute")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("cluster-compare", help="validity scores across algorithms")
    p.add_argument("dataset")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--standardize", action="store_true", help="z-score features first")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_cluster_compare)

    p = sub.add_parser("elbow", help="k-means SSE curve for the elbow method")
    p.add_argument("dataset")
    p.add_argument("--k", type=_parse_k_range, default=range(1, 11),
                   help="K, LO..HI, or comma list (default 1..10)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_elbow)

    p = sub.add_parser("eval", help="cross-validated pipeline report")
    p.add_argument("pipeline", choices=("plain", "clustered"))
    p.add_argument("dataset")
    _add_pipeline_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="plain vs clustered side by side")
    p.add_argument("dataset")
    _add_pipeline_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _setup_logging(args.verbose, args.log_file)
        return args.func(args)
    except (DroidlensError, OSError) as exc:
        print(f"droidlens: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
