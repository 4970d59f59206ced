"""droidlens benchmark: four CLI workloads on seeded synthetic inputs.

    python3 bench/run.py --workload ingest --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 28 --trace 1

Run from the repository root.  Each run generates its inputs from the
seed, runs the workload's stages through ``droidlens.cli.main`` in a
fresh child process per pass until ``--seconds`` is used up, checks
every output, and prints the metrics.  The inputs are generated again
between passes; ``setup_s`` is the median generation time.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` untraced and traced passes alternate, and the metrics are
the per-layer ones: span times and work counts from the traced passes,
stage times from the untraced ones, and the tracing overhead.  Metric
names, units and bounds come from ``BENCHMARK.json``; ``metrics.json``
maps each per-layer metric to the end-to-end metric it moves and flags
the counts that must repeat exactly.  A full record (environment,
generator parameters, SHA-256 of every input and report, per-pass
numbers) goes to ``.bench_work/records/``.  Exit code 0 when every
check passed, 1 when an output check failed, 2 on a usage error.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so neither this process nor its children
# start BLAS or OpenMP worker threads.  The allocator is left at its
# defaults: pinning glibc's mmap threshold steadies peak RSS but made
# the elbow stage 2.5 times slower, so it would measure another program.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-up is repeated before the first pass and again between passes,
# up to SETUP_SLICE_S each time and SETUP_TOTAL_S in all, so the median
# of a few-ms generator samples the whole run, as wall_s does.
SETUP_MIN_REPS, SETUP_SLICE_S, SETUP_TOTAL_S = 3, 0.5, 3.0
RUN_LIMIT_S = 150.0  # a run must end within 180 s, set-up included

# Sizes scaled so each pass takes a few seconds on a 2-core x86 box
# while each layer keeps roughly its share at the paper's scale:
# on triage-wide the SVM, logistic regression and SMOTE take about
# 58%, 20% and 19% of a pass, on select silhouette about 72%.
INGEST_CORPUS = inputs.CorpusParams(target_bytes=16_000_000)
TRIAGE = inputs.MixtureParams(n=48)
TRIAGE_FOLDS = 5  # fewer folds scale every learner's work alike
TRIAGE_WIDE = inputs.MixtureParams(n=1400)
SELECT = inputs.MixtureParams(n=400)
WIDE_CONFIG = {"cv_k": 5,
               "classifiers": [{"kind": "logistic_regression"},
                               {"kind": "gaussian_nb"}, {"kind": "linear_svm"}]}
ELBOW_KS = range(1, 11)


@dataclass
class Prepared:
    """Generated inputs of one workload, and what the checks need."""

    params: dict
    digests: dict[str, str]
    stages: list[tuple[str, list[str]]]
    check: Callable[[], dict[str, list[str]]]  # stage -> problems
    dex_bytes: int = 0


def _prepare_ingest(seed: int, work: Path) -> Prepared:
    apps = inputs.make_corpus(seed, INGEST_CORPUS)
    dex_dir, reports = work / "in" / "dex", work / "in" / "reports"
    dex_dir.mkdir(parents=True)
    reports.mkdir(parents=True)
    digests = inputs.write_corpus(apps, dex_dir, reports)
    features, labeled = work / "out" / "features.csv", work / "out" / "labeled.csv"
    return Prepared(
        params={"corpus": asdict(INGEST_CORPUS), "apps": len(apps),
                "multidex_apps": sum(len(a.members) > 1 for a in apps)},
        digests=digests,
        stages=[("extract", ["extract", str(dex_dir), "-o", str(features)]),
                ("label", ["label", str(features), "--oracle", str(reports),
                           "-o", str(labeled)])],
        check=lambda: {"extract": checks.check_extract(features, apps),
                       "label": checks.check_label(labeled, apps, features)},
        dex_bytes=sum(len(data) for a in apps for _, data in a.members),
    )


def _write_mixture(seed: int, work: Path, params: inputs.MixtureParams):
    ids, counts, labels = inputs.make_mixture(seed, params)
    data = work / "in" / "data.csv"
    data.parent.mkdir(parents=True)
    digest = inputs.write_mixture(data, ids, counts, labels)
    return data, counts, labels, {"in/data.csv": digest}


def _prepare_triage(seed: int, work: Path) -> Prepared:
    data, _, labels, digests = _write_mixture(seed, work, TRIAGE)
    plain, clustered = work / "out" / "plain.csv", work / "out" / "clustered.csv"
    return Prepared(
        params={"mixture": asdict(TRIAGE), "config": "defaults",
                "cv_k": TRIAGE_FOLDS},
        digests=digests,
        stages=[("eval_plain", ["eval", "plain", str(data), "--cv-k", str(TRIAGE_FOLDS),
                                "-o", str(plain)]),
                ("eval_clustered", ["eval", "clustered", str(data), "--cv-k",
                                    str(TRIAGE_FOLDS), "-o", str(clustered)])],
        check=lambda: {"eval_plain": checks.check_eval(plain, labels),
                       "eval_clustered": checks.check_eval(clustered, labels)},
    )


def _prepare_triage_wide(seed: int, work: Path) -> Prepared:
    data, _, labels, digests = _write_mixture(seed, work, TRIAGE_WIDE)
    config = work / "in" / "config.json"
    config.write_text(json.dumps(WIDE_CONFIG), encoding="utf-8")
    digests["in/config.json"] = hashlib.sha256(config.read_bytes()).hexdigest()
    clustered = work / "out" / "clustered.csv"
    return Prepared(
        params={"mixture": asdict(TRIAGE_WIDE), "config": WIDE_CONFIG},
        digests=digests,
        stages=[("eval_clustered", ["eval", "clustered", str(data), "--config", str(config),
                                    "-o", str(clustered)])],
        check=lambda: {"eval_clustered": checks.check_eval(
            clustered, labels, checks.CLASSIFIERS[:3])},
    )


def _prepare_select(seed: int, work: Path) -> Prepared:
    data, counts, _, digests = _write_mixture(seed, work, SELECT)
    table, elbow = work / "out" / "clusterings.csv", work / "out" / "elbow.csv"
    ks = f"{ELBOW_KS[0]}..{ELBOW_KS[-1]}"
    return Prepared(
        params={"mixture": asdict(SELECT), "elbow_ks": ks},
        digests=digests,
        stages=[("cluster_compare", ["cluster-compare", str(data), "-o", str(table)]),
                ("elbow", ["elbow", str(data), "--k", ks, "-o", str(elbow)])],
        check=lambda: {"cluster_compare": checks.check_compare(table),
                       "elbow": checks.check_elbow(elbow, counts, ELBOW_KS)},
    )


WORKLOADS = {
    "ingest": _prepare_ingest,
    "triage": _prepare_triage,
    "triage-wide": _prepare_triage_wide,
    "select": _prepare_select,
}

def _declared() -> tuple[list[dict], list[dict], dict]:
    """(end-to-end, per-layer, layer map) metric declarations."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((BENCH_DIR / "metrics.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer"]]
    if sorted(names) != sorted(layer_map):
        raise SystemExit("bench: per-layer metrics of BENCHMARK.json and "
                         f"metrics.json differ: {sorted(set(names) ^ set(layer_map))}")
    return bench["end_to_end"], bench["per_layer"], layer_map


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": PINNED_ENV,
    }


def _setup(name: str, seed: int, work: Path, timings: list[float],
           prepared: Prepared | None = None, min_reps: int = 1) -> Prepared:
    """Generate the inputs at least ``min_reps`` times, then again while
    the slice and the total set-up time allow, appending each repetition's
    seconds to ``timings``.  Every repetition must be byte-identical."""
    slice_end = time.perf_counter() + SETUP_SLICE_S
    min_reps += len(timings)
    while len(timings) < min_reps or (
            time.perf_counter() < slice_end and sum(timings) < SETUP_TOTAL_S):
        shutil.rmtree(work, ignore_errors=True)
        (work / "out").mkdir(parents=True)
        start = time.perf_counter()
        again = WORKLOADS[name](seed, work)
        timings.append(time.perf_counter() - start)
        if prepared is not None and again.digests != prepared.digests:
            raise RuntimeError(f"{name}: seed {seed} generated different inputs")
        prepared = again
    return prepared


def _run_pass(prepared: Prepared, work: Path, traced: bool, timeout: float) -> dict:
    """One child process running every stage; {"crashed": why} if it failed."""
    spec, result, log = work / "pass.json", work / "result.json", work / "stderr.txt"
    spec.write_text(json.dumps({"src": str(SRC), "stages": prepared.stages,
                                "trace": traced, "out": str(result)}), encoding="utf-8")
    result.unlink(missing_ok=True)
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    with open(log, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec)],
                                  stdout=subprocess.DEVNULL, stderr=err, env=env,
                                  timeout=timeout, check=False)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"crashed": f"child exited {code}: {tail}"}
    return json.loads(result.read_text(encoding="utf-8"))


def _digest_outputs(work: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((work / "out").iterdir()) if p.is_file()}


def _layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metric values from one traced pass's totals.

    Span ``layer.func[.qualifier]`` gives ``layer.func_s[.qualifier]``
    (inclusive time); pipeline and stage spans also give
    ``layer.self_s.<name>``, their time minus their children's.
    """
    out: dict[str, float] = {}
    for name, secs in trace["inclusive_s"].items():
        layer, _, rest = name.partition(".")
        func, _, qual = rest.partition(".")
        out[f"{layer}.{func}_s" + (f".{qual}" if qual else "")] = secs
    for name, secs in trace["self_s"].items():
        layer, _, rest = name.partition(".")
        if layer in ("cli", "evaluate") and rest != "kfold_indices":
            out[f"{layer}.self_s.{rest}"] = secs
    out.update(trace["counts"])
    out["trace.spans"] = len(trace["spans"])
    return out


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    """Returns (result object, human-readable lines)."""
    started = time.perf_counter()
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    end_to_end, per_layer, layer_map = _declared()
    try:
        setup_times: list[float] = []
        prepared = _setup(name, seed, work, setup_times, min_reps=SETUP_MIN_REPS)
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            if passes and sum(setup_times) < SETUP_TOTAL_S:
                # Set-up between passes does not count against --seconds.
                start = time.perf_counter()
                _setup(name, seed, work, setup_times, prepared)
                deadline += time.perf_counter() - start
            mode = traced and len(passes) % 2 == 1
            remaining = RUN_LIMIT_S - (time.perf_counter() - started)
            p = _run_pass(prepared, work, mode, timeout=max(remaining, 1.0))
            p["traced"] = mode
            if "crashed" not in p:
                p["problems"] = prepared.check()
                p["report_sha256"] = _digest_outputs(work)
            passes.append(p)
            # Start another pass if at least half of it fits, so a run
            # measures about --seconds on average.
            walls = [sum(q["seconds"].values()) for q in passes if "crashed" not in q]
            estimate = _median(walls) if walls else 0.0
            # Two traced passes at least, so the exact counts are compared.
            enough = len(passes) >= (4 if traced else 1)
            if "crashed" in p or (enough and time.perf_counter() + estimate / 2 > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stages = [s for s, _ in prepared.stages]
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        attempted += len(stages)
        if "crashed" in p:
            failed += len(stages)
            problems.append(p["crashed"])
            continue
        for stage in stages:
            bad = p["problems"][stage]
            if p["codes"][stage] != 0:
                bad = [f"{stage}: exit code {p['codes'][stage]}"] + bad
            failed += bool(bad)
            problems.extend(bad)

    good = [p for p in passes if "crashed" not in p]
    plain = [p for p in good if not p["traced"]]
    wall = [sum(p["seconds"].values()) for p in plain]
    stage_values, e2e = {}, {}
    if plain:
        for stage in stages:
            secs = _median(p["seconds"][stage] for p in plain)
            if stage == "extract":
                stage_values["extract_mb_per_s"] = prepared.dex_bytes / 1e6 / secs
            else:
                stage_values[f"{stage}_s"] = secs
        e2e = {"setup_s": _median(setup_times), "wall_s": _median(wall),
               "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain)}

    layer_metrics, spans = {}, None
    if traced:
        with_trace = [p for p in good if p["traced"]]
        values = [_layer_values(p["trace"]) for p in with_trace]
        for m in per_layer:
            seen = [v.get(m["name"], 0) for v in values]
            if layer_map[m["name"]]["exact"] and len(set(seen)) > 1:
                problems.append(f"{m['name']}: counts differ between traced passes: {seen}")
            layer_metrics[m["name"]] = _median(seen) if seen else 0.0
        layer_metrics.update(stage_values)
        if with_trace and wall:
            traced_wall = _median(sum(p["seconds"].values()) for p in with_trace)
            layer_metrics["trace.untraced_wall_s"] = _median(wall)
            layer_metrics["trace.traced_wall_s"] = traced_wall
            layer_metrics["trace.overhead_s"] = traced_wall - _median(wall)
            spans = with_trace[-1]["trace"]["spans"]

    correct = failed == 0 and not problems and bool(plain) and (spans is not None or not traced)
    shown = layer_metrics if traced else e2e
    metrics = {m["name"]: {"value": shown.get(m["name"], 0.0), "unit": m["unit"]}
               for m in (per_layer if traced else end_to_end)}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    tag = f"{name}-seed{seed}-trace{int(traced)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "environment": _environment(), "generator": prepared.params,
        "input_sha256": prepared.digests, "setup_s": setup_times,
        "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes],
        "problems": problems, "stage_metrics": stage_values, "result": result,
    }
    if traced:
        record["layer_map"] = layer_map
        (records / f"{tag}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    reports = {tuple(sorted(p["report_sha256"].items())) for p in good}
    env = record["environment"]
    inputs_digest = hashlib.sha256(json.dumps(prepared.digests, sort_keys=True).encode())
    lines = [f"{name} seed {seed}: {len(passes)} passes "
             f"({sum(p['traced'] for p in passes)} traced), {attempted} stage runs, "
             f"{failed} failed, failure_rate {failed / attempted:.4g} ratio"]
    if not traced:
        lines += [f"  {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines += [f"  {k} {v:.6g} {'MB/s' if k.endswith('per_s') else 's'}"
              for k, v in stage_values.items()]
    if traced:
        lines.append(f"  trace overhead {layer_metrics['trace.overhead_s']:.4g} s "
                     f"({layer_metrics['trace.spans']:.0f} spans)")
    lines.append(f"  inputs: {len(prepared.digests)} files, digest of their SHA-256 "
                 f"{inputs_digest.hexdigest()[:16]}")
    lines.append(f"  reports identical across passes: {len(reports) <= 1}")
    lines.append(f"  env: nproc {env['nproc']}, python {env['python']}, "
                 f"numpy {env['numpy']}, blas {env['blas']}")
    lines += [f"  PROBLEM {p}" for p in problems[:20]]
    lines.append(f"  record {records / (tag + '.json')}")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "droidlens" / "cli.py").is_file():
        print(f"bench: no droidlens sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
