"""In-memory span tracer patched around droidlens's public functions.

Each wrapper opens a span named after the layer and function, closes
it when the call returns or raises, and records work counts taken from
the arguments and the return value.  Spans keep their parent's id, so
a layer's self time is its duration minus its children's.  Count
bookkeeping runs in its own ``trace.bookkeeping`` span, so it is
charged to no layer.  Calls that may set the process's peak memory
also record by how much they raised its high-water RSS.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    ru_maxrss is not used: Linux carries the pre-exec high-water mark of
    the forking parent into it, so it would report the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, _clock(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = _clock()
        self._stack.pop()

    def wrap(self, fn, name, after=None, errors=(), on_error=None, rss=None):
        """Wrap fn in a span; ``name`` may be a function of the call's
        arguments.  ``after(result, args)`` and ``on_error(args)`` record
        counts; ``rss`` names the count that sums the call's rise of the
        high-water RSS, in MB."""

        def traced(*args, **kwargs):
            peak = peak_rss_mb() if rss else 0.0
            sid = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except errors:
                self._closed(sid, rss, peak)
                if on_error is not None:
                    on_error(args)
                raise
            except BaseException:
                self._closed(sid, rss, peak)
                raise
            self._closed(sid, rss, peak)
            if after is not None:
                book = self.open("trace.bookkeeping")
                after(result, args)
                self.close(book)
            return result

        traced.__wrapped__ = fn
        return traced

    def _closed(self, sid: int, rss, peak: float) -> None:
        self.close(sid)
        if rss:
            self.counts[rss] += peak_rss_mb() - peak

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) summed per span name."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            inclusive[name] += end - start
            own[name] += end - start - child_time[sid]
        return dict(inclusive), dict(own)


def _tree_nodes(tree: dict) -> int:
    nodes, stack = 0, [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        if "leaf" not in node:
            stack.append(node["left"])
            stack.append(node["right"])
    return nodes


def install(tracer: Tracer) -> None:
    """Patch each traced function where droidlens code looks it up."""
    from droidlens import cli, clustering, dataset, dex, evaluate, oracle
    from droidlens.errors import ClusterError, DexParseError, OracleError

    count = tracer.counts

    def patch(module, attr, name, **hooks):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, **hooks))

    # dex: files reach the parser through cli.extract_histogram.
    def extracted(hist, args):
        count["dex.files"] += 1
        count["dex.bytes"] += len(args[0])
        count["dex.instructions"] += hist.total

    def dex_failed(args):
        count["dex.errors"] += 1

    patch(cli, "extract_histogram", "dex.extract_histogram", after=extracted,
          errors=(DexParseError,), on_error=dex_failed)
    patch(dex, "parse_dex", "dex.parse_dex")
    patch(dex, "opcode_histogram", "dex.opcode_histogram")

    # dataset
    patch(cli, "read_dataset", "dataset.read_dataset")
    patch(cli, "write_dataset", "dataset.write_dataset")

    def took(result, args):
        count["dataset.take_calls"] += 1

    patch(dataset.Dataset, "take", "dataset.take", after=took)

    # oracle
    def fetched(result, args):
        count["oracle.fetches"] += 1

    def fetch_failed(args):
        count["oracle.fetches"] += 1
        count["oracle.errors"] += 1

    patch(oracle.LabelOracle, "fetch", "oracle.fetch", after=fetched,
          errors=(OracleError,), on_error=fetch_failed)

    # learn
    def fitted(model, args):
        kind = model.kind
        count[f"learn.fit_calls.{kind}"] += 1
        if model.constant is not None:
            return
        params = model.params
        if kind == "linear_svm" and len(params["loss_curve"]) == 1:
            count["learn.svm_stalled_fits"] += 1
        elif kind == "logistic_regression":
            count["learn.logistic_iterations"] += len(params["loss_curve"]) - 1
        elif kind == "decision_tree":
            count["learn.tree_nodes"] += _tree_nodes(params["tree"])
        elif kind == "random_forest":
            count["learn.tree_nodes"] += sum(_tree_nodes(t) for t in params["trees"])

    patch(evaluate, "fit", lambda a: f"learn.fit.{a[0].kind}", after=fitted)
    patch(evaluate, "predict_batch", lambda a: f"learn.predict_batch.{a[0].kind}")

    def smoted(result, args):
        before = args[0]
        count["learn.smote_calls"] += 1
        count["learn.smote_synthetic_rows"] += result.n - before.n
        ones = int(before.labels.sum())
        minority = min(ones, before.n - ones)
        count["learn.smote_max_minority"] = max(count["learn.smote_max_minority"], minority)

    patch(evaluate, "smote_balance", "learn.smote_balance", after=smoted,
          rss="learn.smote_rss_rise_mb")

    # clustering: gmm and sse_curve reach k-means through the clustering module.
    def clustered(result, args):
        count["clustering.kmeans_calls"] += 1
        count["clustering.kmeans_iterations"] += result[0].iterations

    kmeans = tracer.wrap(clustering.kmeans, "clustering.kmeans", after=clustered)
    clustering.kmeans = kmeans
    evaluate.kmeans = kmeans
    for attr in ("assign_clusters_batch", "agglomerative", "birch", "dbscan", "gmm"):
        patch(evaluate, attr, f"clustering.{attr}")
    patch(cli, "sse_curve", "clustering.sse_curve")

    def undefined(args):
        count["clustering.undefined_scores"] += 1

    def silhouette_done(result, args):
        count["clustering.silhouette_calls"] += 1

    def silhouette_undefined(args):
        count["clustering.silhouette_calls"] += 1
        undefined(args)

    patch(evaluate, "calinski_harabasz", "clustering.calinski_harabasz",
          errors=(ClusterError,), on_error=undefined)
    patch(evaluate, "silhouette", "clustering.silhouette", after=silhouette_done,
          errors=(ClusterError,), on_error=silhouette_undefined,
          rss="clustering.silhouette_rss_rise_mb")

    # evaluate: pipeline spans, whose self time is the fold loop itself.
    patch(evaluate, "kfold_indices", "evaluate.kfold_indices")
    patch(cli, "run_plain_pipeline", "evaluate.plain")
    patch(cli, "run_clustered_pipeline", "evaluate.clustered")
    patch(cli, "compare_clusterings", "evaluate.compare")
