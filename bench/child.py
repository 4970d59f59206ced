"""Runs one pass of a workload's CLI stages in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC names the source tree to import droidlens from, the stages as
(name, argv) pairs, whether to trace, and where to write the result:
per-stage seconds and exit codes, the process's peak RSS, and with
tracing the per-layer totals and every span.  The parent sets the
BLAS and OpenMP thread counts to 1 in this process's environment.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

from tracing import peak_rss_mb


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from droidlens import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"droidlens imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    seconds, cpu_seconds, codes = {}, {}, {}
    for stage, argv in spec["stages"]:
        with contextlib.redirect_stdout(io.StringIO()):
            start, cpu_start = time.perf_counter(), time.process_time()
            sid = tracer.open(f"cli.{stage}") if tracer else None
            try:
                codes[stage] = cli.main(argv)
            finally:
                if tracer:
                    tracer.close(sid)
                seconds[stage] = time.perf_counter() - start
                cpu_seconds[stage] = time.process_time() - cpu_start
    result = {"seconds": seconds, "cpu_seconds": cpu_seconds, "codes": codes,
              "peak_rss_mb": peak_rss_mb()}
    if tracer:
        inclusive, own = tracer.totals()
        result["trace"] = {
            "inclusive_s": inclusive,
            "self_s": own,
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        }
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
