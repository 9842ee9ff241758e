"""One benchmark iteration in a fresh process.

Usage: python3 worker.py '<job json>'

The job names the checkout's `src` directory, the CLI argument lists to
run through `strathom.cli.main`, and whether to trace.  The worker times
`import strathom.cli` (the set-up every CLI call pays), then each call, and
prints one JSON line: import seconds, per-call seconds and exit codes, peak
resident memory, the reference loop's seconds after the import and after
the calls (the host's speed, see run.REF_S), and with tracing the
per-layer metrics.
"""

import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference():
    """Seconds taken by a fixed mix of the work strathom does: dict and
    tuple churn, Fraction arithmetic, object and int64 numpy products.
    It does not use strathom, so it measures only the host's speed."""
    import numpy as np

    t = time.perf_counter()
    d = {}
    for i in range(120000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + i
    sum(Fraction(i, 7) for i in range(6000))
    a = np.arange(400, dtype=object).reshape(20, 20)
    for _ in range(60):
        a = a.dot(a) % 1009
    b = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(2000):
        b = (b @ b) % 1009
    return time.perf_counter() - t


def run(job):
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import strathom.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(strathom.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"strathom was imported from {strathom.cli.__file__}"
                         f", not from {src}")
    out = {"import_s": import_s, "reference_s": [reference()]}
    calls = job.get("calls", [])
    if not calls:
        return out
    tracer = None
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    walls, codes, errors = [], [], []
    for argv in calls:
        t = time.perf_counter()
        try:
            code = strathom.cli.main(argv)
        except Exception:  # reported as a failed call, never fatal
            code = None
            errors.append(traceback.format_exc(limit=5))
        walls.append(time.perf_counter() - t)
        codes.append(code)
    out["reference_s"].append(reference())
    out.update(wall_s=walls, codes=codes, errors=errors,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        out["metrics"] = tracer.aggregate()
        tracer.write(job["spans_out"])
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
