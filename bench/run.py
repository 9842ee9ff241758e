"""strathom benchmark: runs the CLI on one workload and checks its output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
Every iteration runs in a fresh worker process (`worker.py`), one at a
time, with BLAS/OpenMP threads pinned to 1 and STRATHOM_JOBS unset.  The
worker times `import strathom.cli` and then the CLI calls through
`strathom.cli.main`; inputs are generated and written before the clock
starts.  Every iteration's output is checked (`check_sphere`,
`check_compute`) and a failed check, a nonzero exit code, an exception or
a timeout counts as a failed iteration.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s (median import time over all worker processes), wall_s (median
iteration time), both corrected for the host's speed (see REF_S), and
peak_rss_mb (median peak RSS of the workers that ran the workload).  The
uncorrected medians are printed and recorded next to them.  With --trace 1 it carries the per-layer metrics from traced
replays of iteration 0's input; their counts must repeat exactly.  The
lines before it print every metric by name and unit, the failure rate,
the sample count and, when tracing, the layers with the largest self time.
Each result is also appended to bench/out/results.jsonl with the seed, the
environment and the commit.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("npoints-z", "ext-table-z", "npoints-q", "compute-random")

# Each sphere workload is one CLI call; its output bytes must match the
# digest recorded in digests.json for the same arguments.
SPHERE_ARGS = {
    "full": {
        "npoints-z": ["formality", "n-points", "--n", "30"],
        "ext-table-z": ["ext-table", "--n", "12", "--qmax", "4"],
        "npoints-q": ["formality", "n-points", "--n", "5", "--ring", "Q"],
    },
    "smoke": {
        "npoints-z": ["formality", "n-points", "--n", "4"],
        "ext-table-z": ["ext-table", "--n", "3", "--qmax", "4"],
        "npoints-q": ["formality", "n-points", "--n", "3", "--ring", "Q"],
    },
}
COMPUTE_QMAX = 4
# Host speed correction.  The host's speed drifts by up to a factor of 1.8
# over minutes, which moves every raw time with it.  Each worker times a
# fixed reference loop (worker.reference, no strathom code) next to what it
# measures; a time t taken while the loop took r seconds is reported as
# t * REF_S / r, the time at the speed where the loop takes REF_S seconds.
REF_S = 0.1
SETUP_SAMPLES = 5       # import-only workers per run, besides the iterations
MIN_ITERATIONS = {"full": 3, "smoke": 1}
MIN_REPLAYS = 2         # traced replays whose counts must agree
BUDGET_S = 170          # a run must end within 180 s
MAX_FAILURES = 3        # failed iterations before a run gives up


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def _load(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def worker_env():
    env = dict(os.environ)
    env.pop("STRATHOM_JOBS", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(job, timeout):
    """Run one worker; (result dict or None, error text, seconds)."""
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=timeout, env=worker_env(),
            cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timeout after {timeout:.0f} s", time.perf_counter() - t
    took = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (proc.stderr.strip()[-2000:]
                      or f"worker exited {proc.returncode}"), took
    return json.loads(lines[-1]), "", took


def read_report(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return data, json.loads(data)


def check_sphere(data, report, digest):
    """Problems with one sphere-workload output, [] when correct."""
    problems = []
    if report.get("expected", {}).get("pass") is not True:
        problems.append("expected.pass is not true")
    got = hashlib.sha256(data).hexdigest()
    if got != digest:
        problems.append(f"output sha256 {got} != recorded {digest}")
    return problems


def check_compute(ext_report, end_report):
    """Cross-route check: H(End J) against the Ext table of all pairs.

    J is the injective coresolution of the direct sum M of the
    representations, so H^q(End J) = Ext^q(M, M), the sum over all pairs
    of Ext^q via projective resolutions: the Betti numbers add up degree by
    degree and so do the orders of the torsion subgroups.
    """
    problems = []
    end = end_report["results"]
    if not end.get("resolution_exact"):
        problems.append("injective coresolution is not exact")
    betti, torsion = {}, {}
    for cell in ext_report["results"]["ext"].values():
        for key, (b, tors) in cell.items():
            q = key[1:]
            betti[q] = betti.get(q, 0) + b
            for t in tors:
                torsion[q] = torsion.get(q, 1) * t
    betti = {q: b for q, b in betti.items() if b}
    if end["h_betti"] != betti:
        problems.append(f"h_betti {end['h_betti']} != Ext Betti sums {betti}")
    end_torsion = {}
    for q, tors in end.get("h_torsion", {}).items():
        for t in tors:
            end_torsion[q] = end_torsion.get(q, 1) * t
    if end_torsion != torsion:
        problems.append(f"torsion orders {end_torsion} != Ext torsion "
                        f"orders {torsion}")
    return problems


class Workload:
    """Inputs, CLI calls and output check of one iteration."""

    def __init__(self, name, seed, size, workdir):
        self.name, self.seed, self.size = name, seed, size
        self.workdir = workdir
        self.digests = _load("digests.json")

    def calls(self, index):
        """CLI argument lists for iteration `index`, inputs written."""
        if self.name != "compute-random":
            return [SPHERE_ARGS[self.size][self.name]
                    + ["--out-file", self.path("out.json")]]
        poset, reps = self.path("poset.json"), self.path("reps.json")
        gen.write_instance(self.seed, index, self.size, poset, reps)
        base = ["compute", "--poset", poset, "--reps", reps]
        return [base + ["--action", "ext", "--qmax", str(COMPUTE_QMAX),
                        "--out-file", self.path("ext.json")],
                base + ["--action", "end", "--out-file",
                        self.path("end.json")]]

    def check(self):
        try:
            if self.name != "compute-random":
                args = " ".join(SPHERE_ARGS[self.size][self.name])
                return check_sphere(*read_report(self.path("out.json")),
                                    self.digests[args])
            return check_compute(read_report(self.path("ext.json"))[1],
                                 read_report(self.path("end.json"))[1])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def path(self, name):
        return os.path.join(self.workdir, name)


class Run:
    """One benchmark run: iterations, failures and samples."""

    def __init__(self, workload, started):
        self.workload = workload
        self.started = started
        self.attempted = 0
        self.failures = []
        self.imports = []       # (import seconds, reference seconds)

    def remaining(self):
        return BUDGET_S - (time.perf_counter() - self.started)

    def setup_samples(self, count):
        for _ in range(count):
            res, err, _ = run_worker({"src": SRC}, timeout=60)
            if res is None:
                raise BenchError(f"cannot import strathom.cli: {err}")
            self.imports.append((res["import_s"], res["reference_s"][0]))

    def iterate(self, index, trace=False, replay=0):
        """Run iteration `index` once; the worker result, or None."""
        calls = self.workload.calls(index)
        for name in ("out.json", "ext.json", "end.json"):
            path = self.workload.path(name)
            if os.path.exists(path):
                os.remove(path)
        job = {"src": SRC, "calls": calls, "trace": trace}
        if trace:
            w = self.workload
            job["run_id"] = f"{w.name}/seed{w.seed}/replay{replay}"
            job["spans_out"] = os.path.join(
                OUT, f"spans-{w.name}-seed{w.seed}-replay{replay}.npz")
        self.attempted += 1
        res, err, took = run_worker(job, timeout=max(5.0, self.remaining()))
        problems = [err] if res is None else []
        if res is not None:
            self.imports.append((res["import_s"], res["reference_s"][0]))
            problems += res["errors"]
            problems += [f"exit code {c} for {' '.join(a[:3])}"
                         for c, a in zip(res["codes"], calls) if c != 0]
            if not problems:
                problems = self.workload.check()
            res["took_s"] = took
        if problems:
            self.failures.append({"iteration": index, "trace": trace,
                                  "problems": problems})
        return res

    def out_of_time(self, elapsed, per_iteration, seconds, enough):
        """Stop before the budget runs out, after repeated failures, or
        when `enough` samples are in and the next would pass `seconds`."""
        if (self.remaining() < 2 * per_iteration
                or len(self.failures) >= MAX_FAILURES):
            return True
        return enough and elapsed + per_iteration > seconds


def measure(run, seconds, minimum):
    """Untraced iterations for `seconds`; the end-to-end metrics."""
    t0 = time.perf_counter()
    walls, rss, took = [], [], []
    index = 0
    while True:
        res = run.iterate(index)
        index += 1
        if res is not None:
            walls.append((sum(res["wall_s"]),
                          statistics.mean(res["reference_s"])))
            rss.append(res["peak_rss_mb"])
            took.append(res["took_s"])
        per = statistics.median(took) if took else 1.0
        if run.out_of_time(time.perf_counter() - t0, per, seconds,
                           index >= minimum):
            break
    metrics, raw = {}, {}
    for name, samples in (("setup_s", run.imports), ("wall_s", walls)):
        if samples:
            metrics[name] = statistics.median(t * REF_S / r
                                              for t, r in samples)
            raw[name] = statistics.median(t for t, _ in samples)
    if rss:
        metrics["peak_rss_mb"] = statistics.median(rss)
    return metrics, {"samples": len(walls), "walls": walls, "rss": rss,
                     "raw": raw}


COUNT_SUFFIXES = (".calls", ".entries", ".dim", ".mult_nnz", ".spans")


def measure_traced(run, seconds):
    """Traced replays of iteration 0 against untraced ones of it."""
    t0 = time.perf_counter()
    plain, traced = [], []
    order = [False, True, True]
    while True:
        trace = order.pop(0) if order else not (len(traced) > len(plain))
        res = run.iterate(0, trace=trace, replay=len(traced))
        if res is not None:
            (traced if trace else plain).append(res)
        per = max((r["took_s"] for r in plain + traced), default=1.0)
        enough = not order and len(traced) >= MIN_REPLAYS and bool(plain)
        if run.out_of_time(time.perf_counter() - t0, per, seconds, enough):
            break
    if not traced or not plain:
        return None, {"samples": len(traced)}
    first = traced[0]["metrics"]
    for k, r in enumerate(traced[1:], 1):
        moved = sorted(name for name, v in r["metrics"].items()
                       if name.endswith(COUNT_SUFFIXES) and v != first[name])
        if moved:
            run.failures.append({"iteration": 0, "trace": True,
                                 "problems": [f"replay {k} counts differ "
                                              f"from replay 0: {moved}"]})
    metrics = {}
    for name, value in first.items():
        if name.endswith(COUNT_SUFFIXES):
            metrics[name] = value
        else:
            metrics[name] = statistics.median(
                r["metrics"][name] for r in traced)
    metrics["trace.overhead_s"] = (
        statistics.median(sum(r["wall_s"]) for r in traced)
        - statistics.median(sum(r["wall_s"]) for r in plain))
    layers = {m[:-len(".self_s")]: v for m, v in metrics.items()
              if m.endswith(".self_s") and m.count(".") == 1
              and not m.startswith("trace.")}
    groups = {m[:-len(".self_s")]: v for m, v in metrics.items()
              if m.endswith(".self_s") and m.count(".") == 2}
    return metrics, {"samples": len(traced), "untraced_samples": len(plain),
                     "top_layers": sorted(layers.items(),
                                          key=lambda kv: -kv[1])[:3],
                     "top_groups": sorted(groups.items(),
                                          key=lambda kv: -kv[1])[:3]}


def environment():
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(),
           "STRATHOM_JOBS": None, "blas_threads": 1}
    try:
        import numpy
        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    env["commit"] = None
    try:
        # only a repository rooted at this checkout, not one around it
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.samefile(top, ROOT):
            env["commit"] = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "strathom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    env["src_sha256"] = h.hexdigest()
    return env


def run_workload(name, seed, seconds, trace, size="full"):
    """One benchmark run; (result line dict, detail dict)."""
    started = time.perf_counter()
    spec = _load_spec()
    workdir = os.path.join(OUT, f"{name}-seed{seed}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(Workload(name, seed, size, workdir), started)
    if trace:
        values, detail = measure_traced(run, seconds)
        wanted = spec["per_layer"]
    else:
        run.setup_samples(SETUP_SAMPLES if size == "full" else 1)
        values, detail = measure(run, seconds, MIN_ITERATIONS[size])
        wanted = spec["end_to_end"]
    values = values or {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        run.failures.append({"iteration": None, "trace": trace,
                             "problems": [f"not measured: {missing}"]})
    failed = min(len(run.failures), run.attempted)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": not run.failures,
              "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    detail.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  size=size, failures=run.failures,
                  fail_rate=failed / run.attempted,
                  setup_samples=run.imports,
                  run_s=time.perf_counter() - started)
    return result, detail


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summary(result, detail):
    lines = [f"# {detail['workload']} seed={detail['seed']} "
             f"trace={int(detail['trace'])} samples={detail['samples']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"fail_rate={detail['fail_rate']:.3f} "
             f"run_s={detail['run_s']:.1f}"]
    for name, m in result["metrics"].items():
        lines.append(f"#   {name:45s} {m['value']:.6g} {m['unit']}")
    for name, value in detail.get("raw", {}).items():
        lines.append(f"#   {name + ' (raw, uncorrected)':45s} {value:.6g} s")
    for what in ("top_layers", "top_groups"):
        if detail.get(what):
            lines.append(f"#   largest self time ({what[4:]}): " + ", ".join(
                f"{k} {v:.3f} s" for k, v in detail[what]))
    for f in detail["failures"][:5]:
        lines.append(f"#   FAILED iteration {f['iteration']}: "
                     + "; ".join(p.splitlines()[-1] if p else "?"
                                 for p in f["problems"])[:500])
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes that finish in seconds (self-test)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "strathom", "cli.py")):
        print(f"error: no strathom sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds,
                                          bool(args.trace),
                                          "smoke" if args.smoke else "full")
            print(summary(result, detail), flush=True)
            with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
                fh.write(json.dumps({"result": result, "detail": detail,
                                     "environment": env}) + "\n")
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
