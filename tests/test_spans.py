"""The traced benchmark wraps strathom functions by name (bench/spans.py).

Each target must resolve through the lookup `Tracer.install` makes, and
each POST hook must run on the arguments and result of a real call of its
target, so a rename or deletion of a wrapped name, or of an attribute a
hook reads (`ExactMatrix._i64`, `.shape`, `.rows`, `.cols`,
`DgAlgebra.mult`), fails here and not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

from strathom.exact_linalg import ExactMatrix, _snf_any
from strathom.rep_complex import end_dg_algebra
from strathom.sphere_models import SphereModel

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_span_target_resolves():
    missing = []
    for mod_name, path, _ in _spans().TARGETS:
        owner = importlib.import_module(f"strathom.{mod_name}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{mod_name}.{path}")
    assert missing == []


def test_every_post_hook_reads_a_real_call():
    spans = _spans()
    A = ExactMatrix.from_rows([[1, 2, 0], [0, 3, 1]])
    B = ExactMatrix.identity(3)
    X = SphereModel(2).resolution_trivial().complex
    calls = {"exact_linalg.snf": ((A, True), _snf_any(A, True)),
             "exact_linalg.matmul": ((A, B), A @ B),
             "rep_complex.end_dg_algebra": ((X,), end_dg_algebra(X))}
    assert set(spans.POST) == set(calls)
    counters = dict.fromkeys(spans.COUNTERS, 0)
    for group, post in spans.POST.items():
        args, result = calls[group]
        post(args, result, counters)
    E = calls["rep_complex.end_dg_algebra"][1]
    assert counters["exact_linalg.snf.entries"] == 6
    assert counters["exact_linalg.matmul.object_calls"] == 1
    assert counters["rep_complex.end.dim"] == E.total_dim() > 0
    assert counters["rep_complex.end.mult_nnz"] > 0
