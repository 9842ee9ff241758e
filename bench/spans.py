"""Spans around the calls into each layer of strathom, from outside it.

The traced run wraps public functions and methods of the strathom modules
(and `exact_linalg._snf_any`, the one function every Smith reduction goes
through).  Each wrapper is installed under every name a strathom module
binds to the original object, so a call made through `cli`'s
`from .dg import verify_formality_chain` is caught as well as a call inside
`dg`.  Untraced runs never import this module.

A span is (name, parent span, start, end); the spans of one run share the
run id.  They are kept in flat arrays while the run is going and written
out when it ends.  A group's self time is the summed duration of its spans
minus the time covered by their child spans.  Work done in a function that
is not wrapped counts towards the nearest wrapped caller, so `cli.self_s`
is the time of `cli.main` outside every wrapped call: argument parsing,
schema checks, expectation compare, rendering and any unwrapped helper.
"""

import sys
import time
from array import array

import numpy as np

# (module, attribute path, metric group)
TARGETS = [
    ("cli", "main", "cli"),
    ("exact_linalg", "_snf_any", "exact_linalg.snf"),
    ("exact_linalg", "kernel_basis", "exact_linalg.kernel"),
    ("exact_linalg", "PresolvedSolver.solve", "exact_linalg.solve"),
    ("exact_linalg", "ExactMatrix.__matmul__", "exact_linalg.matmul"),
    ("chain_complex", "cohomology", "chain_complex.cohomology"),
    ("chain_complex", "cone_report", "chain_complex.cone_report"),
    ("chain_complex", "is_quasi_iso", "chain_complex.is_quasi_iso"),
    ("quiver_rep", "hom_space", "quiver_rep.hom_space"),
    ("quiver_rep", "ext", "quiver_rep.ext"),
    ("quiver_rep", "hom_complex_against", "quiver_rep.hom_complex_against"),
    ("quiver_rep", "projective_resolution",
     "quiver_rep.projective_resolution"),
    ("quiver_rep", "injective_coresolution",
     "quiver_rep.injective_coresolution"),
    ("rep_complex", "end_dg_algebra", "rep_complex.end_dg_algebra"),
    ("rep_complex", "validate_resolution", "rep_complex.validate_resolution"),
    ("dg", "DgAlgebra.multiply", "dg.multiply"),
    ("dg", "cohomology_algebra", "dg.cohomology_algebra"),
    ("dg", "verify_formality_chain", "dg.verify_formality_chain"),
    ("dg", "DgMorphism.validate", "dg.morphism_validate"),
    ("dg", "is_quasi_iso_dg", "dg.is_quasi_iso_dg"),
    ("dg", "subalgebra_from_span", "dg.subalgebra_from_span"),
    ("dg", "ideal_from_span", "dg.ideal_quotient"),
    ("dg", "quotient", "dg.ideal_quotient"),
    ("sphere_models", "SphereModel.__init__", "sphere_models.build"),
    ("sphere_models", "SphereModel.closure_rep", "sphere_models.build"),
    ("sphere_models", "SphereModel.hom_rank_table", "sphere_models.build"),
    ("sphere_models", "SphereModel.resolution_n_points",
     "sphere_models.build"),
    ("sphere_models", "formality_chain_n_points",
     "sphere_models.formality_chain_n_points"),
]

LAYERS = ("cli", "exact_linalg", "chain_complex", "quiver_rep",
          "rep_complex", "dg", "sphere_models")


def _snf_entries(args, result, counters):
    rows, cols = args[0].shape
    counters["exact_linalg.snf.entries"] += rows * cols


def _matmul_path(args, result, counters):
    # Replays ExactMatrix.__matmul__'s choice from the int64 views it cached
    # on its operands: no view means the object-dtype product ran.
    a, b = args
    if a.rows == 0 or b.cols == 0 or a.cols == 0:
        return
    fa, fb = a._i64, b._i64
    if not (fa and fb and fa[1] * fb[1] * a.cols < 2 ** 62):
        counters["exact_linalg.matmul.object_calls"] += 1


def _end_size(args, result, counters):
    counters["rep_complex.end.dim"] += result.total_dim()
    counters["rep_complex.end.mult_nnz"] += sum(
        len(entry) for table in result.mult.values()
        for entry in table.values())


POST = {
    "exact_linalg.snf": _snf_entries,
    "exact_linalg.matmul": _matmul_path,
    "rep_complex.end_dg_algebra": _end_size,
}

COUNTERS = ("exact_linalg.snf.entries", "exact_linalg.matmul.object_calls",
            "rep_complex.end.dim", "rep_complex.end.mult_nnz")


class Tracer:
    """Span store for one run; `install` wraps the targets in place."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.groups = sorted({g for _, _, g in TARGETS})
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def _wrap(self, fn, group):
        gid = self.groups.index(group)
        post = POST.get(group)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(gid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(args, result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target under each name a strathom module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "strathom" or name.startswith("strathom.")]
        for mod_name, path, group in TARGETS:
            owner = sys.modules[f"strathom.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, group)
            setattr(owner, attr, wrapped)
            if cls_path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def aggregate(self):
        """Per-group calls and self seconds, per-layer self seconds."""
        n = len(self.name_id)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, count=n)
               - np.frombuffer(self.start, count=n))
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=n)
        self_time = dur - covered
        k = len(self.groups)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        out = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for gid, group in enumerate(self.groups):
            out[f"{group}.calls"] = int(calls[gid])
            out[f"{group}.self_s"] = float(self_s[gid])
            layer_s[group.split(".")[0]] += float(self_s[gid])
        for layer, value in layer_s.items():
            if layer != "cli":
                out[f"{layer}.self_s"] = value
        out.update(self.counters)
        matmuls = out["exact_linalg.matmul.calls"]
        out["exact_linalg.matmul.object_share"] = (
            out.pop("exact_linalg.matmul.object_calls") / matmuls
            if matmuls else 0.0)
        out["trace.spans"] = n
        return out

    def write(self, path):
        n = len(self.name_id)
        np.savez_compressed(
            path, run_id=np.array(self.run_id),
            groups=np.array(self.groups),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, count=n),
            end=np.frombuffer(self.end, count=n))
