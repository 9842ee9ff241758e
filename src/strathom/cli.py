"""Command-line driver.

Three commands:

  formality {trivial,one-point,n-points,de-rham}   reproduce a scenario and
      compare every computed rank/verdict against the built-in expectations
  ext-table     the full Ext table of closure representations on the marked
      sphere: everything above degree 0 must vanish
  compute       run hom/ext/end/cohomology on user-supplied poset and
      representation files

Exit codes: 0 on success, 1 when a computation disagrees with the embedded
expectations, 2 on usage or input errors, 3 on an internal error (an
unexpected exception, reported on stderr with its traceback).  Reports
serialize to canonical JSON (sorted keys, no whitespace) so byte-stable
output can be diffed; tables can be emitted as TSV instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction
from typing import Dict

from .chain_complex import cohomology, cone_report
from .dg import is_quasi_iso_dg, validate_dg_algebra, verify_formality_chain
from .exact_linalg import QQ, ZZ, ExactMatrix, kernel_basis, rank
from .quiver_rep import (
    Quiver,
    Representation,
    StratPoset,
    ext_all,
    hom_rank,
    injective_coresolution,
    projective_resolution,
    validate_representation,
)
from .rep_complex import ComplexOfReps, end_dg_algebra, validate_resolution
from .sphere_models import (
    SphereModel,
    de_rham_model,
    formality_chain_n_points,
    formality_witness_one_point,
    formality_witness_trivial,
)
from .expectations import formality_expectations

USAGE_ERROR = 2
MISMATCH = 1
INTERNAL_ERROR = 3


class InputError(Exception):
    pass


def _ring(name: str):
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    raise InputError(f"unknown ring {name!r} (use Z or Q)")


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def render_report(report: dict, out_format: str) -> str:
    if out_format == "json":
        return json.dumps(_jsonable(report), sort_keys=True,
                          separators=(",", ":")) + "\n"
    lines = []
    for tname, rows in sorted(report.get("tables", {}).items()):
        for row in rows:
            lines.append("\t".join(str(c) for c in row))
        lines.append("")
    return "\n".join(lines)


def _compare(results: dict, expected: dict):
    failures = []
    for key, want in expected.items():
        got = results.get(key)
        if _jsonable(got) != _jsonable(want):
            failures.append({"item": key, "expected": _jsonable(want),
                             "found": _jsonable(got)})
    return failures


def _differential_tables(E) -> Dict[str, list]:
    out = {}
    for m in E.degrees():
        rows = []
        for name, img in E.hom.differential_table(m):
            image = " + ".join(
                (f"{t}" if c == 1 else f"-{t}" if c == -1 else f"{c}*{t}")
                for t, c in img.items()).replace("+ -", "- ")
            rows.append([m, name, image or "0"])
        out[str(m)] = rows
    return out


def _h_profile(E):
    rep = cone_report(E.complex())
    betti = {str(q): r["betti"] for q, r in rep.items() if r["betti"]}
    torsion = {str(q): r["torsion"] for q, r in rep.items() if r["torsion"]}
    return betti, torsion


def cmd_formality(args) -> int:
    ring = _ring(args.ring)
    scenario = args.scenario
    n = args.n
    if scenario in ("trivial", "one-point"):
        if n is None:
            n = 2
        if n != 2:
            raise InputError(f"scenario {scenario} is the 2-point model")
    elif n is None:
        n = 2 if scenario == "de-rham" else 3
    if n < 2:
        raise InputError("n must be at least 2")
    t0 = time.perf_counter()
    results: dict = {}
    tables: dict = {}
    if scenario == "de-rham":
        dr = de_rham_model(n)
        A = dr.algebra
        idx = {lab: (q, i) for q, labs in A.labels.items()
               for i, lab in enumerate(labs)}
        taus = ("tau_C", "tau_D")
        tau_sq = all(
            not A.multiply(A.basis_element(*idx[a]),
                           A.basis_element(*idx[b]))[1]
            for a in taus for b in taus)
        results = {
            "dimension": A.total_dim(),
            "h_dimension": dr.h_algebra.total_dim(),
            "h_entry_dims": {f"({i},{j})": d for (i, j), d
                             in sorted(dr.h_entry_dims().items())},
            "tau_squared_zero": tau_sq,
            "validates": validate_dg_algebra(A) == [],
            "projection_quasi_iso": bool(
                dr.projection.validate() == []
                and is_quasi_iso_dg(dr.projection).ok),
        }
    else:
        model = SphereModel(n, ring=ring)
        if scenario == "trivial":
            res = model.resolution_trivial()
        elif scenario == "one-point":
            res = model.resolution_one_point()
        else:
            res = model.resolution_n_points()
        report = res.validate()
        E = res.end_algebra()
        betti, torsion = _h_profile(E)
        results = {
            "end_ranks": {str(q): E.dim(q) for q in E.degrees()},
            "h_betti": betti,
            "resolution_exact": bool(report.ok),
        }
        if not ring.is_field:
            results["h_torsion"] = torsion
        tables["differential"] = []
        for rows in _differential_tables(E).values():
            tables["differential"].extend(rows)
        if scenario == "one-point":
            cc = E.complex()
            results["kernel_ranks"] = {
                str(q): kernel_basis(cc.d(q)).cols for q in (-1, 0, 1, 2)}
            results["image_ranks"] = {
                str(q): rank(cc.d(q)) for q in (-1, 0, 1)}
        if scenario != "n-points":
            w = (formality_witness_trivial if scenario == "trivial"
                 else formality_witness_one_point)(E)
            results["witness_quasi_iso"] = bool(
                w.validate() == [] and is_quasi_iso_dg(w).ok)
        else:
            chain = formality_chain_n_points(E, n)
            results["sub_ranks"] = {str(q): d for q, d
                                    in sorted(chain.sub.dims.items())}
            results["ideal_ranks"] = {str(q): r for q, r
                                      in chain.ideal.ranks().items()}
            results["ideal_acyclic"] = bool(
                cohomology(chain.ideal.restricted_complex()).is_zero())
            verdict = verify_formality_chain(chain.chain)
            results["chain_ok"] = bool(verdict.ok)
    expected = formality_expectations(scenario, n)
    failures = _compare(results, expected)
    report = {
        "command": "formality",
        "scenario": scenario,
        # the de Rham model is a rational-coefficient object regardless of
        # the requested ring
        "ring": "Q" if scenario == "de-rham" else args.ring,
        "n": n,
        "results": results,
        "tables": tables,
        "expected": {"pass": not failures, "failures": failures},
    }
    _emit(report, args, t0)
    return 0 if not failures else MISMATCH


def _ext_cell(exts):
    """The {"q<i>": [betti, torsion]} cell of one Ext sequence and its
    table row of ranks."""
    cell = {f"q{q}": list(e) for q, e in enumerate(exts)}
    return cell, [str(betti) for betti, _ in cell.values()]


def cmd_ext_table(args) -> int:
    ring = _ring(args.ring)
    if args.n is None or args.n < 2:
        raise InputError("n must be at least 2")
    if args.qmax < 0:
        raise InputError("qmax must be nonnegative")
    t0 = time.perf_counter()
    model = SphereModel(args.n, ring=ring)
    strata = model.poset.strata
    reps = {s: model.closure_rep(s) for s in strata}
    resolutions = {s: projective_resolution(reps[s]) for s in strata}
    pairs = {}
    hom_table = model.hom_rank_table()
    ok = True
    rows = [["source", "target"] +
            [f"ext{q}" for q in range(args.qmax + 1)]]
    for s in strata:
        for t in strata:
            cell, ranks = _ext_cell(
                ext_all(reps[s], reps[t], args.qmax, resolutions[s]))
            higher = list(cell.values())[1:]
            if any(betti or torsion for betti, torsion in higher) or \
                    cell["q0"][0] != hom_table[(s, t)]:
                ok = False
            pairs[f"{s}->{t}"] = cell
            rows.append([s, t] + ranks)
    report = {
        "command": "ext-table",
        "ring": args.ring,
        "n": args.n,
        "qmax": args.qmax,
        "pairs": pairs,
        "tables": {"ext": rows},
        "expected": {"pass": ok,
                     "failures": [] if ok else
                     [{"item": "ext-vanishing-or-hom-match"}]},
    }
    _emit(report, args, t0)
    return 0 if ok else MISMATCH


# Both schemas name draft 4: unlike later drafts, its "integer" rejects
# integral floats such as 2.0 or 1e23 (which json has already rounded).
POSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-04/schema#",
    "type": "object",
    "required": ["strata", "covers"],
    "properties": {
        "strata": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "dim"],
                "properties": {"name": {"type": "string"},
                               "dim": {"type": "integer"}},
            },
        },
        "covers": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"},
                      "minItems": 2, "maxItems": 2},
        },
        "acyclicity_asserted": {"type": "boolean"},
    },
}

# Matrix entries are JSON integers or strings such as "3/2".
REPS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-04/schema#",
    "type": "object",
    "required": ["reps"],
    "properties": {
        "reps": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "stalks"],
                "properties": {
                    "name": {"type": "string"},
                    "stalks": {"type": "object",
                               "additionalProperties": {"type": "integer"}},
                    "arrows": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "array",
                            "items": {"type": "array", "items": {
                                "type": ["integer", "string"]}},
                        },
                    },
                },
            },
        },
    },
}


def _load_json(path: str, schema: dict, what: str) -> dict:
    import jsonschema

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file is not valid JSON at line "
                         f"{exc.lineno} column {exc.colno}: {exc.msg}")
    try:
        jsonschema.validate(data, schema)
    except jsonschema.ValidationError as exc:
        raise InputError(f"{what} file: {exc.json_path}: {exc.message}")
    return data


def _parse_arrow_key(key: str):
    inner = key.strip()
    if inner.startswith("(") and inner.endswith(")"):
        inner = inner[1:-1]
    parts = [p.strip() for p in inner.split(",")]
    if len(parts) != 2:
        raise InputError(f"arrow key {key!r} is not of the form (src,dst)")
    return parts[0], parts[1]


def _build_reps(data: dict, quiver: Quiver, ring) -> Dict[str, Representation]:
    out = {}
    for spec_index, rep in enumerate(data["reps"]):
        name = rep["name"]
        stalks = {}
        for v, r in rep["stalks"].items():
            if v not in quiver.poset._idx:
                raise InputError(
                    f"reps[{spec_index}].stalks: unknown vertex {v!r}")
            if r < 0:
                raise InputError(
                    f"reps[{spec_index}].stalks.{v}: negative rank")
            stalks[v] = r
        arrows = {}
        for key, matrix in rep.get("arrows", {}).items():
            src, dst = _parse_arrow_key(key)
            if (src, dst) not in quiver.arrows:
                raise InputError(
                    f"reps[{spec_index}].arrows.{key}: not a quiver arrow")
            want = (stalks.get(dst, 0), stalks.get(src, 0))
            try:
                m = ExactMatrix.from_rows(
                    [[Fraction(x) if isinstance(x, str) else x for x in row]
                     for row in matrix], ring,
                    cols=want[1])
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"reps[{spec_index}].arrows.{key}: bad matrix: {exc}")
            if m.shape != want:
                raise InputError(
                    f"reps[{spec_index}].arrows.{key}: shape {m.shape}, "
                    f"expected {want}")
            arrows[(src, dst)] = m
        v = Representation(quiver, ring, stalks, arrows)
        problems = validate_representation(v)
        if problems:
            raise InputError(
                f"reps[{spec_index}] ({name}): " + "; ".join(problems[:3]))
        out[name] = v
    if not out:
        raise InputError("reps file defines no representations")
    return out


def cmd_compute(args) -> int:
    ring = _ring(args.ring)
    if args.action in ("ext", "cohomology") and args.qmax < 0:
        raise InputError("qmax must be nonnegative")
    t0 = time.perf_counter()
    pdata = _load_json(args.poset, POSET_SCHEMA, "poset")
    if not pdata["strata"]:
        raise InputError("poset file: empty stratification")
    try:
        poset = StratPoset(
            [(s["name"], s["dim"]) for s in pdata["strata"]],
            [tuple(c) for c in pdata["covers"]],
            acyclicity_asserted=pdata.get("acyclicity_asserted", False))
    except ValueError as exc:
        raise InputError(f"poset file: {exc}")
    quiver = Quiver(poset)
    rdata = _load_json(args.reps, REPS_SCHEMA, "reps")
    reps = _build_reps(rdata, quiver, ring)
    names = sorted(reps)
    results: dict = {"vertices": len(quiver.vertices),
                     "arrows": len(quiver.arrows),
                     "acyclicity_asserted": poset.acyclicity_asserted}
    tables: dict = {}
    action = "end" if args.action == "end-with-resolution" else args.action
    if action == "hom":
        rows = [["source", "target", "rank"]]
        table = {}
        for a in names:
            for b in names:
                r = hom_rank(reps[a], reps[b])
                table[f"{a}->{b}"] = r
                rows.append([a, b, str(r)])
        results["hom_ranks"] = table
        tables["hom"] = rows
    elif action == "ext":
        table = {}
        rows = [["source", "target"] +
                [f"ext{q}" for q in range(args.qmax + 1)]]
        for a in names:
            res = projective_resolution(reps[a])
            for b in names:
                cell, ranks = _ext_cell(ext_all(reps[a], reps[b], args.qmax,
                                                res))
                table[f"{a}->{b}"] = cell
                rows.append([a, b] + ranks)
        results["ext"] = table
        tables["ext"] = rows
    elif action == "end":
        from .quiver_rep import direct_sum

        total = direct_sum([reps[a] for a in names], names=names) \
            if len(names) > 1 else reps[names[0]]
        cores = injective_coresolution(total)
        J = ComplexOfReps(quiver, ring,
                          {i: t for i, t in enumerate(cores.terms)},
                          {i: d for i, d in enumerate(cores.maps)})
        exact = validate_resolution(J, {0: (total, cores.augmentation)})
        E = end_dg_algebra(J)
        betti, torsion = _h_profile(E)
        results["resolution_term_ranks"] = [t.total_rank()
                                            for t in cores.terms]
        results["resolution_exact"] = bool(exact.ok)
        results["end_ranks"] = {str(q): E.dim(q) for q in E.degrees()}
        results["h_betti"] = betti
        if not ring.is_field:
            results["h_torsion"] = torsion
    elif action == "cohomology":
        # derived sections: Ext against the rep from the constant functor
        from strathom.quiver_rep import Representation as _R

        one = ExactMatrix.identity(1, ring)
        const = _R(quiver, ring, {v: 1 for v in quiver.vertices},
                   {a: one for a in quiver.arrows})
        res = projective_resolution(const)
        table = {}
        rows = [["rep"] + [f"H{q}" for q in range(args.qmax + 1)]]
        for a in names:
            cell, ranks = _ext_cell(ext_all(const, reps[a], args.qmax, res))
            table[a] = cell
            rows.append([a] + ranks)
        results["cohomology"] = table
        tables["cohomology"] = rows
    report = {
        "command": "compute",
        "action": action,
        "ring": args.ring,
        "results": results,
        "tables": tables,
    }
    _emit(report, args, t0)
    return 0


def _emit(report: dict, args, t0: float):
    """Write the report, with the wall time since t0 under --timing."""
    if args.timing:
        report["timing_ms"] = round(1000 * (time.perf_counter() - t0), 1)
    text = render_report(report, args.out)
    if args.out_file:
        with open(args.out_file, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="strathom",
        description="Exact homological computations for stratified-sphere "
                    "quiver representations.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--ring", choices=["Z", "Q"], default="Z")
        sp.add_argument("--out", choices=["json", "tsv"], default="json")
        sp.add_argument("--out-file", default=None)
        sp.add_argument("--timing", action="store_true",
                        help="include wall time in the report")

    f = sub.add_parser("formality", help="reproduce a built-in scenario")
    f.add_argument("scenario",
                   choices=["trivial", "one-point", "n-points", "de-rham"])
    f.add_argument("--n", type=int, default=None)
    common(f)
    f.set_defaults(fn=cmd_formality)

    e = sub.add_parser("ext-table", help="Ext table of closure reps")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--qmax", type=int, default=4)
    common(e)
    e.set_defaults(fn=cmd_ext_table)

    c = sub.add_parser("compute", help="run on user poset/reps files")
    c.add_argument("--poset", required=True)
    c.add_argument("--reps", required=True)
    c.add_argument("--action", required=True,
                   choices=["hom", "ext", "end", "end-with-resolution",
                            "cohomology"])
    c.add_argument("--qmax", type=int, default=4)
    common(c)
    c.set_defaults(fn=cmd_compute)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
