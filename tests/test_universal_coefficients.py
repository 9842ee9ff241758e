"""Universal coefficients on the benchmark's generated inputs.

`bench/gen.py` writes seeded posets and integer representations.  J is
the injective coresolution of their direct sum M, so H^q(End J) =
Ext^q(M, M): the Betti numbers of H(End J) over Z equal those over Q, and
equal the Ext Betti numbers of all pairs summed degree by degree; over Z
the orders of the torsion subgroups agree too.  `compute --action end`
reads H(End J) from invariant factors (`cone_report`), `--action ext`
from the Hom complexes of projective resolutions.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from strathom.chain_complex import _reduce_units, cohomology, cone_report
from strathom.cli import main
from strathom.exact_linalg import ZZ, ExactMatrix
from strathom.quiver_rep import (
    Representation,
    StratPoset,
    build_quiver,
    direct_sum,
    injective_coresolution,
)
from strathom.rep_complex import ComplexOfReps, end_dg_algebra

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
QMAX = 4


def _gen():
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _compute(tmp_path, capsys, poset, reps, action, *extra):
    out = tmp_path / f"{action}.json"
    code = main(["compute", "--poset", poset, "--reps", reps, "--action",
                 action, "--out-file", str(out), *extra])
    capsys.readouterr()
    assert code == 0
    return json.loads(out.read_text())["results"]


def _orders(torsion):
    out = {}
    for q, tors in torsion.items():
        for t in tors:
            out[q] = out.get(q, 1) * t
    return out


@pytest.mark.parametrize("seed,index,size", [(1, 0, "smoke"), (2, 0, "smoke"),
                                             (3, 0, "smoke"), (1, 0, "full")])
def test_end_cohomology_matches_ext_table(tmp_path, capsys, seed, index,
                                          size):
    poset, reps = str(tmp_path / "poset.json"), str(tmp_path / "reps.json")
    _gen().write_instance(seed, index, size, poset, reps)
    end_z = _compute(tmp_path, capsys, poset, reps, "end")
    end_q = _compute(tmp_path, capsys, poset, reps, "end", "--ring", "Q")
    ext = _compute(tmp_path, capsys, poset, reps, "ext", "--qmax", str(QMAX))
    assert end_z["resolution_exact"] and end_q["resolution_exact"]
    assert end_z["h_betti"] == end_q["h_betti"]
    _assert_end_matches_ext(end_z, ext)


def _assert_end_matches_ext(end_z, ext):
    betti, torsion = {}, {}
    for cell in ext["ext"].values():
        for key, (b, tors) in cell.items():
            betti[key[1:]] = betti.get(key[1:], 0) + b
            torsion.setdefault(key[1:], []).extend(tors)
    assert end_z["h_betti"] == {q: b for q, b in betti.items() if b}
    assert _orders(end_z["h_torsion"]) == _orders(torsion)


# P < E with V = (Z --2--> Z) and W = (Z --1--> Z): Ext^1(V, V) = Z/2, so
# H^1(End J) of V (+) W has torsion, unlike every generated instance
TORSION_POSET = {"strata": [{"name": "P", "dim": 0},
                            {"name": "E", "dim": 1}],
                 "covers": [["P", "E"]], "acyclicity_asserted": True}
TORSION_REPS = {"reps": [
    {"name": "V", "stalks": {"P": 1, "E": 1}, "arrows": {"(P,E)": [[2]]}},
    {"name": "W", "stalks": {"P": 1, "E": 1}, "arrows": {"(P,E)": [[1]]}},
]}


def test_end_torsion_matches_ext_torsion(tmp_path, capsys):
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    poset.write_text(json.dumps(TORSION_POSET))
    reps.write_text(json.dumps(TORSION_REPS))
    end_z = _compute(tmp_path, capsys, str(poset), str(reps), "end")
    ext = _compute(tmp_path, capsys, str(poset), str(reps), "ext",
                   "--qmax", str(QMAX))
    assert end_z["h_torsion"] == {"1": [2]}
    assert ext["ext"]["V->V"]["q1"] == [0, [2]]
    _assert_end_matches_ext(end_z, ext)


def test_end_torsion_through_the_reduced_complex():
    """`cohomology` of this End J keeps a non-empty core after the unit
    pivots, and reads the torsion Z/2 in degree 1 off it."""
    quiver = build_quiver(StratPoset([("P", 0), ("E", 1)], [("P", "E")],
                                     acyclicity_asserted=True))
    V, W = (Representation(quiver, ZZ, {"P": 1, "E": 1},
                           {("P", "E"): ExactMatrix.from_rows([[c]])})
            for c in (2, 1))
    cores = injective_coresolution(direct_sum([V, W], names=["V", "W"]))
    J = ComplexOfReps(quiver, ZZ, dict(enumerate(cores.terms)),
                      dict(enumerate(cores.maps)))
    C = end_dg_algebra(J).complex()
    h = cohomology(C)
    report = cone_report(C)
    assert h.torsion(1) == [2]
    assert {q: (h.betti(q), h.torsion(q)) for q in C.degrees()} == {
        q: (r["betti"], r["torsion"]) for q, r in report.items()}
    reduced, _, _ = _reduce_units(C)
    assert any(not d.is_zero() for d in reduced.differentials.values())
