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

from strathom.cli import main

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
    betti, torsion = {}, {}
    for cell in ext["ext"].values():
        for key, (b, tors) in cell.items():
            betti[key[1:]] = betti.get(key[1:], 0) + b
            torsion.setdefault(key[1:], []).extend(tors)
    assert end_z["h_betti"] == {q: b for q, b in betti.items() if b}
    assert _orders(end_z["h_torsion"]) == _orders(torsion)
