import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strathom import cli
from strathom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out.strip().startswith("{") else None)


POSET_A2 = {
    "strata": [{"name": "P1", "dim": 0}, {"name": "P2", "dim": 0},
               {"name": "E1", "dim": 1}, {"name": "E2", "dim": 1},
               {"name": "H1", "dim": 2}, {"name": "H2", "dim": 2}],
    "covers": [["P1", "E1"], ["P1", "E2"], ["P2", "E1"], ["P2", "E2"],
               ["E1", "H1"], ["E1", "H2"], ["E2", "H1"], ["E2", "H2"]],
    "acyclicity_asserted": True,
}

REPS_C = {
    "reps": [{
        "name": "C",
        "stalks": {"P1": 1, "P2": 1, "E1": 1, "E2": 1, "H1": 1, "H2": 1},
        "arrows": {f"({a},{b})": [[1]]
                   for a, b in POSET_A2["covers"]},
    }]
}


@pytest.fixture()
def files(tmp_path):
    poset = tmp_path / "poset.json"
    reps = tmp_path / "reps.json"
    poset.write_text(json.dumps(POSET_A2))
    reps.write_text(json.dumps(REPS_C))
    return str(poset), str(reps)


def test_formality_trivial_passes(capsys):
    code, rep = run_json(capsys, "formality", "trivial", "--ring", "Z")
    assert code == 0
    assert rep["expected"]["pass"]
    assert rep["results"]["h_betti"] == {"0": 1, "2": 1}


def test_formality_npoints_ranks(capsys):
    code, rep = run_json(capsys, "formality", "n-points", "--n", "5")
    assert code == 0
    assert rep["results"]["end_ranks"] == {"-1": 5, "0": 27, "1": 35, "2": 10}
    assert rep["results"]["chain_ok"]


def test_formality_rejects_small_n(capsys):
    code, _ = run(capsys, "formality", "n-points", "--n", "1")
    assert code == 2


def test_formality_rejects_bad_flags(capsys):
    assert main(["formality", "nonsense"]) == 2
    assert main(["no-such-command"]) == 2


def test_formality_rational_ring(capsys):
    code, rep = run_json(capsys, "formality", "one-point", "--ring", "Q")
    assert code == 0
    assert "h_torsion" not in rep["results"]
    assert rep["results"]["h_betti"] == {"0": 2, "1": 2, "2": 1}


def test_report_is_byte_stable(capsys):
    _, out1 = run(capsys, "formality", "trivial")
    _, out2 = run(capsys, "formality", "trivial")
    assert out1 == out2


@pytest.mark.parametrize("argv,digest", [
    (("trivial",),
     "b42a3c550ce3a15632380875fcc2968fe934a1b0e3027a13c75608f5209af86c"),
    (("one-point",),
     "16c6678950495d270d738698581413ca51af700b8170e7255e83f6511f5bc251"),
    (("trivial", "--ring", "Q"),
     "291b08b60d7ebdfbe6f8686c2749beb62e29f69b42a137d7a1de7d94b4e87251"),
    (("one-point", "--ring", "Q"),
     "35a80ae03ff4af176183b4cf085f876f62b858a0184545ec2cd10212924d175b"),
])
def test_formality_n2_golden_bytes(capsys, argv, digest):
    code, out = run(capsys, "formality", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("formality", "n-points", "--n", "4", "--ring", "Q"),
     "537d6423052e276b089d9eb4a18fdbc76377e6fd6705cf0b7fd622685f2896df"),
    (("ext-table", "--n", "5", "--qmax", "4", "--ring", "Q"),
     "a4b4e03b2c9e22557d40d47e6539fdcb8dcf4491f777aa7f6a3ea215fe320f3a"),
])
def test_q_golden_bytes(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("formality", "n-points", "--n", "6"),
     "79b01f0502510329bd7e4fdd529cfa9c5f24bba34d8ee96bd9b6c0c22ae80798"),
    (("formality", "de-rham"),
     "775edae2735d130401318958df118b15a04b8bb14ce1855fc6e00c325fcc650c"),
    (("ext-table", "--n", "5", "--qmax", "4"),
     "9e3c8794d9499f983b12c524cf149397bd7138a569a3cbceb9e0876938182417"),
    (("ext-table", "--n", "3", "--qmax", "4"),
     "1d735aeb4d588287e3b828eace337d45ec758d8bffe424b0aea9ec548f740566"),
    (("formality", "de-rham", "--n", "3"),
     "88364c0ead27508181cf7ef77ce163aa2eb2c009540ab09e0f9c95372fe326bc"),
    (("formality", "de-rham", "--n", "7"),
     "05da778ebf1580e3c1bf0d602d6b1fc17106374bf469cde4ba8999691753c26d"),
    (("formality", "n-points", "--n", "12"),
     "99fbbfe1bea7e8a492903547fe624aa24b835c25046d5c162f99670334fb01d4"),
])
def test_z_and_de_rham_golden_bytes(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_timing_flag_adds_field(capsys):
    code, rep = run_json(capsys, "formality", "trivial", "--timing")
    assert code == 0
    assert "timing_ms" in rep


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "formality", "trivial",
                    "--out-file", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["expected"]["pass"]


def test_de_rham_scenario(capsys):
    code, rep = run_json(capsys, "formality", "de-rham", "--n", "6")
    assert code == 0
    res = rep["results"]
    assert res["dimension"] == 9
    assert res["h_entry_dims"] == {"(1,1)": 2, "(1,2)": 1,
                                   "(2,1)": 1, "(2,2)": 1}


def test_ext_table_all_vanishing(capsys):
    code, rep = run_json(capsys, "ext-table", "--n", "2", "--qmax", "3")
    assert code == 0
    pairs = rep["pairs"]
    assert len(pairs) == 36
    for cell in pairs.values():
        for q in (1, 2, 3):
            assert cell[f"q{q}"] == [0, []]


def test_ext_table_bad_n(capsys):
    assert main(["ext-table", "--n", "0"]) == 2


def test_compute_end_cross_checks_trivial_scenario(files, capsys):
    poset, reps = files
    code, rep = run_json(capsys, "compute", "--poset", poset, "--reps", reps,
                         "--action", "end-with-resolution")
    assert code == 0
    assert rep["results"]["resolution_exact"]
    # same cohomology as the built-in trivial scenario, through a different
    # (coevaluation) resolution
    assert rep["results"]["h_betti"] == {"0": 1, "2": 1}


def test_compute_hom_action(files, capsys):
    poset, reps = files
    code, rep = run_json(capsys, "compute", "--poset", poset, "--reps", reps,
                         "--action", "hom")
    assert code == 0
    assert rep["results"]["hom_ranks"] == {"C->C": 1}


def test_compute_cohomology_action_is_sphere_cohomology(files, capsys):
    poset, reps = files
    code, rep = run_json(capsys, "compute", "--poset", poset, "--reps", reps,
                         "--action", "cohomology", "--qmax", "3")
    assert code == 0
    cell = rep["results"]["cohomology"]["C"]
    assert cell["q0"] == [1, []]
    assert cell["q1"] == [0, []]
    assert cell["q2"] == [1, []]
    assert cell["q3"] == [0, []]


def test_compute_ext_action(files, capsys):
    poset, reps = files
    code, rep = run_json(capsys, "compute", "--poset", poset, "--reps", reps,
                         "--action", "ext", "--qmax", "2")
    assert code == 0
    assert rep["results"]["ext"]["C->C"]["q0"] == [1, []]


@pytest.mark.parametrize("action,qmax", [("ext", "-1"),
                                         ("cohomology", "-2")])
def test_compute_rejects_negative_qmax(files, capsys, action, qmax):
    poset, reps = files
    code = main(["compute", "--poset", poset, "--reps", reps,
                 "--action", action, "--qmax", qmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "qmax must be nonnegative" in captured.err


def test_compute_empty_poset_rejected(tmp_path, capsys):
    poset = tmp_path / "poset.json"
    reps = tmp_path / "reps.json"
    poset.write_text(json.dumps({"strata": [], "covers": []}))
    reps.write_text(json.dumps(REPS_C))
    assert main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "hom"]) == 2


def test_compute_schema_violation_diagnostics(tmp_path, capsys):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"strata": [{"name": 3, "dim": 0}],
                                 "covers": []}))
    reps = tmp_path / "reps.json"
    reps.write_text(json.dumps(REPS_C))
    code = main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "hom"])
    err = capsys.readouterr().err
    assert code == 2
    assert "strata[0]" in err


def test_compute_bad_matrix_shape(tmp_path, capsys):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(POSET_A2))
    bad = {"reps": [{"name": "V", "stalks": {"P1": 1, "E1": 1},
                     "arrows": {"(P1,E1)": [[1, 2]]}}]}
    reps = tmp_path / "reps.json"
    reps.write_text(json.dumps(bad))
    code = main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "hom"])
    err = capsys.readouterr().err
    assert code == 2
    assert "shape" in err


def _compute_with_arrow(tmp_path, entry, ring):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(POSET_A2))
    reps = tmp_path / "reps.json"
    reps.write_text(json.dumps(
        {"reps": [{"name": "V", "stalks": {"P1": 1, "E1": 1},
                   "arrows": {"(P1,E1)": [[entry]]}}]}))
    return main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "hom", "--ring", ring])


@pytest.mark.parametrize("entry,ring", [
    (1.5, "Z"), (1.5, "Q"), (True, "Z"), (1e23, "Z")])
def test_compute_rejects_inexact_matrix_entries(tmp_path, capsys, entry,
                                                ring):
    # json reads 1e23 as a float that is not 10**23; 1.5 over Z used to
    # truncate to 1, and True to count as 1
    code = _compute_with_arrow(tmp_path, entry, ring)
    err = capsys.readouterr().err
    assert code == 2
    assert "reps[0].arrows" in err and "(P1,E1)" in err


@pytest.mark.parametrize("dim", [2.0, 1e23])
def test_compute_rejects_integral_float_dims(tmp_path, files, capsys, dim):
    poset = tmp_path / "float_dim.json"
    strata = [dict(s) for s in POSET_A2["strata"]]
    strata[0]["dim"] = dim
    poset.write_text(json.dumps({**POSET_A2, "strata": strata}))
    code = main(["compute", "--poset", str(poset), "--reps", files[1],
                 "--action", "hom"])
    err = capsys.readouterr().err
    assert code == 2
    assert "$.strata[0].dim" in err


def test_compute_accepts_rational_string_entries(tmp_path, capsys):
    assert _compute_with_arrow(tmp_path, "3/2", "Q") == 0
    assert json.loads(capsys.readouterr().out)["results"]["hom_ranks"] \
        == {"V->V": 1}


def test_compute_malformed_json_line_diagnostics(tmp_path, capsys):
    poset = tmp_path / "poset.json"
    poset.write_text("{\n  broken\n}")
    reps = tmp_path / "reps.json"
    reps.write_text(json.dumps(REPS_C))
    code = main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "hom"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_mismatch_exit_code(monkeypatch, capsys):
    real = cli.formality_expectations

    def bent(scenario, n):
        return {**real(scenario, n), "end_ranks": {"0": 7, "1": 8, "2": 4}}

    monkeypatch.setattr(cli, "formality_expectations", bent)
    code, rep = run_json(capsys, "formality", "trivial")
    assert code == cli.MISMATCH == 1
    assert rep["expected"]["pass"] is False


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(args):
        raise AssertionError("morphism escaped the Hom lattice")

    monkeypatch.setattr(cli, "cmd_formality", boom)
    code = main(["formality", "trivial"])
    captured = capsys.readouterr()
    assert code == cli.INTERNAL_ERROR == 3
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "internal error: AssertionError: morphism escaped the Hom lattice")


def test_tsv_output_contains_table(capsys):
    code, out = run(capsys, "formality", "trivial", "--out", "tsv")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert any(l.startswith("0\th1\t") for l in lines)
    assert len(lines) == 18


def test_python_dash_m_strathom_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "strathom", "formality", "trivial"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["expected"]["pass"] is True
