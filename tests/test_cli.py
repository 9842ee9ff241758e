import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from strathom import cli
from strathom.cli import main


def _jsonable(x):
    """Reference for render_report: a recursive walk that turns a report
    into plain JSON values for json.dumps."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


@pytest.fixture(autouse=True)
def render_matches_reference_walk(monkeypatch):
    """Every JSON report a test here renders has the bytes of the
    reference walk followed by json.dumps."""
    real = cli.render_report

    def checked(report, out_format):
        text = real(report, out_format)
        if out_format == "json":
            assert text == json.dumps(_jsonable(report), sort_keys=True,
                                      separators=(",", ":")) + "\n"
        return text

    monkeypatch.setattr(cli, "render_report", checked)


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


# sha256 of `compute` stdout on the bench/gen.py instances (seed 1, shape
# full), by (action, ring, index)
COMPUTE_GOLDEN = {
    ("hom", "Z", 0):
        "5b320d88ea0b8c9d6992e1eea4971e4d1d72541348d44ebfec5211837743a159",
    ("hom", "Z", 1):
        "e82ee0c1f5d0ddee4020af640d7e8f3b17613bdcd321aba73f00aeaf08c1598a",
    ("hom", "Q", 0):
        "dde29e6ad8669508c1c477720ca9cf04b300201205e57af5adc4f452e2f84e07",
    ("hom", "Q", 1):
        "9cdd4dbd7ee1a2f6d8f49ec7e64d5465df83106b6c680b64de7bed603dd17145",
    ("ext", "Z", 0):
        "8cce7c099848fa96005c017ce8d731c4cb73889f4a0f8789e03d9280f7d2f4ab",
    ("ext", "Z", 1):
        "db0129f233b42b54d0de8c20fc33ac64aaa14aebd916c358e8652f8fe6730e04",
    ("ext", "Q", 0):
        "86921c0650fb096eefff230ab59e5792c29b88b3fb163b6cbd9e2762e69a0d68",
    ("ext", "Q", 1):
        "34b27ae149bbdf57f7e1939084fbc0b80f3d0a801ca03749bb3c7d5772a77178",
    ("end", "Z", 0):
        "8679e0c7f2a69b3a9dfa08a1756ecd2b97c36900a7cac2d28ba679f64c07a0d9",
    ("end", "Z", 1):
        "dc7dc178e2d5b698b8c27ec126f9e5688abe79f28e219d0293b0a8b04c152f2e",
    ("end", "Q", 0):
        "9cc19d751f35e6834d8dfc608e1eea9cd0314acf556cc2d820d84264d25038a4",
    ("end", "Q", 1):
        "5ec243b7fa217b668170e4705ca50d428eab513abda07aa569341b6821c95547",
    ("cohomology", "Z", 0):
        "ea06e4e89cee8ca4bf91097da121f9b6029e92f69965dc470abe24b6cdd70db6",
    ("cohomology", "Z", 1):
        "eb0bb1d01cb3483632ecf048a81e8bd4159b73261c1e71344a947d4500f0aae7",
    ("cohomology", "Q", 0):
        "33d6c1b5c3f5ad58ec71769c79dca51fc2ae16de7289253ef8fd625fb641edad",
    ("cohomology", "Q", 1):
        "b4fdfeb7b235164243cc6dd29a52a3dea628f50ea1584b1e9f7e9ccad3653f70",
}


@pytest.mark.parametrize("action,ring,index", sorted(COMPUTE_GOLDEN))
def test_compute_golden_bytes(tmp_path, capsys, action, ring, index):
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    gen.write_instance(1, index, "full", str(poset), str(reps))
    code, out = run(capsys, "compute", "--poset", str(poset), "--reps",
                    str(reps), "--action", action, "--ring", ring)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        COMPUTE_GOLDEN[(action, ring, index)]


# entries with denominators, so that Q Smith forms scale rows; the two
# paths P1 -> H1 agree: 1/3 * 3/2 = -1 * -1/2
REPS_FRACTIONS = {"reps": [
    {"name": "V", "stalks": {"P1": 1, "E1": 1},
     "arrows": {"(P1,E1)": [["3/2"]]}},
    {"name": "W", "stalks": {"P1": 1, "E1": 1, "E2": 1, "H1": 1},
     "arrows": {"(P1,E1)": [["3/2"]], "(P1,E2)": [["-1/2"]],
                "(E1,H1)": [["1/3"]], "(E2,H1)": [[-1]]}}]}


@pytest.mark.parametrize("action,digest", [
    ("hom",
     "dfac4c13b7da07959d741f95056fd9551bec4bcc32847abdfe100ea900b45e03"),
    ("ext",
     "3dd4c3fe63703d7bc9f84137d3533dd79c1666c6bddd59b5d3cb0c8c17ee9bf5"),
    ("end",
     "58dea948e53c8276abaa3b62790cf678a7669756a3dd4cb1e849f870564b4839"),
    ("cohomology",
     "427990dfcce045aebe5a31b33e7b028449aad94c7a086d733c126b6ce3ccb012"),
])
def test_compute_fraction_input_golden_bytes(tmp_path, capsys, action,
                                             digest):
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    poset.write_text(json.dumps(POSET_A2))
    reps.write_text(json.dumps(REPS_FRACTIONS))
    code, out = run(capsys, "compute", "--poset", str(poset), "--reps",
                    str(reps), "--action", action, "--ring", "Q")
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
                         "--action", "end")
    assert code == 0
    assert rep["results"]["resolution_exact"]
    # same cohomology as the built-in trivial scenario, through a different
    # (coevaluation) resolution
    assert rep["results"]["h_betti"] == {"0": 1, "2": 1}


def test_compute_end_with_resolution_is_no_action(files, capsys):
    # the old alias of `end` is gone: a usage error, not a second name
    poset, reps = files
    assert main(["compute", "--poset", poset, "--reps", reps,
                 "--action", "end-with-resolution"]) == 2
    assert "invalid choice" in capsys.readouterr().err


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


DELETE = object()


def _with(doc, path, value):
    """A copy of doc with the value at path replaced, added (a new key, or
    the index one past the end of a list) or deleted (value DELETE)."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    elif isinstance(node, list) and path[-1] == len(node):
        node.append(value)
    else:
        node[path[-1]] = value
    return doc


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
    assert err == ("error: poset file: $.strata[0].name: 3 is not of type "
                   "'string'\n")


@pytest.mark.parametrize("which,doc,message", [
    ("poset", _with(POSET_A2, ("covers", 0), ["P1"]),
     "$.covers[0]: ['P1'] is too short"),
    ("poset", _with(POSET_A2, ("covers", 0), ["P1", "E1", "H1"]),
     "$.covers[0]: ['P1', 'E1', 'H1'] is too long"),
    ("poset", _with(POSET_A2, ("strata", 2, "name"), DELETE),
     "$.strata[2]: 'name' is a required property"),
    ("reps", _with(REPS_C, ("reps", 0, "arrows", "(P1,E1)", 0, 0), 1.5),
     "$.reps[0].arrows['(P1,E1)'][0][0]: 1.5 is not of type 'integer', "
     "'string'"),
    ("reps", _with(REPS_C, ("reps", 0, "stalks", "H1"), True),
     "$.reps[0].stalks.H1: True is not of type 'integer'"),
    # two faults at one depth: the first in document order is named
    ("poset", _with(_with(POSET_A2, ("strata", 1, "name"), 1),
                    ("strata", 4, "name"), 2),
     "$.strata[1].name: 1 is not of type 'string'"),
    # a shallower fault wins over an earlier, deeper one
    ("poset", _with(_with(POSET_A2, ("strata", 0, "dim"), "0"),
                    ("covers",), {}),
     "$.covers: {} is not of type 'array'"),
])
def test_compute_schema_diagnostics_name_path_and_message(
        tmp_path, capsys, which, doc, message):
    paths = {"poset": tmp_path / "poset.json", "reps": tmp_path / "reps.json"}
    paths["poset"].write_text(json.dumps(POSET_A2))
    paths["reps"].write_text(json.dumps(REPS_C))
    paths[which].write_text(json.dumps(doc))
    code = main(["compute", "--poset", str(paths["poset"]),
                 "--reps", str(paths["reps"]), "--action", "hom"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {which} file: {message}\n"


@pytest.mark.parametrize("which", ["poset", "reps"])
def test_compute_rejects_deeply_nested_input(tmp_path, capsys, which):
    deep = "[" * 100_000 + "]" * 100_000
    paths = {"poset": tmp_path / "poset.json", "reps": tmp_path / "reps.json"}
    paths["poset"].write_text(json.dumps(POSET_A2))
    paths["reps"].write_text(json.dumps(REPS_C))
    paths[which].write_text(
        f'{{"strata": {deep}, "covers": []}}' if which == "poset"
        else f'{{"reps": {deep}}}')
    code = main(["compute", "--poset", str(paths["poset"]),
                 "--reps", str(paths["reps"]), "--action", "hom"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {which} file nests too deeply\n"


@pytest.mark.parametrize("schema", [
    {"type": "object", "minProperties": 1},
    # refused even where the instance never reaches it
    {"type": "object", "properties": {"absent": {"pattern": "^a"}}},
    {"type": "number"},
    {"type": "array", "items": [{"type": "string"}]},
])
def test_schema_check_refuses_what_it_does_not_implement(schema):
    with pytest.raises(NotImplementedError, match="does not implement"):
        cli._schema_error({}, schema)


def _mutations(doc):
    """(path, value) single-point edits of doc: every node replaced by each
    of a few values of every JSON type, every member deleted, and a key or
    an item added to every object and array."""
    values = [None, True, 0, -1, 2.0, 1e23, "x", [], {}, ["a"], [[1]],
              {"a": 1}]
    out = []

    def walk(node, path):
        if path:
            out.extend((path, v) for v in values + [DELETE])
        if isinstance(node, dict):
            out.extend((path + (k,), 1) for k in ("extra", "o'dd key")
                       if k not in node)
            for k, v in node.items():
                walk(v, path + (k,))
        elif isinstance(node, list):
            out.append((path + (len(node),), node[-1] if node else 1))
            for i, v in enumerate(node):
                walk(v, path + (i,))

    walk(doc, ())
    return out


def test_schema_errors_match_jsonschema_on_single_point_mutations():
    """On sampled single-point edits of the test inputs and of generated
    compute-random inputs: an input with one violation gets jsonschema's
    path and message; with several, one of jsonschema's at the least
    depth; a valid one gets none."""
    jsonschema = pytest.importorskip("jsonschema")
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs = [(POSET_A2, cli.POSET_SCHEMA), (REPS_C, cli.REPS_SCHEMA)]
    for seed, size in ((1, "smoke"), (2, "full")):
        poset, reps = gen.instance(seed, 0, size)
        docs += [(poset, cli.POSET_SCHEMA), (reps, cli.REPS_SCHEMA)]
    rng = random.Random(20)
    single = 0
    for doc, schema in docs:
        validator = jsonschema.Draft4Validator(schema)
        edits = _mutations(doc)
        for path, value in rng.sample(edits, min(len(edits), 150)):
            bad = _with(doc, path, value)
            errors = list(validator.iter_errors(bad))
            mine = cli._schema_error(bad, schema)
            named = [f"{e.json_path}: {e.message}" for e in errors]
            if len(errors) <= 1:
                single += len(errors)
                assert mine == (named[0] if named else None), (path, value)
                continue
            assert mine in named, (path, value)
            depth = {n: len(e.path) for n, e in zip(named, errors)}
            assert depth[mine] == min(depth.values()), (path, value)
    assert single > 300


@pytest.mark.parametrize("schema,instance", [
    ({"type": "array", "minItems": 1}, []),
    ({"type": "array", "maxItems": 0}, [1]),
    ({"type": "object", "additionalProperties": {"type": "integer"}},
     {"a\\b": "1", "ok": 1}),
])
def test_schema_error_wording_matches_jsonschema(schema, instance):
    """The wording of the keywords the file schemas use with other
    bounds, and the escaping of a key with a backslash."""
    jsonschema = pytest.importorskip("jsonschema")
    (error,) = jsonschema.Draft4Validator(schema).iter_errors(instance)
    assert cli._schema_error(instance, schema) == \
        f"{error.json_path}: {error.message}"


def test_cli_runs_do_not_import_jsonschema(files):
    poset, reps = files
    runs = [["compute", "--poset", poset, "--reps", reps, "--action", a]
            for a in ("ext", "hom", "end", "cohomology")]
    runs += [["formality", "trivial"], ["ext-table", "--n", "3"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    # jsonschema stays unloaded, and so do dataclasses and the modules it
    # pulls in, and traceback (only an internal error prints one) with
    # tokenize; only what the import and the runs added counts, so that a
    # site hook which preloads one of them does not fail this
    code = (
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "from strathom.cli import main\n"
        f"codes = [main(argv + ['--out-file', os.devnull])\n"
        f"         for argv in {runs!r}]\n"
        "added = set(sys.modules) - before\n"
        "print(*codes, 'jsonschema' in sys.modules,\n"
        "      *sorted(added & {'dataclasses', 'inspect', 'ast', 'dis',\n"
        "                       'traceback', 'tokenize'}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.stdout.split() == ["0"] * len(runs) + ["False"], proc.stderr


def test_render_report_converts_fractions_and_refuses_other_objects():
    report = {"a": Fraction(3, 2), "b": (Fraction(4, 2), [Fraction(-1, 3)]),
              "c": {1: "x"}, "d": None}
    assert cli.render_report(report, "json") == json.dumps(
        _jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"
    assert cli.render_report(report, "json") == \
        '{"a":"3/2","b":[2,["-1/3"]],"c":{"1":"x"},"d":null}\n'
    with pytest.raises(TypeError, match="^set is not JSON serializable$"):
        cli.render_report({"a": {1}}, "json")


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


@pytest.mark.parametrize("path,value,message", [
    (("reps", 0, "arrows", "(P1,E1)"), [[1, 2]],
     "$.reps[0].arrows['(P1,E1)']: shape (1, 2), expected (1, 1)"),
    (("reps", 0, "arrows", "(P1,E1)"), [["x/0"]],
     "$.reps[0].arrows['(P1,E1)']: bad matrix: Invalid literal for "
     "Fraction: 'x/0'"),
    (("reps", 0, "arrows", "(E1,P1)"), [[1]],
     "$.reps[0].arrows['(E1,P1)']: not a quiver arrow"),
    (("reps", 0, "arrows", "P1"), [[1]],
     "$.reps[0].arrows: arrow key 'P1' is not of the form (src,dst)"),
    (("reps", 0, "stalks", "P1"), -1, "$.reps[0].stalks.P1: negative rank"),
    (("reps", 0, "stalks", "X 1"), 1,
     "$.reps[0].stalks: unknown vertex 'X 1'"),
    (("reps", 0, "arrows", "(P1,E1)"), [[2]],
     "$.reps[0]: C: parallel paths ['P1', 'E1', 'H1'] and "
     "['P1', 'E2', 'H1'] disagree; parallel paths ['P1', 'E1', 'H2'] and "
     "['P1', 'E2', 'H2'] disagree"),
])
def test_compute_input_errors_name_json_paths(tmp_path, capsys, path, value,
                                              message):
    """Shape, rank and commutativity errors name their location as the
    schema check does: one JSON path format for every input error."""
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    poset.write_text(json.dumps(POSET_A2))
    reps.write_text(json.dumps(_with(REPS_C, path, value)))
    code = main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "hom"])
    assert code == 2
    assert capsys.readouterr().err == f"error: reps file: {message}\n"


def test_compute_refuses_duplicate_rep_names(tmp_path, capsys):
    """A second rep named C used to replace the first, so `ext` reported
    one pair C->C of the second rep alone."""
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    poset.write_text(json.dumps(POSET_A2))
    reps.write_text(json.dumps({"reps": [
        {"name": "C", "stalks": {"P1": 1, "E1": 1}},
        {"name": "C", "stalks": {"P1": 1, "E1": 0}}]}))
    code = main(["compute", "--poset", str(poset), "--reps", str(reps),
                 "--action", "ext"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: reps file: $.reps[1].name: duplicate name 'C'\n")


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


@pytest.mark.parametrize("dim", [2.0, 1e23, True])
def test_compute_rejects_integral_float_dims(tmp_path, files, capsys, dim):
    # draft 4 "integer": no integral float and no bool
    poset = tmp_path / "float_dim.json"
    strata = [dict(s) for s in POSET_A2["strata"]]
    strata[0]["dim"] = dim
    poset.write_text(json.dumps({**POSET_A2, "strata": strata}))
    code = main(["compute", "--poset", str(poset), "--reps", files[1],
                 "--action", "hom"])
    err = capsys.readouterr().err
    assert code == 2
    assert "$.strata[0].dim" in err
    assert err == (f"error: poset file: $.strata[0].dim: {dim!r} is not of "
                   "type 'integer'\n")


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


@pytest.mark.parametrize("scenario", ["one-point", "trivial"])
def test_witness_builds_each_cone_once(scenario, monkeypatch, capsys):
    """`_witness_from_representatives` and the CLI both ask whether the
    witness is a quasi-isomorphism; the map keeps its verdict, so the run
    builds two mapping cones: one over all stalks of the resolution, and
    one for the witness, between the reduced complexes that the profiles of
    its two ends keep.  No complex is reduced twice."""
    from strathom import chain_complex, rep_complex

    cones = {chain_complex: [], rep_complex: []}
    reduced = []

    def counting(module):
        def cone(f, real=module.mapping_cone):
            cones[module].append(f)
            return real(f)
        return cone

    def reduce_units(C, real=chain_complex._reduce_units):
        reduced.append(C)
        return real(C)

    for module in cones:
        monkeypatch.setattr(module, "mapping_cone", counting(module))
    monkeypatch.setattr(chain_complex, "_reduce_units", reduce_units)
    code, out = run_json(capsys, "formality", scenario)
    assert code == 0
    assert out["results"]["witness_quasi_iso"] is True
    assert len(cones[rep_complex]) == len(cones[chain_complex]) == 1
    (witness,) = cones[chain_complex]
    assert len(reduced) == len({id(C) for C in reduced}) == 2
    # the cone's ends are the cores memoized on the profiles, which
    # reading them again does not recompute
    cores = [chain_complex.cohomology(C).reduced for C in reduced[:2]]
    assert len(reduced) == 2
    assert {id(witness.source), id(witness.target)} == {id(C) for C in cores}


def test_every_complex_cone_report_reads_has_zero_square(tmp_path,
                                                         monkeypatch, capsys):
    """`cone_report` needs d.d = 0 and does not check it.  Every complex
    it receives on `formality` (all four scenarios), `ext-table` and
    `compute` ext, end and cohomology on `bench/gen.py` seed 1 passes
    `validate_complex`, run afresh on a copy: a mapping cone is marked
    valid when it is made, and that mark is not what is checked here."""
    import strathom
    from strathom import chain_complex
    from strathom.chain_complex import ChainComplex, validate_complex

    real, seen = chain_complex.cone_report, []

    def checked(C):
        fresh = ChainComplex(C.ring, C.ranks, C.differentials)
        seen.append((argv, validate_complex(fresh)))
        return real(C)

    for name, module in sys.modules.items():
        if name.split(".")[0] == strathom.__name__ and \
                getattr(module, "cone_report", None) is real:
            monkeypatch.setattr(module, "cone_report", checked)
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    gen.write_instance(1, 0, "full", str(poset), str(reps))
    runs = [["formality", "trivial"], ["formality", "one-point"],
            ["formality", "n-points", "--n", "4"],
            ["formality", "de-rham", "--n", "2"],
            ["ext-table", "--n", "4", "--qmax", "3"]]
    runs += [["compute", "--poset", str(poset), "--reps", str(reps),
              "--action", action] for action in ("ext", "end", "cohomology")]
    for argv in runs:
        count = len(seen)
        assert run(capsys, *argv)[0] == 0
        assert len(seen) > count, argv
    assert [(a, p) for a, p in seen if p] == []


# `compute --action end` on the cell model of S^3 (tests/cell_models.py),
# C (+) S over Z: the ranks of End J by degree, in a table of their own
S3_END_RANKS = {"-3": 24, "-2": 164, "-1": 538, "0": 969, "1": 958,
                "2": 508, "3": 120}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_compute_end_on_the_sphere_cell_model(tmp_path, capsys, d):
    """H(End J) of the skyscraper at a point plus the constant
    representation of the cell model of S^d over Z: rank 3 in degree 0
    and 2 in degree d, no torsion, with an exact coresolution."""
    from cell_models import sphere_documents, write_documents

    poset, reps = tmp_path / "poset.json", tmp_path / "reps.json"
    write_documents(sphere_documents(d), poset, reps)
    code, rep = run_json(capsys, "compute", "--poset", str(poset), "--reps",
                         str(reps), "--action", "end")
    assert code == 0
    results = rep["results"]
    assert results["h_betti"] == {"0": 3, str(d): 2}
    assert results["h_torsion"] == {}
    assert results["resolution_exact"] is True
    if d == 3:
        assert results["end_ranks"] == S3_END_RANKS
