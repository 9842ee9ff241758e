"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench -q

They check that every metric named in BENCHMARK.json is measured, and that
a wrong output digest, a broken cross-route identity or a CLI error counts
as a failed iteration without crashing the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import run

SPEC = run._load_spec()


def smoke(workload, trace=False):
    result, detail = run.run_workload(workload, seed=3, seconds=0.1,
                                      trace=trace, size="smoke")
    return result, detail


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_measured(workload, trace):
    result, detail = smoke(workload, trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert result["correct"], detail["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_digest_counts_as_failure(monkeypatch):
    real = run._load

    def corrupted(name):
        data = real(name)
        return {k: "0" * 64 for k in data} if name == "digests.json" else data

    monkeypatch.setattr(run, "_load", corrupted)
    result, detail = smoke("npoints-z")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "sha256" in detail["failures"][0]["problems"][0]


def test_broken_identity_counts_as_failure(monkeypatch):
    real = run.read_report

    def tampered(path):
        data, report = real(path)
        if report.get("action") == "ext":
            cell = next(iter(report["results"]["ext"].values()))
            cell["q0"][0] += 1
        return data, report

    monkeypatch.setattr(run, "read_report", tampered)
    result, detail = smoke("compute-random")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "h_betti" in detail["failures"][0]["problems"][0]


def test_check_compute_accepts_matching_routes():
    ext = {"results": {"ext": {"A->A": {"q0": [1, []], "q1": [0, [2]]},
                               "A->B": {"q0": [2, []], "q1": [1, [3]]}}}}
    end = {"results": {"resolution_exact": True,
                       "h_betti": {"0": 3, "1": 1},
                       "h_torsion": {"1": [6]}}}
    assert run.check_compute(ext, end) == []
    end["results"]["h_torsion"] = {"1": [2]}
    assert run.check_compute(ext, end)


def test_cli_error_counts_as_failure(monkeypatch):
    args = dict(run.SPHERE_ARGS["smoke"])
    args["npoints-q"] = ["formality", "n-points", "--n", "1"]
    monkeypatch.setitem(run.SPHERE_ARGS, "smoke", args)
    result, detail = smoke("npoints-q")
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "exit code 2" in detail["failures"][0]["problems"][0]


def test_generator_is_seeded_and_fixed_in_shape():
    assert gen.instance(5, 0) == gen.instance(5, 0)
    assert gen.instance(5, 0) != gen.instance(6, 0)
    for seed in range(20):
        poset, reps = gen.instance(seed, seed % 3)
        dims = {s["name"]: s["dim"] for s in poset["strata"]}
        totals = [0, 0, 0]
        for rep in reps["reps"]:
            for v, r in rep["stalks"].items():
                totals[dims[v]] += r
        assert tuple(totals) == gen.SHAPES["full"]["ranks"]
        assert len(reps["reps"]) == gen.SHAPES["full"]["reps"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "npoints-z",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
