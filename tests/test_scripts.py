"""Smoke tests: each experiment script runs end to end on small arguments."""

import hashlib
import json
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from darbouxkit import DarbouxMap, GeodesicDriftError, RunConfig, geodesic_integrate, run_suite
from darbouxkit.potentials import metric_energy

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_residual_sweep(tmp_path, monkeypatch, capsys):
    run_script("residual_sweep.py", ["--points", "2", "--radii", "0.5", "1.0", "--out", str(tmp_path)],
               monkeypatch)
    rows = (tmp_path / "residual_sweep.csv").read_text().splitlines()
    assert rows[0] == "model,n,radius,max_residual_analytic,max_residual_fd"
    assert len(rows) == 1 + 8 * 2
    assert "worst analytic residual over all models/radii" in capsys.readouterr().out


def test_residual_sweep_keeps_nan_past_first_point(tmp_path, monkeypatch, capsys):
    original = DarbouxMap.pullback_residual
    calls = []

    def nan_in_second_row(self, z, method="analytic"):
        calls.append(z)
        residuals = original(self, z, method=method)
        if len(calls) == 1:  # the first model's first analytic batch
            residuals[1] = float("nan")
        return residuals

    monkeypatch.setattr(DarbouxMap, "pullback_residual", nan_in_second_row)
    run_script("residual_sweep.py", ["--points", "2", "--radii", "0.5", "1.0", "--out", str(tmp_path)],
               monkeypatch)
    assert "worst analytic residual over all models/radii: nan" in capsys.readouterr().out


def test_geodesy_demo(tmp_path, monkeypatch, capsys):
    run_script("geodesy_demo.py", ["--length", "1", "--out", str(tmp_path)], monkeypatch)
    out = capsys.readouterr().out
    assert "max distance to subspace" in out and "max distance to curve" in out
    for name in ("geodesy_confined.csv", "geodesy_departure.csv"):
        assert (tmp_path / name).read_text().startswith("tau,distance")


def test_geodesy_demo_launches_at_unit_speed(tmp_path, monkeypatch):
    # --length is arclength only if every launch has metric energy 1
    energies = []

    def recording(model, z, v, length):
        energies.append(metric_energy(model, z, v))
        return geodesic_integrate(model, z, v, length)

    monkeypatch.setattr("darbouxkit.geodesic_integrate", recording)
    run_script("geodesy_demo.py", ["--length", "0.5", "--out", str(tmp_path)], monkeypatch)
    assert len(energies) == 2
    assert energies == pytest.approx([1.0, 1.0], rel=0.0, abs=1e-12)


def test_geodesy_demo_rejects_unconverged_trajectory(tmp_path, monkeypatch):
    def coarse(model, z, v, length):
        return geodesic_integrate(model, z, v, length, steps=1)

    monkeypatch.setattr("darbouxkit.geodesics._DRIFT_TOL", 1e-300)
    monkeypatch.setattr("darbouxkit.geodesic_integrate", coarse)
    with pytest.raises(GeodesicDriftError):
        run_script("geodesy_demo.py", ["--length", "1", "--out", str(tmp_path)], monkeypatch)


def test_suite_digests(monkeypatch, capsys):
    with pytest.raises(SystemExit) as status:
        run_script("suite_digests.py", ["--seeds", "1"], monkeypatch)
    reports = run_suite(RunConfig(seed=1))
    digest = hashlib.sha256("".join(r.body() for r in reports).encode()).hexdigest()
    assert all(r.passed for r in reports) and status.value.code == 0
    assert capsys.readouterr().out == f"1 {digest[:16]} PASS\n"


def test_suite_digests_save_and_against(tmp_path, monkeypatch, capsys):
    # saving and comparing the same sources prints only --save's digest line
    args = ["--seeds", "1"]
    outputs = []
    for extra in (["--save", str(tmp_path)], ["--against", str(tmp_path)]):
        with pytest.raises(SystemExit) as status:
            run_script("suite_digests.py", args + extra, monkeypatch)
        assert status.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert re.fullmatch(r"1 [0-9a-f]{16} PASS\n", outputs[0]) and outputs[1] == ""
    # one edited saved leaf prints exactly that leaf
    saved = tmp_path / "1" / "cigar-curvature.json"
    body = json.loads(saved.read_text())
    leaf = body["details"]["per_model"]["cigar-n1"]
    new = leaf["identity"]
    leaf["identity"] = 2.0 * new
    saved.write_text(json.dumps(body, sort_keys=True))
    with pytest.raises(SystemExit) as status:
        run_script("suite_digests.py", args + ["--against", str(tmp_path)], monkeypatch)
    path = "details.per_model.cigar-n1.identity"
    assert capsys.readouterr().out == f"1 cigar-curvature {path} {2.0 * new!r} {new!r} 0.5\n"
    assert status.value.code == 1  # a moved leaf fails the comparison, though every claim passed
    # a leaf present on one side only reads <absent> on the other, an empty
    # container (map-side-conditions' bounds are {}) and a null included
    saved = tmp_path / "1" / "map-side-conditions.json"
    body = json.loads(saved.read_text())
    assert body["details"].pop("bounds") == {}
    body["details"]["gone"] = []
    body["details"]["was_null"] = None
    saved.write_text(json.dumps(body, sort_keys=True))
    with pytest.raises(SystemExit) as status:
        run_script("suite_digests.py", args + ["--against", str(tmp_path)], monkeypatch)
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [
        "1 map-side-conditions details.bounds <absent> {} -",
        "1 map-side-conditions details.gone [] <absent> -",
        "1 map-side-conditions details.was_null None <absent> -",
    ]
    assert status.value.code == 1


def test_suite_digests_moved_sees_every_leaf():
    # an added null or {} and a removed [] each read as a moved leaf
    moved = runpy.run_path(str(SCRIPTS / "suite_digests.py"))["_moved"]
    assert list(moved('{"a": 1}', '{"a": 1, "b": null}')) == [("b", "<absent>", "None", "-")]
    assert list(moved('{"a": 1}', '{"a": 1, "b": {}}')) == [("b", "<absent>", "{}", "-")]
    assert list(moved('{"a": [], "b": 2}', '{"b": 2}')) == [("a", "[]", "<absent>", "-")]
    assert list(moved('{"a": [1.0]}', '{"a": [1.5]}')) == [("a[0]", "1.0", "1.5", "0.5")]
    assert list(moved('{"a": {}}', '{"a": {}}')) == []


def test_suite_digests_records_the_host(tmp_path, monkeypatch, capsys):
    # --save records numpy's version and the dispatch variables; --against
    # names what differs on stderr and leaves stdout as it was
    for name in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
        monkeypatch.delenv(name, raising=False)
    args = ["--seeds", "1"]
    with pytest.raises(SystemExit):
        run_script("suite_digests.py", args + ["--save", str(tmp_path)], monkeypatch)
    capsys.readouterr()
    host = json.loads((tmp_path / "host.json").read_text())
    assert host["numpy"] == np.__version__ and host["OPENBLAS_CORETYPE"] is None
    with pytest.raises(SystemExit):
        run_script("suite_digests.py", args + ["--against", str(tmp_path)], monkeypatch)
    assert capsys.readouterr() == ("", "")
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    with pytest.raises(SystemExit):
        run_script("suite_digests.py", args + ["--against", str(tmp_path)], monkeypatch)
    out, err = capsys.readouterr()
    assert out == "" and err == (f"{tmp_path / 'host.json'} differs from this host in OPENBLAS_CORETYPE: a moved"
                                 " leaf may come from numpy's or OpenBLAS's dispatch, not from the code\n")
