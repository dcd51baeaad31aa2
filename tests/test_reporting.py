"""Tests for run configuration, claim execution, report schema, and CSV/JSON
emission."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from darbouxkit import (
    CLAIM_IDS,
    OUTDIR_ENV,
    CigarProductPotential,
    DarbouxMap,
    RunConfig,
    SolitonProfile,
    emit_plot_data,
    flat_potential,
    pullback_report,
    resolve_out,
    run_claim,
    run_suite,
    suite_passed,
)
from darbouxkit import reporting as reporting_mod


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 20260814
        assert cfg.points == 100
        assert cfg.radius == 5.0
        assert cfg.rays == 8

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ValueError, match="config error"):
            RunConfig(tolerances={"profile-ode": 0.0})

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="config error"):
            RunConfig(tolerances={"profile-ode": -1.0})

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError, match="config error"):
            RunConfig(claims=("nonexistent-claim",))
        with pytest.raises(ValueError, match="config error"):
            RunConfig(tolerances={"nonexistent-claim": 1.0})

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(points=0)
        with pytest.raises(ValueError):
            RunConfig(radius=-1.0)
        with pytest.raises(ValueError):
            RunConfig(rays=0)

    @pytest.mark.parametrize("field", ["radius", "properness_threshold", "geodesic_length"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"config error: {field} must be finite"):
            RunConfig(**{field: value})

    def test_from_json_rejects_nan(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"radius": NaN}')  # Python's json parser accepts NaN
        with pytest.raises(ValueError, match="config error: radius"):
            RunConfig.from_json(p)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="config error"):
            RunConfig.from_dict({"seeed": 1})

    def test_from_dict_round_trip(self):
        cfg = RunConfig.from_dict(
            {"seed": 5, "points": 17, "claims": ["profile-ode"], "tolerances": {"profile-ode": 1e-6}}
        )
        assert cfg.seed == 5
        assert cfg.points == 17
        assert cfg.claims == ("profile-ode",)
        assert cfg.tolerance_for("profile-ode", 1.0) == 1e-6
        assert cfg.tolerance_for("cigar-pullback", 2.5) == 2.5

    def test_from_json_diagnostics(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{'seed': 1}")  # single quotes: invalid JSON
        with pytest.raises(ValueError, match="line"):
            RunConfig.from_json(bad)

    def test_from_json_ok(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 9, "points": 3}))
        cfg = RunConfig.from_json(p)
        assert cfg.seed == 9 and cfg.points == 3

    def test_rng_for_is_claim_keyed_and_stable(self):
        cfg = RunConfig(seed=1)
        a = cfg.rng_for("profile-ode").standard_normal(4)
        b = cfg.rng_for("profile-ode").standard_normal(4)
        c = cfg.rng_for("cigar-pullback").standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_resolve_outdir_priority(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(OUTDIR_ENV, raising=False)
        assert resolve_out("r.json", RunConfig().outdir) == Path("r.json")
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env"))
        assert resolve_out("r.json", RunConfig().outdir) == tmp_path / "env" / "r.json"
        cfg = RunConfig(outdir=str(tmp_path / "explicit"))
        assert resolve_out("r.json", cfg.outdir) == tmp_path / "explicit" / "r.json"
        assert (tmp_path / "explicit").is_dir()
        assert resolve_out(tmp_path / "abs.json", cfg.outdir) == tmp_path / "abs.json"


class TestClaimExecution:
    def test_claim_ids_sorted_and_complete(self):
        assert list(CLAIM_IDS) == sorted(CLAIM_IDS)
        assert set(CLAIM_IDS) == {
            "cigar-curvature",
            "cigar-pullback",
            "ciriza-linearity",
            "defect-identity",
            "map-side-conditions",
            "profile-closed-form",
            "profile-limits",
            "profile-ode",
            "soliton-pullback",
            "total-geodesy",
        }

    def test_unknown_claim_raises(self):
        with pytest.raises(ValueError):
            run_claim("nope", RunConfig())

    def test_fast_claim_passes(self):
        cfg = RunConfig(points=10)
        rep = run_claim("profile-ode", cfg)
        assert rep.passed
        assert rep.claim == "profile-ode"
        assert rep.max_residual <= rep.tolerance
        assert rep.wall_time_s > 0.0

    @pytest.mark.parametrize("claim, solves", [("profile-closed-form", 200), ("profile-limits", 9)])
    def test_profile_claims_solve_once_per_t(self, monkeypatch, claim, solves):
        calls = []
        original = SolitonProfile.u_prime

        def counted(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(SolitonProfile, "u_prime", counted)
        assert run_claim(claim, RunConfig()).passed
        assert len(calls) == solves

    def test_exception_becomes_failed_report(self, monkeypatch):
        def boom(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(reporting_mod._CLAIM_FUNCTIONS, "profile-ode", boom)
        rep = run_claim("profile-ode", RunConfig())
        assert not rep.passed
        assert rep.max_residual == np.inf
        assert "synthetic failure" in json.dumps(rep.details)

    def test_exception_keeps_traceback(self, monkeypatch):
        def raising_claim_body(cfg):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(reporting_mod._CLAIM_FUNCTIONS, "profile-ode", raising_claim_body)
        trace = run_claim("profile-ode", RunConfig()).details["traceback"]
        assert 'in raising_claim_body\n    raise RuntimeError("synthetic failure")' in trace
        assert trace.rstrip().endswith("RuntimeError: synthetic failure")

    def test_body_excludes_wall_time_and_is_canonical(self):
        cfg = RunConfig(points=10)
        a = run_claim("profile-closed-form", cfg)
        b = run_claim("profile-closed-form", cfg)
        assert a.wall_time_s != b.wall_time_s or a.wall_time_s > 0
        assert a.body() == b.body()
        parsed = json.loads(a.body())
        assert "wall_time_s" not in parsed
        assert "wall_time_s" in a.as_dict()

    def test_jsonable_keeps_bools_apart_from_ints(self):
        # bool subclasses int; a True in the details must serialise as true
        data = reporting_mod._jsonable(
            {"a": True, "b": np.bool_(False), "c": 3, "d": np.int64(4), "e": (True, 1)}
        )
        assert json.dumps(data, sort_keys=True) == '{"a": true, "b": false, "c": 3, "d": 4, "e": [true, 1]}'

    def test_side_conditions_body_reads_properness_pass_as_bool(self):
        body = json.loads(run_claim("map-side-conditions", RunConfig(points=2, rays=1)).body())
        per_model = body["details"]["per_model"].values()
        assert all(part["properness_pass"] is True for part in per_model)

    def test_summary_line_format(self):
        rep = run_claim("profile-closed-form", RunConfig(points=10))
        line = rep.summary_line()
        assert line.startswith("PASS") or line.startswith("FAIL")
        assert "profile-closed-form" in line

    def test_run_suite_subset_and_order(self):
        cfg = RunConfig(points=10, claims=("profile-ode", "profile-closed-form"))
        reports = run_suite(cfg)
        assert [r.claim for r in reports] == ["profile-closed-form", "profile-ode"]
        assert suite_passed(reports)

    @pytest.mark.parametrize(
        "claim, owner, attr",
        [
            ("cigar-pullback", DarbouxMap, "pullback_residual"),
            ("profile-ode", SolitonProfile, "ode_residual"),
        ],
    )
    def test_nan_residual_fails_claim(self, monkeypatch, claim, owner, attr):
        monkeypatch.setattr(owner, attr, lambda *args, **kwargs: float("nan"))
        rep = run_claim(claim, RunConfig(points=3))
        assert not rep.passed
        assert np.isnan(rep.max_residual)

    def test_tolerance_override_can_force_failure(self):
        cfg = RunConfig(points=10, tolerances={"profile-ode": 1e-30})
        rep = run_claim("profile-ode", cfg)
        assert not rep.passed
        assert rep.tolerance == 1e-30


class TestPullbackReport:
    def test_schema_keys_exact(self):
        rep = pullback_report(CigarProductPotential(2), points=10)
        assert set(rep) == {"model", "n", "max_residual", "points_checked", "pass"}
        assert rep["model"] == "cigar-n2"
        assert rep["n"] == 2
        assert rep["points_checked"] == 10
        assert rep["pass"] is True
        assert rep["max_residual"] <= 1e-8

    def test_fd_method_and_failure_flag(self):
        rep = pullback_report(flat_potential(1), points=5, method="fd", tolerance=1e-30)
        assert rep["pass"] is False or rep["max_residual"] == 0.0

    def test_seed_determinism(self):
        a = pullback_report(CigarProductPotential(1), points=7, seed=3)
        b = pullback_report(CigarProductPotential(1), points=7, seed=3)
        assert a == b


class TestEmitPlotData:
    def test_profile_csv(self, tmp_path):
        out = emit_plot_data(
            "profile", {"n": 2, "t_min": -2.0, "t_max": 2.0, "count": 9},
            out=tmp_path / "p.csv",
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,u_prime,u_second,ode_residual"
        assert len(lines) == 10

    def test_geodesic_csv(self, tmp_path):
        out = emit_plot_data(
            "geodesic",
            {
                "model": {"kind": "cigar", "n": 1},
                "start": [0.3],
                "vel": [1.0],
                "length": 1.0,
                "steps": 16,
            },
            out=tmp_path / "g.csv",
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,re_z1,im_z1,energy_drift"
        # step count may double to meet the drift tolerance
        assert len(lines) >= 18
        assert float(lines[-1].split(",")[-1]) <= 1e-8

    def test_geodesic_csv_keeps_unconverged_drift(self, tmp_path):
        params = {"model": {"kind": "cigar", "n": 1}, "start": [0.9], "vel": [2.0], "length": 8.0, "steps": 1}
        out = emit_plot_data("geodesic", params, out=tmp_path / "g.csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 16 + 1  # header, then the fourth refinement's 16 steps
        assert float(lines[-1].split(",")[-1]) > 1e-8

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data("surface", out=tmp_path / "x.csv")

    def test_outdir_env_used_for_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
        out = emit_plot_data("profile", {"n": 1, "count": 4})
        assert out.parent == tmp_path
        assert out.exists()


class TestSuiteDeterminism:
    def test_two_runs_identical_bodies(self):
        cfg = RunConfig(points=10, claims=("profile-ode", "profile-limits"))
        a = [r.body() for r in run_suite(cfg)]
        b = [r.body() for r in run_suite(cfg)]
        assert a == b

    def test_seed_changes_bodies(self):
        claims = ("cigar-pullback",)
        a = [r.body() for r in run_suite(RunConfig(seed=1, points=10, claims=claims))]
        b = [r.body() for r in run_suite(RunConfig(seed=2, points=10, claims=claims))]
        assert a != b
