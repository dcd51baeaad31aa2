"""Tests for run configuration, claim execution, report schema, and CSV/JSON
emission."""

import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from darbouxkit import (
    CLAIM_IDS,
    OUTDIR_ENV,
    CigarProductPotential,
    DarbouxMap,
    MapDomainError,
    RunConfig,
    SolitonProfile,
    VerificationReport,
    flat_potential,
    fold_test_model,
    geodesic_integrate,
    model_from_descriptor,
    pullback_report,
    resolve_out,
    run_claim,
    run_suite,
    sample_polydisc,
    write_geodesic_csv,
    write_profile_csv,
)
from darbouxkit import reporting as reporting_mod


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 20260814
        assert cfg.points == 100
        assert cfg.rays == 8

    def test_fields_are_pinned(self):
        # every other run parameter is fixed by the claims themselves
        assert [f.name for f in dataclasses.fields(RunConfig)] == [
            "seed", "points", "rays", "geodesic_length", "claims",
        ]

    @pytest.mark.parametrize(
        "data",
        [
            {"tolerances": {"profile-ode": 1e300}},
            {"radius": 1e-300},
            {"properness_threshold": 1.0},
            {"outdir": "out"},
        ],
        ids=["tolerances", "radius", "properness_threshold", "outdir"],
    )
    def test_deleted_keys_are_config_errors(self, data):
        with pytest.raises(ValueError, match="config error: unknown keys"):
            RunConfig.from_dict({"claims": ["profile-ode"], "points": 5, **data})

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError, match="config error"):
            RunConfig(claims=("nonexistent-claim",))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(points=0)
        with pytest.raises(ValueError):
            RunConfig(rays=0)
        for field, value in [
            ("points", float("nan")), ("points", True), ("points", 2.0),
            ("rays", 2.5), ("rays", False), ("seed", 1.5), ("seed", -1),
        ]:
            with pytest.raises(ValueError, match=f"config error: {field} must be an integer"):
                RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["geodesic_length"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"config error: {field} must be finite"):
            RunConfig(**{field: value})

    def test_from_json_rejects_nan(self, tmp_path):
        p = tmp_path / "cfg.json"
        for field in ("geodesic_length", "points"):
            p.write_text(f'{{"{field}": NaN}}')  # Python's json parser accepts NaN
            with pytest.raises(ValueError, match=f"config error: {field}"):
                RunConfig.from_json(p)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"geodesic_length": "10"}, "geodesic_length must be finite and > 0, got '10'"),
            ({"geodesic_length": True}, "geodesic_length must be finite and > 0, got True"),
            ({"claims": 5}, "claims must be a list of claim ids, got 5"),
            ({"claims": "cigar-pullback"}, "claims must be a list of claim ids, got 'cigar-pullback'"),
        ],
        ids=["length-string", "length-bool", "claims-int", "claims-string"],
    )
    def test_from_dict_rejects_mistyped_values(self, data, message):
        # a string length once escaped as a TypeError and a bool one was read
        # as 1; an int claims raised TypeError and a string one was iterated
        # character by character ("unknown claim id 'c'")
        with pytest.raises(ValueError, match=f"config error: {re.escape(message)}"):
            RunConfig.from_dict(data)

    def test_claims_are_kept_as_a_tuple(self):
        assert RunConfig(claims=["profile-ode"]).claims == ("profile-ode",)
        assert RunConfig(claims=None).claims is None

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="config error"):
            RunConfig.from_dict({"seeed": 1})

    def test_from_dict_round_trip(self):
        cfg = RunConfig.from_dict({"seed": 5, "points": 17, "claims": ["profile-ode"]})
        assert cfg.seed == 5
        assert cfg.points == 17
        assert cfg.claims == ("profile-ode",)

    def test_from_json_diagnostics(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{'seed': 1}")  # single quotes: invalid JSON
        with pytest.raises(ValueError, match="line"):
            RunConfig.from_json(bad)

    def test_from_json_rejects_a_non_object(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="top level must be an object"):
            RunConfig.from_json(p)

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
        assert resolve_out("r.json") == Path("r.json")
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env"))
        assert resolve_out("r.json") == tmp_path / "env" / "r.json"
        explicit = str(tmp_path / "explicit")
        assert resolve_out("r.json", explicit) == tmp_path / "explicit" / "r.json"
        assert (tmp_path / "explicit").is_dir()
        assert resolve_out(tmp_path / "abs.json", explicit) == tmp_path / "abs.json"


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
        def boom(cfg, rng):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(reporting_mod._CLAIMS, "profile-ode", (boom, 1e-9))
        rep = run_claim("profile-ode", RunConfig())
        assert not rep.passed
        assert rep.max_residual == np.inf
        assert "synthetic failure" in json.dumps(rep.details)

    def test_crash_report_keeps_claim_tolerance(self, monkeypatch):
        # a crashing claim reports its registered tolerance, not 1.0
        normal = run_claim("profile-ode", RunConfig(points=3))

        def zero_division(self, t):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(SolitonProfile, "ode_residual", zero_division)
        crashed = run_claim("profile-ode", RunConfig(points=3))
        assert "ZeroDivisionError" in crashed.details["error"]
        assert crashed.tolerance == normal.tolerance == 1e-9

    def test_exception_keeps_traceback(self, monkeypatch):
        def raising_claim_body(cfg, rng):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(reporting_mod._CLAIMS, "profile-ode", (raising_claim_body, 1e-9))
        trace = run_claim("profile-ode", RunConfig()).details["traceback"]
        assert 'in raising_claim_body\n    raise RuntimeError("synthetic failure")' in trace
        assert trace.rstrip().endswith("RuntimeError: synthetic failure")

    def test_nan_defect_fails_defect_claim(self, monkeypatch):
        # the claim reads curvature_defect through the same routine as `darbouxkit defect`
        monkeypatch.setattr(reporting_mod, "curvature_defect", lambda pair, z: (float("nan"), 0.0))
        rep = run_claim("defect-identity", RunConfig())
        assert not rep.passed
        assert np.isnan(rep.details["agreement"]) and np.isnan(rep.details["max_direct_defect"])

    def test_body_excludes_wall_time_and_is_canonical(self):
        cfg = RunConfig(points=10)
        a = run_claim("profile-closed-form", cfg)
        b = run_claim("profile-closed-form", cfg)
        assert a.wall_time_s != b.wall_time_s or a.wall_time_s > 0
        assert a.body() == b.body()
        parsed = json.loads(a.body())
        assert "wall_time_s" not in parsed
        assert "wall_time_s" in a.as_dict()

    @staticmethod
    def _report(details) -> VerificationReport:
        return VerificationReport("c", None, np.int64(2), 7, np.float64(0.5), 1.0, details)

    def test_body_keeps_bools_apart_from_ints(self):
        # bool subclasses int; a True in the details must serialise as true
        details = {"a": True, "b": np.bool_(False), "c": 3, "d": np.int64(4), "e": (True, 1),
                   "f": np.float32(0.25)}
        body = json.loads(self._report(details).body())
        assert json.dumps(body["details"], sort_keys=True) == (
            '{"a": true, "b": false, "c": 3, "d": 4, "e": [true, 1], "f": 0.25}'
        )
        assert (body["samples"], body["max_residual"]) == (2, 0.5)

    @pytest.mark.parametrize("value", [1j, np.arange(2), {1.5}], ids=["complex", "ndarray", "set"])
    def test_body_rejects_other_types(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            self._report({"x": value}).body()

    def test_model_entries_round_trip(self):
        # every model a claim names is a descriptor its model rebuilds exactly
        for report in run_suite(RunConfig()):
            entries = report.model if isinstance(report.model, list) else [report.model]
            assert entries, report.claim
            for entry in entries:
                assert model_from_descriptor(entry).descriptor() == entry, report.claim

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
        assert all(r.passed for r in reports)

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


class TestBatchedClaims:
    """The pullback and curvature claims make one call per model and route."""

    def test_one_pullback_call_per_model_and_method(self, monkeypatch):
        shapes = []
        original = DarbouxMap.pullback_residual

        def counted(self, z, method="analytic"):
            shapes.append((self.model.name, method, np.shape(z)))
            return original(self, z, method=method)

        monkeypatch.setattr(DarbouxMap, "pullback_residual", counted)
        assert run_claim("cigar-pullback", RunConfig(points=7)).passed
        names = ["cigar-n1", "cigar-n2", "cigar-n3", "cigar-n4", "poly-n2"]
        ns = [1, 2, 3, 4, 2]
        assert shapes == [(m, method, (7, n)) for m, n in zip(names, ns) for method in ("analytic", "fd")]

    def test_one_analytic_curvature_call_per_model(self, monkeypatch):
        shapes = []
        original = reporting_mod.curvature_at

        def counted(model, z, method="analytic"):
            shapes.append((model.n, method, np.shape(z)))
            return original(model, z, method=method)

        monkeypatch.setattr(reporting_mod, "curvature_at", counted)
        assert run_claim("cigar-curvature", RunConfig(points=30)).passed
        # the FD cross-check runs in calls of five points (its stencil is 1 + 8n + 32n^2 rows)
        assert shapes == [call for n in (1, 2, 3)
                          for call in [(n, "analytic", (30, n))] + [(n, "fd", (5, n))] * 5]

    @pytest.mark.parametrize("claim", ["cigar-pullback", "soliton-pullback"])
    def test_nan_in_one_row_fails_the_claim(self, monkeypatch, claim):
        original = DarbouxMap.pullback_residual

        def nan_in_second_row(self, z, method="analytic"):
            out = original(self, z, method=method)
            out[1] = np.nan
            return out

        monkeypatch.setattr(DarbouxMap, "pullback_residual", nan_in_second_row)
        pts = np.array([[0.1, 0.2j], [0.3, 0.4], [0.5j, 0.6]])
        assert np.isnan(reporting_mod._pullback_worst(DarbouxMap(CigarProductPotential(2)), pts, "fd"))
        rep = run_claim(claim, RunConfig(points=3))
        assert not rep.passed
        assert np.isnan(rep.max_residual)

    def test_fold_sample_raises_the_first_bad_points_error(self):
        # pullback_report's sample, checked point by point, fails first where
        # the batched call fails, with the same text
        model = fold_test_model()
        pts = sample_polydisc(np.random.default_rng(20260814), 100, 1, 5.0)
        dm = DarbouxMap(model)
        first_error = None
        for z in pts:
            try:
                dm.pullback_residual(z)
            except MapDomainError as err:
                first_error = str(err)
                break
        assert first_error is not None
        with pytest.raises(MapDomainError) as batch:
            pullback_report(model)
        assert str(batch.value) == first_error


class TestPullbackReport:
    def test_schema_keys_exact(self):
        rep = pullback_report(CigarProductPotential(2), points=10)
        assert set(rep) == {"model", "n", "max_residual", "points_checked", "pass"}
        assert rep["model"] == "cigar-n2"
        assert rep["n"] == 2
        assert rep["points_checked"] == 10
        assert rep["pass"] is True
        assert rep["max_residual"] <= 1e-8

    def test_fd_method_and_failure_flag(self, monkeypatch):
        rep = pullback_report(flat_potential(1), points=5, method="fd")
        assert rep["pass"] is True
        # each method is judged by its own bound: 1e-6 passes FD (1e-5), fails analytic (1e-8)
        monkeypatch.setattr(DarbouxMap, "pullback_residual", lambda self, z, method="analytic": 1e-6)
        model = CigarProductPotential(1)
        assert pullback_report(model, points=5, method="fd")["pass"] is True
        assert pullback_report(model, points=5)["pass"] is False

    @pytest.mark.parametrize("kwargs", [{"points": 0}, {"radius": float("nan")}, {"radius": float("inf")}])
    def test_empty_or_nonfinite_sample_rejected(self, kwargs):
        # a check of no points would pass with max_residual 0.0
        with pytest.raises(ValueError):
            pullback_report(CigarProductPotential(1), **kwargs)

    def test_seed_determinism(self):
        a = pullback_report(CigarProductPotential(1), points=7, seed=3)
        b = pullback_report(CigarProductPotential(1), points=7, seed=3)
        assert a == b


class TestCsvWriters:
    def test_profile_csv(self, tmp_path):
        out = write_profile_csv(SolitonProfile(2), -2.0, 2.0, 9, out=tmp_path / "p.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,u_prime,u_second,ode_residual"
        assert len(lines) == 10

    def test_geodesic_csv(self, tmp_path):
        model = CigarProductPotential(1)
        trajectory = geodesic_integrate(model, [0.3], [1.0], 1.0, steps=16)
        out = write_geodesic_csv(model, trajectory, out=tmp_path / "g.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,re_z1,im_z1,energy_drift"
        # step count may double to meet the drift tolerance
        assert len(lines) >= 18
        assert float(lines[-1].split(",")[-1]) <= 1e-8

    def test_geodesic_csv_keeps_unconverged_drift(self, tmp_path):
        model = CigarProductPotential(1)
        trajectory = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=1)
        assert not trajectory.converged
        out = write_geodesic_csv(model, trajectory, out=tmp_path / "g.csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 16 + 1  # header, then the fourth refinement's 16 steps
        assert float(lines[-1].split(",")[-1]) > 1e-8

    def test_geodesic_csv_columns_are_the_trajectory(self, tmp_path):
        # a complex n = 2 launch, so a swapped or shifted column cannot pass
        model = CigarProductPotential(2)
        trajectory = geodesic_integrate(model, [0.5 + 0.2j, -0.3 + 0.4j], [1.0 - 0.5j, 0.3 + 0.7j], 2.0, steps=16)
        out = write_geodesic_csv(model, trajectory, out=tmp_path / "g.csv")
        with out.open() as fh:
            table = {name: np.array(col, dtype=float) for name, *col in zip(*csv.reader(fh))}
        assert np.array_equal(table["tau"], trajectory.times)
        for j in range(model.n):
            assert np.array_equal(table[f"re_z{j + 1}"], trajectory.points[:, j].real)
            assert np.array_equal(table[f"im_z{j + 1}"], trajectory.points[:, j].imag)

    def test_outdir_env_used_for_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path))
        out = write_profile_csv(SolitonProfile(1), -10.0, 10.0, 4)
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
