"""CLI tests driven through click's isolated runner."""

import json
import math

import pytest
from click.testing import CliRunner

from darbouxkit import CigarProductPotential, DarbouxMap, SolitonProfile, cli, curvature, metric_at, reporting
from darbouxkit.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, env=None):
    return runner.invoke(main, args, env=env, catch_exceptions=False)


class TestVerifyPullback:
    def test_inline_model_json(self, runner, tmp_path):
        out = tmp_path / "r.json"
        result = invoke(
            runner,
            ["verify-pullback", "--model", '{"kind": "cigar", "n": 2}',
             "--points", "12", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rep = json.loads(out.read_text())
        assert set(rep) == {"model", "n", "max_residual", "points_checked", "pass"}
        assert rep["pass"] is True

    def test_model_file_and_shorthand(self, runner, tmp_path):
        desc = tmp_path / "model.json"
        desc.write_text(json.dumps({"kind": "soliton", "n": 2}))
        r1 = invoke(runner, ["verify-pullback", "--model", str(desc), "--points", "6"])
        assert r1.exit_code == 0 and '"soliton-n2"' in r1.output
        r2 = invoke(runner, ["verify-pullback", "--model", "cigar:3", "--points", "6"])
        assert r2.exit_code == 0 and '"cigar-n3"' in r2.output

    def test_fd_method(self, runner):
        result = invoke(
            runner,
            ["verify-pullback", "--model", "cigar:1", "--points", "5", "--method", "fd"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["pass"] is True

    def test_failing_tolerance_sets_exit_code(self, runner, monkeypatch):
        # 1e-6 is inside the FD bound 1e-5 and outside the analytic bound 1e-8
        monkeypatch.setattr(DarbouxMap, "pullback_residual", lambda self, z, method="analytic": 1e-6)
        args = ["verify-pullback", "--model", "cigar:1", "--points", "5"]
        analytic = invoke(runner, args)
        assert analytic.exit_code == 1
        assert json.loads(analytic.output)["pass"] is False
        fd = invoke(runner, [*args, "--method", "fd"])
        assert fd.exit_code == 0
        assert json.loads(fd.output)["pass"] is True

    def test_map_domain_error_is_a_failed_check(self, runner):
        # a valid descriptor whose map folds past t = 1: the check fails, the input is fine
        fold = '{"kind": "poly", "n": 1, "label": "fold"}'
        result = runner.invoke(main, ["verify-pullback", "--model", fold])
        assert result.exit_code == 1, result.output
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: nonpositive first derivative")
        inside = invoke(runner, ["verify-pullback", "--model", fold, "--radius", "0.5"])
        assert inside.exit_code == 0
        assert json.loads(inside.output)["pass"] is True

    def test_bad_model_is_click_error(self, runner):
        result = runner.invoke(main, ["verify-pullback", "--model", "wat"])
        assert result.exit_code != 0


class TestBadInputIsUsageError:
    @pytest.mark.parametrize("args", [
        ["verify-pullback", "--model", "foo:2"],
        ["verify-pullback", "--model", "cigar:x"],
        ["verify-pullback", "--model", "{bad"],
        ["ciriza", "--spec", "sigma=1,x,alpha=1"],
        ["ciriza", "--spec", "sigma=3,0,alpha=1"],
        ["verify-pullback", "--model", '{"kind": "cigar", "n": null}'],
        ["verify-pullback", "--model", '{"kind": "poly", "n": 2, "monomials": 3}'],
        ["geodesic", "--model", "cigar:1", "--start", "0.5", "--vel", "1", "--length", "-1"],
        ["geodesic", "--model", "cigar:1", "--start", "0.5", "--vel", "1", "--length", "nan"],
        ["geodesic", "--model", "cigar:1", "--start", "0.5", "--vel", "1", "--length", "inf"],
        ["soliton-profile", "--count", "1"],
        ["soliton-profile", "--n", "0"],
        ["geodesic", "--model", "cigar:1", "--start", "0.5", "--vel", "1", "--steps", "0"],
        ["geodesic", "--model", "cigar:1", "--start", "0.5", "--vel", "1", "--steps", "-5"],
        ["soliton-profile", "--t-min", "nan"],
        ["soliton-profile", "--t-max", "inf"],
        ["verify-pullback", "--model", "cigar:1", "--points", "0"],
        ["defect", "--f1", "1", "--f2", "0,1", "--points", "0"],
        ["verify-pullback", "--model", "cigar:1", "--radius", "nan"],
        ["curvature", "--model", "cigar:1", "--point", "nan"],
        ["ciriza", "--spec", "sigma=1,1,alpha=1,i", "--samples", "0"],
        ["defect", "--f1", "1", "--f2", "0,1", "--radius", "nan"],
        ["defect", "--f1", "1", "--f2", "0,1", "--radius", "inf"],
        ["verify-pullback", "--model", '{"kind": "cigar", "n": 2.7}'],
        ["verify-pullback", "--model", '{"kind": "cigar", "n": true}'],
        # radius 0.5 stays where fold-n1 maps: the error must come from n = 3
        ["verify-pullback", "--model", '{"kind": "poly", "n": 3, "label": "fold"}', "--radius", "0.5"],
        ["verify-pullback", "--model", '{"kind": "poly", "n": 1, "monomials": {"1": true, "2": false}}'],
        ["verify-pullback", "--model", '{"kind": "poly", "n": 1, "label": 7}'],
        ["defect", "--f1", "1", "--f2", "0,1", "--at", "nan"],
        # both derivatives of (z^2, z^3) vanish at 0
        ["defect", "--f1", "0,1", "--f2", "0,0,1", "--at", "0"],
        ["verify-pullback", "--model", '{"kind": "soliton", "nn": 3}'],
        ["curvature", "--model", "cigar:1", "--point", "abc"],
        ["ciriza", "--spec", "alpha=1,sigma=1,1"],
    ], ids=["unknown-kind", "bad-n", "bad-json", "bad-sigma-entry", "missing-sigma-index",
            "null-n", "monomials-not-a-mapping", "negative-length", "nan-length", "inf-length",
            "one-profile-row", "zero-profile-n", "zero-steps", "negative-steps",
            "nan-profile-t-min", "inf-profile-t-max", "zero-pullback-points",
            "zero-defect-points", "nan-pullback-radius", "nan-curvature-point",
            "zero-ciriza-samples", "nan-defect-radius", "inf-defect-radius",
            "fractional-n", "bool-n", "fold-n3", "bool-monomial", "int-label",
            "nan-defect-at", "degenerate-defect-at", "unknown-descriptor-key",
            "unparseable-point", "malformed-spec"])
    def test_exit_2_without_traceback(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Invalid value" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args, message", [
        (["curvature", "--model", "cigar:2", "--point", "inf,0"], "point 'inf,0' is not 2 finite coordinates"),
        (["defect", "--f1", "1", "--f2", "0,1", "--at", "inf"], "--at 'inf' is not a finite complex number"),
        (["geodesic", "--model", "cigar:2", "--start", "inf,0", "--vel", "1,0"],
         "start point and velocity must be finite"),
        # the NaN used to reach the RK4 k2 stage and blame the potential
        (["geodesic", "--model", "cigar:2", "--start", "0.1,0", "--vel", "nan,0"],
         "start point and velocity must be finite"),
        (["ciriza", "--model", "cigar:2", "--spec", "sigma=1,1,alpha=nan,1"], "phase 0 is not unit modulus"),
        (["defect", "--f1", "nan", "--f2", "0,1"], "curve coefficients must be finite"),
        # finite, but its metric energy overflows: this used to print four numpy
        # warnings and blame the potential at an RK4 stage point
        (["geodesic", "--model", "cigar:2", "--start", "0,0", "--vel", "1e200,0"],
         "metric energy is not finite for the velocity [1.e+200"),
        # finite, with a finite metric energy, but Christoffel symbols that overflow:
        # this used to blame the potential at a NaN RK4 stage point
        *((["geodesic", "--model", model, "--start", "1e150,0", "--vel", "1,0"],
           "the geodesic acceleration is not finite: [nan+nanj nan+nanj] at z=[1.e+150+0.j 0.e+000+0.j]")
          for model in ("cigar:2", "soliton:2", "poly:2")),
    ], ids=["curvature-point", "defect-at", "geodesic-start", "geodesic-vel", "ciriza-phase",
            "defect-coefficient", "geodesic-vel-overflow", "geodesic-start-christoffel-cigar",
            "geodesic-start-christoffel-soliton", "geodesic-start-christoffel-poly"])
    def test_nonfinite_number_reaches_its_check(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and message in errors[0], result.output
        assert "Warning" not in result.output

    @pytest.mark.parametrize("option", [["--radius", "1e200"], ["--at", "1e200"]], ids=["radius", "at"])
    def test_overflowing_defect_names_the_point(self, runner, option):
        result = runner.invoke(main, ["defect", "--f1", "1", "--f2", "0,1", *option])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines()[-1].startswith("Error: Invalid value: the curvature defect at z = (")
        assert "overflows" in result.output
        for text in ("Traceback", "Warning", "NaN"):
            assert text not in result.output

    def test_bad_descriptor_file(self, runner, tmp_path):
        desc = tmp_path / "model.json"
        desc.write_text(json.dumps({"kind": "nope", "n": 2}))
        result = runner.invoke(main, ["verify-pullback", "--model", str(desc)])
        assert result.exit_code == 2, result.output
        assert "unknown model kind 'nope'" in result.output


class TestSolitonProfileCommand:
    def test_csv_written(self, runner, tmp_path):
        out = tmp_path / "prof.csv"
        result = invoke(
            runner,
            ["soliton-profile", "--n", "2", "--t-min", "-3", "--t-max", "3",
             "--count", "7", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,u_prime,u_second,ode_residual"
        assert len(lines) == 8

    def test_table_computed_once(self, runner, tmp_path, monkeypatch):
        calls = []
        original = SolitonProfile.derivatives

        def counted(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(SolitonProfile, "derivatives", counted)
        out = tmp_path / "prof.csv"
        result = invoke(runner, ["soliton-profile", "--count", "11", "--out", str(out)])
        assert result.exit_code == 0
        assert len(calls) == 11
        column = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
        assert result.output.splitlines()[0].endswith(repr(max(column)))


class TestGeodesicCommand:
    def test_csv_columns(self, runner, tmp_path):
        out = tmp_path / "geo.csv"
        result = invoke(
            runner,
            ["geodesic", "--model", "cigar:2", "--start", "0.5,0.5",
             "--vel", "1,0", "--length", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        header = out.read_text().splitlines()[0]
        assert header == "tau,re_z1,im_z1,re_z2,im_z2,energy_drift"

    def test_unconverged_run_writes_csv_then_exits_1(self, runner, tmp_path):
        out = tmp_path / "geo.csv"
        result = runner.invoke(
            main,
            ["geodesic", "--model", "poly:2", "--start", "2,1", "--vel", "3,2j",
             "--length", "40", "--steps", "1", "--out", str(out)],
        )
        # the 2, 4 and 8 step runs fail where poly-n2's metric is singular in
        # floats; the rows keep their last finished run and refine on
        assert result.exit_code == 1, result.output
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: bounds unmet at 16 steps: energy drift 3.013e+00, position error 8.103e-01"]
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 16 + 1  # header, then the last refinement's 16 steps
        assert f"{float(rows[-1].split(',')[-1]):.3e}" == "3.013e+00"

    @pytest.mark.parametrize("text, value", [
        ("2i", 2j), ("i", 1j), ("1+i", 1 + 1j), ("0.3+0.1i", 0.3 + 0.1j), ("1e-3i", 1e-3j),
        ("-i", complex(0.0, -1.0)), ("1e+5i", 1e5j), ("inf", complex(math.inf, 0.0)), ("nan", complex(math.nan, 0.0)),
    ])
    def test_parse_complex(self, text, value):
        assert repr(cli._parse_complex(text)) == repr(value)  # repr, so NaN compares

    def test_complex_parsing_with_i_suffix(self, runner, tmp_path):
        out = tmp_path / "geo.csv"
        result = invoke(
            runner,
            ["geodesic", "--model", "cigar:1", "--start", "0.1+0.2i",
             "--vel", "1i", "--length", "1", "--out", str(out)],
        )
        assert result.exit_code == 0

    def test_dimension_mismatch_is_clean_error(self, runner):
        result = invoke(
            runner,
            ["geodesic", "--model", "cigar:2", "--start", "1.5",
             "--vel", "1", "--length", "1"],
        )
        assert result.exit_code != 0
        assert "--start has 1 coordinates" in result.output
        assert "Traceback" not in result.output


class TestSuiteErrorPaths:
    def test_missing_config_file_is_clean_error(self, runner):
        result = invoke(runner, ["suite", "--config", "/nonexistent.json"])
        assert result.exit_code != 0
        assert "Error" in result.output
        assert "Traceback" not in result.output


class TestCurvatureCommand:
    def test_tensor_json(self, runner, tmp_path):
        out = tmp_path / "curv.json"
        result = invoke(
            runner,
            ["curvature", "--model", "cigar:1", "--point", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["tensor_re"][0][0][0][0] == pytest.approx(0.125, rel=1e-12)
        assert data["symmetry_residual"] <= 1e-12
        assert data["sectional_first_axis"] == pytest.approx(0.5, rel=1e-12)

    def test_fd_sectional_comes_from_the_printed_tensor(self, runner, tmp_path, monkeypatch):
        calls = []
        real = curvature.curvature_at

        def counted(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return real(*args, **kwargs)

        monkeypatch.setattr(curvature, "curvature_at", counted)
        monkeypatch.setattr(cli, "curvature_at", counted)
        out = tmp_path / "curv.json"
        result = invoke(
            runner,
            ["curvature", "--model", "cigar:2", "--point", "1,0.3", "--method", "fd", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert calls == ["fd"]
        data = json.loads(out.read_text())
        g11 = metric_at(CigarProductPotential(2), [1.0, 0.3])[0, 0].real
        assert data["sectional_first_axis"] == data["tensor_re"][0][0][0][0] / g11**2
        assert data["sectional_first_axis"] != 0.5  # the analytic value


class TestOutOfRangePoint:
    FOLD = '{"kind": "poly", "n": 1, "label": "fold"}'
    CUBE = '{"kind": "poly", "n": 2, "monomials": {"3,0": 1.0, "0,1": 1.0}}'

    @pytest.mark.parametrize("model, point, named", [
        ("cigar:2", "1e200,0", "at z=[1.e+200+0.j 0.e+000+0.j]"),
        ("cigar:2", "1e150,0", "point '1e150,0'"),
        ("soliton:2", "1e150,0", "point '1e150,0'"),
        ("soliton:2", "1e200,0", "at z=[1.e+200+0.j 0.e+000+0.j]"),
        ("soliton:1", "1e200", "at z=[1.e+200+0.j]"),
        ("poly:2", "1e200,0", "at z=[1.e+200+0.j 0.e+000+0.j]"),
        # the fold's jet at t = 1e200 is finite, its curvature is not
        (FOLD, "1e100", "the curvature at point '1e100' is not finite"),
        (CUBE, "1e80,0.5", "at z=[1.e+80+0.j 5.e-01+0.j]"),
        # poly-n2's det 1 + t1 + t2 cancels in floats once t1 t2 >> 1e16
        ("poly:2", "1e9,1e9", "singular metric at z=[1.e+09+0.j 1.e+09+0.j]"),
    ], ids=["cigar-t-inf", "cigar-powers", "soliton-s-powers", "soliton-s-inf", "soliton-n1-s-inf",
            "poly-t-inf", "fold-beyond-the-fold", "cube-square-overflows", "poly-singular-metric"])
    def test_one_error_line_names_the_point(self, runner, model, point, named):
        # a RuntimeWarning fails the test (pytest's filterwarnings), a traceback shows in the output
        result = runner.invoke(main, ["curvature", "--model", model, "--point", point])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and named in errors[0], result.output
        assert "Traceback" not in result.output and "Warning" not in result.output


class TestCirizaCommand:
    def test_spec_parsing_and_pass(self, runner, tmp_path):
        out = tmp_path / "cir.json"
        result = invoke(
            runner,
            ["ciriza", "--model", "cigar:3", "--spec", "sigma=1,1,2,alpha=1,i,1",
             "--samples", "8", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert data["pass"] is True
        assert data["expected_rank"] == 2

    def test_phases_padded_with_ones(self, runner):
        result = invoke(
            runner, ["ciriza", "--model", "cigar:2", "--spec", "sigma=1,1,alpha=i", "--samples", "4"]
        )
        assert result.exit_code == 0
        assert '"(1+0j)"' in result.output

    def test_soliton_kind(self, runner):
        result = invoke(
            runner,
            ["ciriza", "--model", "soliton:2", "--spec", "sigma=1,0,alpha=1", "--samples", "4"],
        )
        assert result.exit_code == 0

    def test_default_model_is_cigar_n2(self, runner):
        default = invoke(runner, ["ciriza", "--spec", "sigma=1,1,alpha=1,i", "--samples", "4"])
        explicit = invoke(
            runner, ["ciriza", "--model", "cigar:2", "--spec", "sigma=1,1,alpha=1,i", "--samples", "4"]
        )
        assert default.exit_code == explicit.exit_code == 0
        assert default.output == explicit.output
        assert json.loads(default.output)["model"] == "cigar-n2"

    def test_poly_model(self, runner):
        result = invoke(runner, ["ciriza", "--model", "poly:2", "--spec", "sigma=1,1,alpha=1"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["pass"] is True

    def test_spec_is_parsed_against_the_model_dimension(self, runner):
        result = runner.invoke(main, ["ciriza", "--model", "cigar:3", "--spec", "sigma=1,1,alpha=1"])
        assert result.exit_code == 2
        assert "sigma and phases must both have length n" in result.output

    def test_map_domain_error_is_a_failed_check(self, runner):
        fold = '{"kind":"poly","n":1,"label":"fold"}'
        result = runner.invoke(main, ["ciriza", "--model", fold, "--spec", "sigma=1,alpha=1"])
        assert result.exit_code == 1, result.output
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: negative first derivative")
        assert "Traceback" not in result.output


class TestDefectCommand:
    def test_counterexample_at_point(self, runner):
        result = invoke(
            runner,
            ["defect", "--f1", "1", "--f2", "0,1", "--points", "6", "--at", "1"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["at"]["direct"] == pytest.approx(-0.1, rel=1e-9)
        assert data["at"]["viaA"] == pytest.approx(-0.1, rel=1e-9)
        assert data["pass"] is True

    def test_degenerate_pair_errors_cleanly(self, runner):
        result = runner.invoke(main, ["defect", "--f1", "0", "--f2", "0", "--points", "2"])
        assert result.exit_code == 2, result.output
        assert "Invalid value: degenerate induced metric" in result.output

    def test_nan_defect_past_first_point_fails(self, runner, monkeypatch):
        real = reporting.curvature_defect
        calls = []

        def defect(pair, z):
            calls.append(z)
            direct, via_a = real(pair, z)
            direct[2] = math.nan
            return direct, via_a

        monkeypatch.setattr(reporting, "curvature_defect", defect)
        result = invoke(runner, ["defect", "--f1", "1", "--f2", "0,1", "--points", "6"])
        assert [len(z) for z in calls] == [6]  # one call over every point
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert data["pass"] is False
        assert math.isnan(data["max_relative_gap"])
        assert math.isnan(data["max_direct_defect"])


class TestSuiteCommand:
    def test_subset_run_all_pass(self, runner, tmp_path):
        out = tmp_path / "suite.json"
        result = invoke(
            runner,
            ["suite", "--points", "10", "--claims", "profile-ode,profile-closed-form",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "ALL PASS" in result.output
        assert result.output.count("PASS ") >= 2
        data = json.loads(out.read_text())
        assert {r["claim"] for r in data["reports"]} == {"profile-ode", "profile-closed-form"}

    def test_config_file_with_overrides(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 10, "claims": ["profile-ode"]}))
        result = invoke(runner, ["suite", "--config", str(cfg), "--seed", "77"])
        assert result.exit_code == 0
        assert "profile-ode" in result.output

    def test_failure_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(SolitonProfile, "ode_residual", lambda self, t: 1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 10, "claims": ["profile-ode"]}))
        result = invoke(runner, ["suite", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "FAIL  profile-ode" in result.output
        assert "FAILURES PRESENT" in result.output

    def test_invalid_config_is_click_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 0}))
        result = runner.invoke(main, ["suite", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "config error" in result.output

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"geodesic_length": "10"}, "geodesic_length must be finite and > 0, got '10'"),
            ({"geodesic_length": True}, "geodesic_length must be finite and > 0, got True"),
            ({"claims": 5}, "claims must be a list of claim ids, got 5"),
            ({"claims": "cigar-pullback"}, "claims must be a list of claim ids, got 'cigar-pullback'"),
            ({"claims": []}, "claims must name at least one claim id"),
            ({"claims": ["profile-limits", "profile-limits"]}, "duplicate claim id 'profile-limits'"),
        ],
        ids=["length-string", "length-bool", "claims-int", "claims-string", "claims-empty", "claims-duplicate"],
    )
    def test_mistyped_config_is_click_error(self, runner, tmp_path, data, message):
        # reported as a config error, without a traceback and before any claim runs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"claims": ["profile-ode"], "points": 2, **data}))
        result = invoke(runner, ["suite", "--config", str(cfg)])
        assert result.exit_code == 1
        assert f"Error: config error: {message}" in result.output
        assert "PASS" not in result.output

    def test_loosening_config_is_rejected(self, runner, tmp_path):
        # these keys once let a config file pass any claim
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "claims": ["profile-ode", "cigar-pullback"], "points": 5, "radius": 1e-300,
            "tolerances": {"profile-ode": 1e300},
        }))
        result = runner.invoke(main, ["suite", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "config error: unknown keys ['radius', 'tolerances']" in result.output
        assert "PASS" not in result.output


class TestOptionsArePinned:
    def test_option_names(self):
        # every option is listed here, so an added knob shows up in review
        options = {name: [opt for p in cmd.params for opt in p.opts] for name, cmd in main.commands.items()}
        assert options == {
            "verify-pullback": ["--model", "--points", "--radius", "--seed", "--method", "--out"],
            "soliton-profile": ["--n", "--t-min", "--t-max", "--count", "--out"],
            "geodesic": ["--model", "--start", "--vel", "--length", "--steps", "--out"],
            "curvature": ["--model", "--point", "--method", "--out"],
            "ciriza": ["--model", "--spec", "--samples", "--seed", "--out"],
            "defect": ["--f1", "--f2", "--points", "--radius", "--seed", "--at"],
            "suite": ["--config", "--seed", "--points", "--claims", "--out", "--outdir"],
        }


class TestOutdirEnv:
    def test_relative_out_goes_to_env_dir(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["verify-pullback", "--model", "cigar:1", "--points", "4",
             "--out", "rep.json"],
            env={"DARBOUXKIT_OUTDIR": str(tmp_path)},
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert (tmp_path / "rep.json").exists()

    def test_suite_out_goes_to_outdir_before_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(
            main,
            ["suite", "--points", "3", "--claims", "profile-closed-form",
             "--out", "s.json", "--outdir", "sub"],
            env={"DARBOUXKIT_OUTDIR": str(tmp_path / "env")},
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "sub" / "s.json").exists()
        assert not (tmp_path / "env" / "s.json").exists()
