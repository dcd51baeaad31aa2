"""Coordinate-map tests: pullback identity, Jacobians, properness.

Frozen oracles:
  cigar at z = 1: first radial derivative log(2), so the image is
  sqrt(log 2) = 0.8325546111576977;
  the flat model maps identically with identity Jacobian.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxkit import (
    CigarProductPotential,
    DarbouxMap,
    MapDomainError,
    SampleRegion,
    SolitonProfile,
    flat_potential,
    fold_test_model,
    hermitian_to_two_form,
    poly_test_model,
    properness_auto_scan,
    shipped_models,
    soliton_potential,
    metric_at,
    unit_directions,
)
from darbouxkit import curvature, darboux


def std_symplectic(n: int) -> np.ndarray:
    """Matrix of the standard form: block-diagonal [[0, 1], [-1, 0]] blocks,
    built per call (the reference for ``DarbouxMap``'s own copy)."""
    omega = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    omega[2 * idx, 2 * idx + 1] = 1.0
    omega[2 * idx + 1, 2 * idx] = -1.0
    return omega


class TestMapPoint:
    def test_cigar_oracle(self):
        dm = DarbouxMap(CigarProductPotential(1))
        w = dm.map_point([1.0])
        assert w[0] == pytest.approx(0.8325546111576977, rel=1e-15)
        assert w[0] == pytest.approx(math.sqrt(math.log(2.0)), rel=1e-15)

    def test_flat_is_identity(self, rng):
        dm = DarbouxMap(flat_potential(3))
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(dm.map_point(z), z, rtol=0.0, atol=0.0)
        assert np.array_equal(dm.jacobian(z), np.eye(6))

    def test_origin_fixed(self):
        for model in shipped_models():
            dm = DarbouxMap(model)
            assert np.all(dm.map_point(np.zeros(model.n)) == 0.0)

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_phase_equivariance(self, theta):
        # radial and separable models commute with diagonal equal-phase turns
        phase = complex(math.cos(theta), math.sin(theta))
        z = np.array([0.7 + 0.2j, -0.3 + 1.1j])
        for model in (CigarProductPotential(2), soliton_potential(SolitonProfile(2))):
            dm = DarbouxMap(model)
            assert np.allclose(
                dm.map_point(phase * z), phase * dm.map_point(z), rtol=1e-14, atol=1e-14
            )

    def test_fold_domain_error(self):
        dm = DarbouxMap(fold_test_model())
        with pytest.raises(MapDomainError):
            dm.map_point([1.5])  # t = 2.25 where the derivative is negative


class TestJacobian:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_fd_agrees_with_analytic(self, model, rng):
        dm = DarbouxMap(model)
        for _ in range(10):
            z = 2.0 * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))
            ja = dm.jacobian(z, method="analytic")
            jf = dm.jacobian(z, method="fd")
            assert np.max(np.abs(ja - jf)) <= 1e-6

    def test_unknown_method(self):
        dm = DarbouxMap(flat_potential(1))
        with pytest.raises(ValueError):
            dm.jacobian([0.1], method="exact")

    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_batched_fd_matches_column_loop_bitwise(self, model, seam_points):
        dm = DarbouxMap(model)
        for z in seam_points(model.n):
            fd = dm.jacobian(z, method="fd")
            ref = _loop_jacobian_fd(dm, z)
            assert fd.shape == ref.shape and fd.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_one_map_call_per_fd_jacobian(self, model, monkeypatch):
        shapes = []
        original = DarbouxMap.map_point

        def counted(self, z):
            shapes.append(np.shape(z))
            return original(self, z)

        monkeypatch.setattr(DarbouxMap, "map_point", counted)
        n = model.n
        DarbouxMap(model).jacobian(np.full(n, 0.3 - 0.2j), method="fd")
        assert shapes == [(4 * n, n)]

    def test_jacobian_at_origin_is_diagonal_scaling(self):
        model = CigarProductPotential(2)
        dm = DarbouxMap(model)
        j = dm.jacobian(np.zeros(2))
        assert np.allclose(j, np.eye(4), atol=1e-14)  # first derivs are 1 at 0


def _loop_jacobian_fd(dm, z, h=1e-6):
    """The FD Jacobian column by column, two single-point ``map_point`` calls
    each: the reference for the batched stencil."""
    n = dm.n
    step = h * max(1.0, float(np.max(np.abs(z))))
    j = np.empty((2 * n, 2 * n))
    for col in range(2 * n):
        dz = np.zeros(n, dtype=complex)
        dz[col // 2] = step if col % 2 == 0 else 1j * step
        d = (dm.map_point(z + dz) - dm.map_point(z - dz)) / (2.0 * step)
        j[0::2, col] = d.real
        j[1::2, col] = d.imag
    return j


class TestPullback:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_analytic_residual_bound(self, model):
        dm = DarbouxMap(model)
        pts = SampleRegion(radius=5.0, count=40).sample(model.n)
        worst = max(dm.pullback_residual(z) for z in pts)
        assert worst <= 1e-8

    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_fd_residual_bound(self, model):
        dm = DarbouxMap(model)
        pts = SampleRegion(radius=5.0, count=12).sample(model.n)
        worst = max(dm.pullback_residual(z, method="fd") for z in pts)
        assert worst <= 1e-5

    def test_residual_is_omega_difference(self, rng):
        model = poly_test_model()
        dm = DarbouxMap(model)
        z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        j = dm.jacobian(z)
        direct = np.max(np.abs(j.T @ std_symplectic(2) @ j - hermitian_to_two_form(metric_at(model, z))))
        assert dm.pullback_residual(z) == pytest.approx(direct, abs=0.0)

    def test_std_symplectic_shape(self):
        omega = std_symplectic(2)
        assert omega.shape == (4, 4)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(4))
        for n in (1, 2, 3, 4):  # the map's copy, signed zeros included
            assert DarbouxMap(flat_potential(n))._omega0.tobytes() == std_symplectic(n).tobytes()


class TestBatchedPullback:
    """A batch of points is answered row by row exactly as each point alone;
    the per-point loops are the reference."""

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_rows_equal_single_calls(self, batch_model, batch_points, method):
        dm = DarbouxMap(batch_model)
        pts = batch_points(batch_model.n)
        ref = np.array([dm.pullback_residual(z, method=method) for z in pts])
        batched = dm.pullback_residual(pts, method=method)
        assert batched.shape == (len(pts),) and batched.tobytes() == ref.tobytes()
        stacked = dm.pullback_residual(pts[:12].reshape(3, 4, -1), method=method)
        assert stacked.shape == (3, 4) and stacked.tobytes() == ref[:12].tobytes()
        jac = dm.jacobian(pts, method=method)
        assert jac.tobytes() == np.array([dm.jacobian(z, method=method) for z in pts]).tobytes()

    def test_one_point_answers_a_float(self):
        dm = DarbouxMap(CigarProductPotential(2))
        assert type(dm.pullback_residual([0.3, 0.1j])) is float
        assert dm.pullback_residual([[0.3, 0.1j]]).shape == (1,)

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_one_jacobian_and_one_metric_call_per_batch(self, method, monkeypatch):
        # analytic: J and G come from one order-2 jet, so metric_at is never
        # called; fd: J has no jet at z, so G comes from one metric_at call
        calls, jets, metric_calls = [], [], []
        original = DarbouxMap.jacobian
        original_jet = CigarProductPotential.derivative_tensors

        def counted(self, z, method="analytic", return_metric=False):
            calls.append((np.shape(z), return_metric))
            return original(self, z, method=method, return_metric=return_metric)

        def counted_jet(self, t, order):
            jets.append((np.shape(t), order))
            return original_jet(self, t, order)

        def counted_metric(model, z):
            metric_calls.append(np.shape(z))
            return metric_at(model, z)

        monkeypatch.setattr(DarbouxMap, "jacobian", counted)
        monkeypatch.setattr(CigarProductPotential, "derivative_tensors", counted_jet)
        monkeypatch.setattr(darboux, "metric_at", counted_metric)
        pts = SampleRegion(radius=2.0, count=9).sample(3)
        DarbouxMap(CigarProductPotential(3)).pullback_residual(pts, method=method)
        assert calls == [((9, 3), True)]
        if method == "analytic":
            assert jets == [((9, 3), 2)] and metric_calls == []
        else:
            assert metric_calls == [(9, 3)]

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_domain_error_names_the_first_bad_row(self, method):
        # fold-n1 leaves its domain past t = 1: rows 2 and 4 are outside
        dm = DarbouxMap(fold_test_model())
        pts = np.array([[0.5], [0.9j], [1.5], [0.3], [2.0 + 1.0j]])
        with pytest.raises(MapDomainError) as alone:
            dm.pullback_residual(pts[2], method=method)
        with pytest.raises(MapDomainError) as batch:
            dm.pullback_residual(pts, method=method)
        assert str(batch.value) == str(alone.value)
        assert "\n" not in str(alone.value)  # one point named, so the CLI prints one line

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    @pytest.mark.parametrize("make", [lambda: CigarProductPotential(2), poly_test_model],
                             ids=["cigar-n2", "poly-n2"])
    def test_nonfinite_row_raises_the_single_point_error(self, make, method):
        dm = DarbouxMap(make())
        pts = np.array([[0.3, 0.1j], [0.2, np.nan], [0.5, 0.5]])
        with pytest.raises(ValueError) as alone:
            dm.pullback_residual(pts[1], method=method)
        with pytest.raises(ValueError) as batch:
            dm.pullback_residual(pts, method=method)
        assert type(batch.value) is type(alone.value)
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("route", ["map_point", "analytic", "fd", "pullback-analytic", "pullback-fd"])
    @pytest.mark.parametrize("rows, error, named", [
        ([[1.5], [np.nan]], MapDomainError, "first derivative [-1.25] at z=[1.5+0.j]"),
        ([[np.nan], [1.5]], ValueError, "potential derivatives are not finite: first derivative [nan] at z=[nan+0.j]"),
    ], ids=["domain-first", "nan-first"])
    def test_mixed_batch_raises_its_first_bad_point(self, route, rows, error, named):
        # fold-n1 leaves its domain past t = 1: the batch's first bad row decides
        # both the error class and the point named, whichever kind comes first
        dm = DarbouxMap(fold_test_model())
        call = {
            "map_point": dm.map_point,
            "analytic": lambda z: dm.jacobian(z, method="analytic"),
            "fd": lambda z: dm.jacobian(z, method="fd"),
            "pullback-analytic": lambda z: dm.pullback_residual(z, method="analytic"),
            "pullback-fd": lambda z: dm.pullback_residual(z, method="fd"),
        }[route]
        pts = np.array(rows, dtype=complex)
        with pytest.raises(ValueError) as alone:
            call(pts[0])
        with pytest.raises(ValueError) as batch:
            call(pts)
        assert type(batch.value) is type(alone.value) is error
        assert str(batch.value) == str(alone.value) and str(batch.value).endswith(named)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("return_metric", [False, True])
    @pytest.mark.parametrize("method", ["analytic", "fd"])
    @pytest.mark.parametrize("make", [lambda: CigarProductPotential(2), poly_test_model],
                             ids=["cigar-n2", "poly-n2"])
    def test_jacobian_names_a_non_finite_z(self, make, method, return_metric):
        # every route names z itself, never an FD stencil point such as z=[0.200001+0.j nan+0.j]
        dm = DarbouxMap(make())
        pts = np.array([[0.3, 0.1j], [0.2, np.nan], [0.5, 0.5], [np.inf, 0.2]])
        for z, bad in ((pts[1], pts[1]), (pts[3], pts[3]), (pts, pts[1])):
            with pytest.raises(ValueError) as metric:
                metric_at(dm.model, bad)
            with pytest.raises(ValueError) as err:
                dm.jacobian(z, method=method, return_metric=return_metric)
            assert type(err.value) is ValueError and str(err.value) == str(metric.value)


class TestDataclassBehaviour:
    """The per-n constants are not fields: equality, hashing, repr and
    ``dataclasses.replace`` see the model alone, and the constants are read-only."""

    def test_map_equality_hash_repr(self):
        model = CigarProductPotential(2)
        dm, other = DarbouxMap(model), DarbouxMap(model)
        dm.pullback_residual([0.3, 0.1j], method="fd")  # a used map equals a fresh one
        assert dm == other and hash(dm) == hash(other) and len({dm, other}) == 1
        assert dm != DarbouxMap(CigarProductPotential(2))  # models compare by identity
        assert repr(dm) == f"DarbouxMap(model={model!r})"
        assert [f.name for f in dataclasses.fields(DarbouxMap)] == ["model"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            dm.model = poly_test_model()

    def test_replace_rebuilds_the_constants(self):
        dm = dataclasses.replace(DarbouxMap(flat_potential(1)), model=CigarProductPotential(3))
        assert dm._omega0.tobytes() == std_symplectic(3).tobytes() and dm._fd_basis.shape == (6, 3)
        z = np.array([0.3, 0.1j, -0.2])
        assert dm.pullback_residual(z, method="fd") == DarbouxMap(dm.model).pullback_residual(z, method="fd")

    def test_constants_are_read_only(self):
        dm = DarbouxMap(CigarProductPotential(2))
        for constant in (dm._omega0, dm._fd_basis):
            with pytest.raises(ValueError, match="read-only"):
                constant[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            curvature._fd_steps(2)[0, 0, 0, 0] = 5.0


class TestProperness:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_shipped_models_pass(self, model, rng):
        dm = DarbouxMap(model)
        dirs = unit_directions(model.n, 8, rng)
        rep = properness_auto_scan(dm, dirs)
        assert rep.passed
        assert np.all(rep.final_log_values > math.log(1e3))
        assert rep.ray_passed.shape == (8,)

    def test_bounded_potential_fails(self, rng):
        # Phi' = 1 - t has S(r) = r^2(1 - r^2) falling back to 0: not proper
        dm = DarbouxMap(fold_test_model())
        rep = dm.properness_scan([[1.0]], radii=np.linspace(0.1, 0.9, 9))
        assert not rep.passed

    def test_radii_validation(self):
        dm = DarbouxMap(flat_potential(1))
        with pytest.raises(ValueError):
            dm.properness_scan([[1.0]], radii=[2.0, 1.0])
        with pytest.raises(ValueError):
            dm.properness_scan([[1.0]], radii=[-1.0, 1.0])
        with pytest.raises(ValueError):
            dm.properness_scan([[0.0]], radii=[1.0, 2.0])
        with pytest.raises(ValueError):
            dm.properness_scan([[1.0]], radii=[1.0, 2.0, math.inf])
        with pytest.raises(ValueError):
            dm.properness_scan([[1.0]], radii=[1.0, math.nan, 3.0])
        dm2 = DarbouxMap(CigarProductPotential(2))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="direction"):
                dm2.properness_scan([[bad, 1.0]], radii=[1.0, 2.0])

    @pytest.mark.parametrize("scan", [
        lambda dm, d: dm.properness_scan(d, radii=[1.0, 2.0]),
        properness_auto_scan,
    ], ids=["scan", "auto-scan"])
    @pytest.mark.parametrize("model", [CigarProductPotential(2), soliton_potential(SolitonProfile(2)),
                                       poly_test_model()], ids=lambda m: m.name)
    def test_directions_must_be_d_by_n(self, model, scan):
        # one bare (n,) direction, a direction of n + 1 coordinates, no directions, a scalar
        cases = (([1.0, 0.0], "(2,)"), ([[1.0, 0.0, 0.0]], "(1, 3)"), (np.empty((0, 2)), "(0, 2)"), (1.0, "()"))
        for bad, shape in cases:
            message = f"ray directions must have shape (D, 2) with D >= 1, not {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                scan(DarbouxMap(model), bad)

    def test_unit_directions_layout(self, rng):
        dirs = unit_directions(3, 8, rng)
        assert dirs.shape == (8, 3)
        assert np.allclose(dirs[:3], np.eye(3))
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-13)


def _reference_auto_scan(dm, directions, threshold=1e3):
    """The properness ladder rung by rung, each rung scanning its whole grid."""
    for top in (8, 30, 80, 250):
        report = dm.properness_scan(directions, np.logspace(0, top, 2 * top + 1), threshold)
        if report.passed:
            break
    return report


class TestPropernessLadder:
    @pytest.mark.parametrize(
        "model, rungs, passes",
        [
            (lambda: soliton_potential(SolitonProfile(2)), [17, 44, 100, 340], True),
            (poly_test_model, [17], True),
            # never proper: every rung runs, 501 radii in all
            (fold_test_model, [17, 44, 100, 340], False),
        ],
        ids=["soliton-n2", "poly-n2", "fold-n1"],
    )
    def test_each_radius_evaluated_once(self, model, rungs, passes, rng, monkeypatch):
        model = model()
        calls = []
        growth = model.log_ray_growth
        monkeypatch.setattr(model, "log_ray_growth",
                            lambda log_r, d: calls.append((list(log_r), np.shape(d))) or growth(log_r, d))
        scans = []
        scan = DarbouxMap.properness_scan

        def counting_scan(self, directions, radii, threshold=1e3):
            scans.append(len(radii))
            return scan(self, directions, radii, threshold)

        monkeypatch.setattr(DarbouxMap, "properness_scan", counting_scan)
        rep = properness_auto_scan(DarbouxMap(model), unit_directions(model.n, 8, rng))
        assert rep.passed == passes
        assert scans == rungs  # one scan per rung, over that rung's new radii only
        # one log_ray_growth call per rung over all 8 rays, covering exactly that rung's radii
        starts = np.cumsum([0, *rungs])
        expected = [[math.log(r) for r in rep.radii[a:b]] for a, b in zip(starts, starts[1:])]
        assert calls == [(rung, (8, model.n)) for rung in expected]
        log_radii = [v for call, _ in calls for v in call]
        assert len(log_radii) == sum(rungs) == len(set(log_radii)) == len(rep.radii)

    def test_soliton_solves_each_distinct_log_s_once(self, rng, monkeypatch):
        model = soliton_potential(SolitonProfile(2))
        solved = []
        u_prime = SolitonProfile.u_prime
        monkeypatch.setattr(SolitonProfile, "u_prime", lambda self, t: solved.append(t) or u_prime(self, t))
        dirs = unit_directions(model.n, 8, rng)
        rep = properness_auto_scan(DarbouxMap(model), dirs)
        # s = r^2 |d|^2 on the U(n)-invariant model, as log_ray_growth forms it
        log_s = 2.0 * (np.log(rep.radii) + np.log(np.linalg.norm(dirs, axis=-1))[:, None])
        distinct = set(log_s[log_s >= -700.0].tolist())
        assert len(solved) == len(set(solved)) == len(distinct) < log_s.size
        assert set(solved) == distinct

    # the fold model's failing rays hold log S = -inf at consecutive radii
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", [*shipped_models(), fold_test_model()], ids=lambda m: m.name)
    def test_matches_rung_by_rung_reference(self, model, rng):
        dirs = unit_directions(model.n, 8, rng)
        rep = properness_auto_scan(DarbouxMap(model), dirs)
        ref = _reference_auto_scan(DarbouxMap(model), dirs)
        assert rep.radii == ref.radii  # so the claim's top_radius, radii[-1], too
        assert rep.log_values.shape == ref.log_values.shape
        assert rep.log_values.tobytes() == ref.log_values.tobytes()
        assert rep.passed == ref.passed
        assert rep.passed == (model.name != "fold-n1")
