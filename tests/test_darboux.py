"""Coordinate-map tests: pullback identity, Jacobians, properness.

Frozen oracles:
  cigar at z = 1: first radial derivative log(2), so the image is
  sqrt(log 2) = 0.8325546111576977;
  the flat model maps identically with identity Jacobian.
"""

import math

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
    poly_test_model,
    properness_auto_scan,
    shipped_models,
    soliton_potential,
    std_symplectic,
    two_form_at,
    unit_directions,
)


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
        direct = np.max(np.abs(j.T @ std_symplectic(2) @ j - two_form_at(model, z)))
        assert dm.pullback_residual(z) == pytest.approx(direct, abs=0.0)

    def test_std_symplectic_shape(self):
        omega = std_symplectic(2)
        assert omega.shape == (4, 4)
        assert np.array_equal(omega, -omega.T)
        assert np.array_equal(omega @ omega, -np.eye(4))


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
        "model, rungs",
        [
            (lambda: soliton_potential(SolitonProfile(2)), [17, 44, 100, 340]),
            (poly_test_model, [17]),
        ],
        ids=["soliton-n2", "poly-n2"],
    )
    def test_each_radius_evaluated_once(self, model, rungs, rng, monkeypatch):
        model = model()
        calls = []
        growth = model.log_ray_growth
        monkeypatch.setattr(model, "log_ray_growth", lambda log_r, d: calls.append(list(log_r)) or growth(log_r, d))
        scans = []
        scan = DarbouxMap.properness_scan

        def counting_scan(self, directions, radii, threshold=1e3):
            scans.append(len(radii))
            return scan(self, directions, radii, threshold)

        monkeypatch.setattr(DarbouxMap, "properness_scan", counting_scan)
        rep = properness_auto_scan(DarbouxMap(model), unit_directions(2, 8, rng))
        assert rep.passed
        assert scans == rungs  # one scan per rung, over that rung's new radii only
        # one log_ray_growth call per ray per rung, covering exactly that rung's radii
        starts = np.cumsum([0, *rungs])
        expected = [[math.log(r) for r in rep.radii[a:b]] for a, b in zip(starts, starts[1:])]
        assert calls == [rung for rung in expected for _ in range(8)]
        log_radii = [v for call in calls for v in call]
        assert len(log_radii) == 8 * sum(rungs) == 8 * len(rep.radii)
        assert len(set(log_radii)) == len(rep.radii)

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
