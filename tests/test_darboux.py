"""Coordinate-map tests: pullback identity, Jacobians, properness, injectivity.

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
    ProbeGrid,
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

    def test_jacobian_at_origin_is_diagonal_scaling(self):
        model = CigarProductPotential(2)
        dm = DarbouxMap(model)
        j = dm.jacobian(np.zeros(2))
        assert np.allclose(j, np.eye(4), atol=1e-14)  # first derivs are 1 at 0


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
        d = rep.as_dict()
        assert d["pass"] is True
        assert len(d["final_values"]) == 8

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

    def test_unit_directions_layout(self, rng):
        dirs = unit_directions(3, 8, rng)
        assert dirs.shape == (8, 3)
        assert np.allclose(dirs[:3], np.eye(3))
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-13)


class TestInjectivity:
    def test_cigar_probe_clean(self):
        dm = DarbouxMap(CigarProductPotential(1))
        rep = dm.injectivity_probe(ProbeGrid(count=300, radius=2.0))
        assert rep.passed
        assert rep.collisions == 0
        assert rep.min_abs_det > 0.0

    def test_fold_collisions_found(self):
        # w = sqrt(1 - t) z folds t <-> 1 - t; grid symmetric about t = 1/2
        dm = DarbouxMap(fold_test_model())
        rep = dm.injectivity_probe(
            ProbeGrid(count=200, radius=math.sqrt(0.8), ray=True)
        )
        assert rep.collisions > 0
        assert not rep.passed
        assert rep.witness is not None
        z1, z2 = np.asarray(rep.witness[0]), np.asarray(rep.witness[1])
        w1, w2 = dm.map_point(z1), dm.map_point(z2)
        assert np.linalg.norm(w1 - w2) < 1e-9
        assert np.linalg.norm(z1 - z2) > 1e-6

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
    def test_nan_determinant_past_first_point_fails(self, monkeypatch):
        original = DarbouxMap.jacobian
        calls = []

        def jacobian(self, z, method="analytic"):
            calls.append(z)
            j = original(self, z, method)
            return j * np.nan if len(calls) == 3 else j

        monkeypatch.setattr(DarbouxMap, "jacobian", jacobian)
        rep = DarbouxMap(CigarProductPotential(1)).injectivity_probe(ProbeGrid(count=5))
        assert np.isnan(rep.min_abs_det)
        assert not rep.passed

    def test_report_dict(self):
        dm = DarbouxMap(CigarProductPotential(1))
        rep = dm.injectivity_probe(ProbeGrid(count=50))
        d = rep.as_dict()
        assert d["points_checked"] == 50
        assert d["pass"] is True
