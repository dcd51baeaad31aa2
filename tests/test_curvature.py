"""Curvature tests against closed forms for the product-cigar family.

Frozen oracles (single cigar factor, t = |z|^2):
  metric g = 1/(1+t); curvature R_1111 = 1/(1+t)^3, so R(0) = 1 and
  R(t=1) = 1/8; Christoffel Gamma^1_11 = -conj(z)/(1+t); holomorphic
  sectional curvature along a coordinate axis = 1/(1+t).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxkit import (
    CigarProductPotential,
    SolitonProfile,
    christoffel_at,
    curvature_at,
    curvature_symmetry_residual,
    flat_potential,
    holomorphic_sectional,
    metric_at,
    metric_z_derivative,
    poly_test_model,
    radial_coords,
    shipped_models,
    soliton_potential,
)
from darbouxkit import curvature as curvature_module

small_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


class TestCigarClosedForm:
    def test_curvature_at_origin(self):
        r = curvature_at(CigarProductPotential(1), [0.0])
        assert r[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_curvature_at_t_one(self):
        r = curvature_at(CigarProductPotential(1), [1.0])
        assert r[0, 0, 0, 0] == pytest.approx(0.125, rel=1e-12)

    @given(z=small_complex)
    def test_identity_property(self, z):
        t = abs(z) ** 2
        r = curvature_at(CigarProductPotential(1), [z])
        assert r[0, 0, 0, 0].real * (1.0 + t) ** 3 == pytest.approx(1.0, abs=1e-10)
        assert abs(r[0, 0, 0, 0].imag) <= 1e-12

    def test_mixed_components_vanish(self, rng):
        model = CigarProductPotential(3)
        for _ in range(10):
            z = 2.0 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            r = curvature_at(model, z)
            mask = np.ones((3,) * 4, dtype=bool)
            idx = np.arange(3)
            mask[idx, idx, idx, idx] = False
            assert np.max(np.abs(r[mask])) <= 1e-12

    @given(z=small_complex)
    def test_christoffel_closed_form(self, z):
        gamma = christoffel_at(CigarProductPotential(1), [z])
        expected = -np.conj(z) / (1.0 + abs(z) ** 2)
        assert gamma[0, 0, 0] == pytest.approx(expected, rel=1e-12, abs=1e-13)

    @given(z=small_complex)
    def test_sectional_closed_form(self, z):
        val = holomorphic_sectional(CigarProductPotential(1), [z], [1.0])
        assert val == pytest.approx(1.0 / (1.0 + abs(z) ** 2), rel=1e-10)

    def test_sectional_diagonal_direction(self):
        # two orthogonal cigar factors at the origin: R(v,v,v,v) = |v1|^4 + |v2|^4,
        # g(v,v)^2 = (|v1|^2 + |v2|^2)^2, so the diagonal direction gives 1/2
        val = holomorphic_sectional(CigarProductPotential(2), [0.0, 0.0], [1.0, 1.0])
        assert val == pytest.approx(0.5, rel=1e-13)


class TestFlat:
    def test_zero_curvature_and_christoffel(self, rng):
        model = flat_potential(2)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.max(np.abs(curvature_at(model, z))) == 0.0
        assert np.max(np.abs(christoffel_at(model, z))) == 0.0
        d = metric_z_derivative(z, model.derivative_tensors(radial_coords(z), 3))
        assert np.max(np.abs(d)) == 0.0


class TestSymmetries:
    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
        poly_test_model,
    ])
    def test_tensor_symmetries(self, make, rng):
        model = make()
        for _ in range(8):
            z = 2.0 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            r = curvature_at(model, z)
            assert curvature_symmetry_residual(r) <= 1e-10

    def test_first_derivative_symmetric_in_holomorphic_slots(self, rng):
        model = soliton_potential(SolitonProfile(2))
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d = metric_z_derivative(z, model.derivative_tensors(radial_coords(z), 3))
        # d g_{i lbar} / dz_j is symmetric in (i, j)
        assert np.max(np.abs(d - np.transpose(d, (2, 1, 0)))) <= 1e-13


class TestFiniteDifferencePath:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_fd_matches_analytic(self, model, rng):
        for _ in range(4):
            z = 1.5 * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))
            ra = curvature_at(model, z, method="analytic")
            rf = curvature_at(model, z, method="fd")
            assert np.max(np.abs(ra - rf)) <= 1e-5

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            curvature_at(flat_potential(1), [0.1], method="magic")

    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_batched_stencil_matches_scalar_loops_bitwise(self, model, seam_points):
        for z in seam_points(model.n):
            fd = curvature_at(model, z, method="fd")
            ref = _loop_fd_curvature(model, z)
            assert fd.shape == ref.shape and fd.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_one_metric_call_per_point(self, model, monkeypatch):
        shapes = []

        def counted(m, z):
            shapes.append(np.shape(z))
            return metric_at(m, z)

        monkeypatch.setattr(curvature_module, "metric_at", counted)
        n = model.n
        curvature_at(model, np.full(n, 0.3 - 0.2j), method="fd")
        assert shapes == [(1 + 8 * n + 32 * n * n, n)]


class TestBatchedCurvature:
    """A batch of points is answered row by row exactly as each point alone;
    the per-point loops are the reference."""

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_rows_equal_single_calls(self, batch_model, batch_points, method):
        pts = batch_points(batch_model.n)
        if method == "fd":
            pts = pts[::3]  # still holds small-radius, seam and large-radius points
        ref = np.array([curvature_at(batch_model, z, method=method) for z in pts])
        batched = curvature_at(batch_model, pts, method=method)
        assert batched.shape == ref.shape and batched.tobytes() == ref.tobytes()
        stacked = curvature_at(batch_model, pts[:4].reshape(2, 2, -1), method=method)
        assert stacked.shape == (2, 2) + ref.shape[1:] and stacked.tobytes() == ref[:4].tobytes()

    def test_one_jet_per_analytic_batch(self, monkeypatch):
        model = CigarProductPotential(3)
        shapes = []
        original = CigarProductPotential.derivative_tensors

        def counted(self, t, order):
            shapes.append((np.shape(t), order))
            return original(self, t, order)

        monkeypatch.setattr(CigarProductPotential, "derivative_tensors", counted)
        curvature_at(model, np.full((7, 3), 0.3 - 0.2j))
        assert shapes == [((7, 3), 4)]

    def test_one_metric_call_per_fd_batch(self, monkeypatch):
        shapes = []

        def counted(m, z):
            shapes.append(np.shape(z))
            return metric_at(m, z)

        monkeypatch.setattr(curvature_module, "metric_at", counted)
        curvature_at(CigarProductPotential(2), np.full((5, 2), 0.3 - 0.2j), method="fd")
        assert shapes == [(5, 1 + 8 * 2 + 32 * 4, 2)]


def _loop_wirtinger(f, z, k, h, bar):
    """Central-difference d/dz_k (or d/dzbar_k) of a matrix-valued f."""
    ek = np.zeros(len(z), dtype=complex)
    ek[k] = 1.0
    fx = (f(z + h * ek) - f(z - h * ek)) / (2.0 * h)
    fy = (f(z + 1j * h * ek) - f(z - 1j * h * ek)) / (2.0 * h)
    return 0.5 * (fx + 1j * fy) if bar else 0.5 * (fx - 1j * fy)


def _loop_richardson(evaluate, h):
    return (4.0 * evaluate(h / 2.0) - evaluate(h)) / 3.0


def _loop_fd_curvature(model, z):
    """The FD curvature from nested single-point closures: one ``metric_at``
    call per stencil point, the reference for the batched stencil."""
    n, step = model.n, curvature_module._FD_STEP
    f = lambda w: metric_at(model, w)
    d = np.empty((n, n, n), dtype=complex)
    for j in range(n):
        d[:, :, j] = _loop_richardson(lambda h: _loop_wirtinger(f, z, j, h, bar=False), step)

    def composite(k, l, h):
        inner = lambda w: _loop_wirtinger(f, w, k, h, bar=False)
        return _loop_wirtinger(inner, z, l, h, bar=True)

    h4 = np.empty((n, n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            h4[:, :, k, l] = _loop_richardson(lambda h: composite(k, l, h), step)
    ginv_c = np.conj(np.linalg.inv(metric_at(model, z)))
    return -h4 + np.einsum("pq,iqk,jpl->ijkl", ginv_c, d, np.conj(d))


class TestFirstDerivativeTensor:
    def test_matches_fd_of_metric(self, rng):
        model = soliton_potential(SolitonProfile(2))
        z = 0.8 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        d = metric_z_derivative(z, model.derivative_tensors(radial_coords(z), 3))
        h = 1e-5  # large enough that profile-solver noise (~1e-13) stays small
        for j in range(2):
            dz = np.zeros(2, dtype=complex)
            dz[j] = h
            gp = metric_at(model, z + dz)
            gm = metric_at(model, z - dz)
            dz[j] = 1j * h
            gp_i = metric_at(model, z + dz)
            gm_i = metric_at(model, z - dz)
            wirtinger = ((gp - gm) - 1j * (gp_i - gm_i)) / (4.0 * h)
            assert np.max(np.abs(d[:, :, j] - wirtinger)) <= 5e-8

    def test_christoffel_solves_metric_equation(self, rng):
        # Gamma^m_ij = g^{m lbar} d_i g_{j lbar}: contract back with the metric
        model = poly_test_model()
        z = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        g = metric_at(model, z)
        gamma = christoffel_at(model, z)
        d = metric_z_derivative(z, model.derivative_tensors(radial_coords(z), 3))
        rebuilt = np.einsum("ml,mij->ilj", g, gamma)
        # rebuilt[i,l,j] should equal d[(j,l,i)] ordering d g_{j lbar l}/dz_i
        assert np.max(np.abs(rebuilt - np.transpose(d, (2, 1, 0)))) <= 1e-12


class TestOneJetPerPoint:
    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        poly_test_model,
        lambda: soliton_potential(SolitonProfile(2)),
    ], ids=["cigar", "poly", "soliton"])
    def test_one_tensor_call_per_christoffel_and_curvature(self, make, monkeypatch):
        model = make()
        cls = type(model)
        original = cls.derivative_tensors
        orders = []

        def counted(self, t, order):
            orders.append(order)
            return original(self, t, order)

        monkeypatch.setattr(cls, "derivative_tensors", counted)
        z = np.array([0.6 + 0.2j, -0.3 + 0.5j])
        christoffel_at(model, z)
        assert orders == [3]
        orders.clear()
        curvature_at(model, z)
        assert orders == [4]


class TestSectionalGeneralProperties:
    @given(scale=st.floats(min_value=0.1, max_value=2.0))
    def test_scale_invariance_in_velocity(self, scale):
        model = soliton_potential(SolitonProfile(2))
        z = np.array([0.4 + 0.2j, -0.1 + 0.5j])
        v = np.array([1.0 + 0.3j, 0.2 - 0.7j])
        a = holomorphic_sectional(model, z, v)
        b = holomorphic_sectional(model, z, scale * v)
        assert b == pytest.approx(a, rel=1e-11)

    def test_cigar_sectional_positive(self, rng):
        model = CigarProductPotential(2)
        for _ in range(10):
            z = 2.0 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert holomorphic_sectional(model, z, v) > 0.0
