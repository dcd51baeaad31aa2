"""Potential-model tests: metric assembly, derivative tensors, side conditions.

Frozen oracles:
  per-coordinate cigar data: g(t) = 1/(1+t), first radial derivative
    log(1+t)/t, potential value at t=1 equal to pi^2/12;
  coupled polynomial t1*t2 + t1 + t2: metric at z=(1,1) is [[2,1],[1,2]].
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxkit import (
    CigarProductPotential,
    Cond0Report,
    PolyTestPotential,
    SampleRegion,
    SolitonPotential,
    SolitonProfile,
    cigar_radial_deriv,
    cond0_scan,
    flat_potential,
    fold_test_model,
    hermitian_to_two_form,
    metric_at,
    model_from_descriptor,
    poly_test_model,
    radial_coords,
    shipped_models,
    soliton_potential,
    two_form_at,
)

complex_coord = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def fd_scalar(fun, x, h=1e-5):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


class TestCigarRadialDerivatives:
    def test_value_is_dilogarithm(self):
        assert cigar_radial_deriv(1.0, 0) == pytest.approx(math.pi**2 / 12.0, rel=1e-14)
        assert cigar_radial_deriv(0.0, 0) == 0.0

    def test_first_derivative_closed_form(self):
        for t in (1e-7, 0.2499, 0.2501, 1.0, 50.0):
            assert cigar_radial_deriv(t, 1) == pytest.approx(
                math.log1p(t) / t, rel=1e-13
            )
        assert cigar_radial_deriv(0.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_metric_combination(self):
        # g = d1 + t*d2 must equal 1/(1+t) for all t >= 0
        for t in (0.0, 1e-9, 1e-4, 0.2499, 0.2501, 1.0, 7.0, 1e4):
            d1 = cigar_radial_deriv(t, 1)
            d2 = cigar_radial_deriv(t, 2)
            assert d1 + t * d2 == pytest.approx(1.0 / (1.0 + t), rel=1e-12)

    @pytest.mark.parametrize("order", (1, 2, 3, 4))
    def test_series_branch_matches_closed_form(self, order):
        for t in (0.2499, 0.2501):
            lo = cigar_radial_deriv(t, order)
            hi = cigar_radial_deriv(t * 1.0000001, order)
            assert hi == pytest.approx(lo, rel=1e-6)

    @pytest.mark.parametrize("order", (0, 1, 2, 3))
    def test_derivative_chain(self, order):
        # order q+1 is the t-derivative of order q
        for t in (0.1, 0.3, 2.0):
            fd = fd_scalar(lambda s: cigar_radial_deriv(s, order), t)
            assert cigar_radial_deriv(t, order + 1) == pytest.approx(fd, rel=1e-8)


class TestSolitonRadial:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_radial_deriv_series_chain_crossover(self, n):
        # straddle the branch switch by 1e-9 so the function's own slope
        # contributes ~1e-9 and any branch mismatch dominates
        m = SolitonPotential(SolitonProfile(n))
        for q in (1, 2, 3, 4):
            lo = m.radial_deriv(0.1 - 1e-9, q)[q - 1]
            hi = m.radial_deriv(0.1 + 1e-9, q)[q - 1]
            assert hi == pytest.approx(lo, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_radial_deriv_is_derivative_of_value(self, n):
        m = SolitonPotential(SolitonProfile(n))
        for s in (0.05, 0.5, 0.9999, 1.0001, 3.0, 40.0):
            fd = fd_scalar(m.value_from_radial, s, h=1e-6 * max(1.0, s))
            assert m.radial_deriv(s, 1)[0] == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("q", (1, 2, 3))
    def test_radial_deriv_chain(self, n, q):
        # h large enough that Newton-solve noise (~1e-12) stays below the
        # central-difference signal
        m = SolitonPotential(SolitonProfile(n))
        for s in (0.05, 0.7, 5.0):
            fd = fd_scalar(lambda x: m.radial_deriv(x, q)[q - 1], s, h=1e-4 * max(1.0, s))
            assert m.radial_deriv(s, q + 1)[q] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_n1_matches_cigar(self):
        # n=1 profile satisfies e^{u'} - 1 = e^t, i.e. the same metric as the
        # single cigar factor; their first radial derivatives agree
        m = SolitonPotential(SolitonProfile(1))
        for s in np.linspace(1e-3, 100.0, 37):
            assert m.radial_deriv(s, 1)[0] == pytest.approx(
                cigar_radial_deriv(s, 1), rel=1e-10
            )

    def test_value_at_zero(self):
        m = SolitonPotential(SolitonProfile(2))
        assert m.value_from_radial(0.0) == 0.0
        # value is increasing in s
        vals = [m.value_from_radial(s) for s in (0.01, 0.1, 1.0, 10.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestMetric:
    def test_poly_metric_oracle(self):
        g = metric_at(poly_test_model(), [1.0, 1.0])
        assert np.allclose(g, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)

    def test_flat_metric_is_identity(self, rng):
        m = flat_potential(3)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.array_equal(metric_at(m, z), np.eye(3))

    def test_cigar_metric_diagonal_closed_form(self, rng):
        m = CigarProductPotential(3)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = metric_at(m, z)
        t = radial_coords(z)
        assert np.allclose(np.diag(g), 1.0 / (1.0 + t), rtol=1e-12)
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) == 0.0

    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
        poly_test_model,
    ])
    def test_metric_hermitian_positive(self, make, rng):
        m = make()
        for _ in range(20):
            z = 2.0 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            g = metric_at(m, z)
            assert np.array_equal(g, g.conj().T)  # exactly Hermitian by assembly
            assert np.min(np.linalg.eigvalsh(g)) > 0.0

    @given(z1=complex_coord, z2=complex_coord)
    def test_phase_invariance_radial(self, z1, z2):
        # radial models: metric entries depend on z only through moduli and
        # the phase factor conj(z_j) z_k; equal-phase rotation conjugates it away
        m = soliton_potential(SolitonProfile(2))
        z = np.array([z1, z2])
        phase = complex(math.cos(0.7), math.sin(0.7))
        g1 = metric_at(m, z)
        g2 = metric_at(m, phase * z)
        assert np.allclose(g1, g2, rtol=1e-12, atol=1e-12)

    def test_two_form_blocks(self, rng):
        m = CigarProductPotential(2)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        omega = two_form_at(m, z)
        assert omega.shape == (4, 4)
        assert np.allclose(omega, -omega.T, atol=1e-15)
        g = metric_at(m, z)
        rebuilt = hermitian_to_two_form(g)
        assert np.array_equal(omega, rebuilt)
        # diagonal metric entry g_jj appears as the (x_j, y_j) pairing
        assert omega[0, 1] == pytest.approx(g[0, 0].real)

    def test_fold_metric_loses_positivity(self):
        # the fold family is a designed cond0 violator past t = 1/2
        g = metric_at(fold_test_model(), [2.0])
        assert np.min(np.linalg.eigvalsh(g)) < 0.0


class TestDerivativeTensors:
    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(3)),
        poly_test_model,
    ])
    def test_tensor_symmetry(self, make, rng):
        m = make()
        t = radial_coords(rng.standard_normal(m.n) + 1j * rng.standard_normal(m.n))
        tensors = m.derivative_tensors(t, 4)
        for order, tensor in enumerate(tensors, start=1):
            assert tensor.shape == (m.n,) * order
            for perm_axes in ((1, 0), (0, 2, 1), (1, 0, 3, 2)):
                if len(perm_axes) == order:
                    assert np.allclose(tensor, np.transpose(tensor, perm_axes))

    def test_poly_tensors_oracle(self):
        m = poly_test_model()
        d1, d2 = m.derivative_tensors(np.array([1.0, 2.0]), 2)
        # Phi = t1 t2 + t1 + t2: dPhi/dt1 = t2 + 1, dPhi/dt2 = t1 + 1
        assert np.allclose(d1, [3.0, 2.0])
        assert np.allclose(d2, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "t", [(0.0, 0.0, 0.0), (0.01, 0.03, 0.02), (1.0, 2.0, 3.0), (0.4, 5.5, 1.7), (7.0, 0.0, 0.2)]
    )
    def test_mixed_poly_tensors_oracle(self, t):
        m = PolyTestPotential(
            3, {(2, 1, 0): 0.7, (1, 1, 1): -1.3, (0, 0, 4): 0.25, (1, 0, 0): 2.0, (0, 3, 1): 0.1}
        )
        x, y, z = t
        # Phi = 0.7 x^2 y - 1.3 x y z + 0.25 z^4 + 2 x + 0.1 y^3 z; nonzero
        # partials keyed by sorted index tuple (0 = x, 1 = y, 2 = z)
        partials = {
            (0,): 1.4 * x * y - 1.3 * y * z + 2.0,
            (1,): 0.7 * x**2 - 1.3 * x * z + 0.3 * y**2 * z,
            (2,): -1.3 * x * y + z**3 + 0.1 * y**3,
            (0, 0): 1.4 * y,
            (0, 1): 1.4 * x - 1.3 * z,
            (0, 2): -1.3 * y,
            (1, 1): 0.6 * y * z,
            (1, 2): -1.3 * x + 0.3 * y**2,
            (2, 2): 3.0 * z**2,
            (0, 0, 1): 1.4,
            (0, 1, 2): -1.3,
            (1, 1, 1): 0.6 * z,
            (1, 1, 2): 0.6 * y,
            (2, 2, 2): 6.0 * z,
            (1, 1, 1, 2): 0.6,
            (2, 2, 2, 2): 6.0,
        }
        value = 0.7 * x**2 * y - 1.3 * x * y * z + 0.25 * z**4 + 2.0 * x + 0.1 * y**3 * z
        assert m.value_from_radial(np.array(t)) == pytest.approx(value, rel=1e-12, abs=1e-12)
        for q, tensor in enumerate(m.derivative_tensors(np.array(t), 4), 1):
            assert tensor.shape == (3,) * q
            for idx in itertools.product(range(3), repeat=q):
                expected = partials.get(tuple(sorted(idx)), 0.0)
                assert tensor[idx] == pytest.approx(expected, rel=1e-12, abs=1e-12), idx

    def test_fold_tensors_oracle(self):
        # Phi = t - t^2/2
        m = fold_test_model()
        for t in (0.0, 0.02, 0.5, 3.0):
            d1, d2 = m.derivative_tensors(np.array([t]), 2)
            assert d1[0] == pytest.approx(1.0 - t, rel=1e-12, abs=1e-12)
            assert d2[0, 0] == -1.0
            assert m.value_from_radial(np.array([t])) == pytest.approx(t - 0.5 * t**2, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "model", [poly_test_model(), flat_potential(3), fold_test_model()], ids=lambda m: m.name
    )
    def test_poly_tensors_equal_monomial_loop(self, model, rng):
        # the exponent table reproduces the term-by-term loop bit for bit on
        # the stock polynomials, whose weights are exact in binary
        for i in range(200):
            t = rng.uniform(0.0, 0.04 if i % 2 else 6.0, model.n)
            for q, tensor in enumerate(model.derivative_tensors(t, 4), 1):
                for idx in itertools.product(range(model.n), repeat=q):
                    assert tensor[idx] == _loop_partial(model, [idx.count(j) for j in range(model.n)], t)
            assert model.value_from_radial(t) == _loop_partial(model, [0] * model.n, t)

    def test_empty_poly_is_zero(self):
        m = PolyTestPotential(2, {})
        assert m.value_from_radial(np.array([0.3, 2.0])) == 0.0
        for q, tensor in enumerate(m.derivative_tensors(np.array([0.3, 2.0]), 4), 1):
            assert tensor.shape == (2,) * q
            assert not np.any(tensor)

    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_first_tensor_matches_fd_of_value(self, model, rng):
        for _ in range(5):
            t = radial_coords(
                1.5 * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))
            )
            d1 = model.derivative_tensors(t, 1)[0]
            for j in range(model.n):
                fd = fd_scalar(lambda s: _value_at(model, t, j, s), t[j])
                assert d1[j] == pytest.approx(fd, rel=5e-6, abs=1e-8)


def _loop_partial(model, m, t):
    """d^|m| Phi / dt^m of a PolyTestPotential, summed monomial by monomial."""
    acc = 0.0
    for a, c in model.monomials.items():
        term = c
        for j in range(model.n):
            if a[j] < m[j]:
                term = 0.0
                break
            for i in range(m[j]):
                term *= a[j] - i
            term *= t[j] ** (a[j] - m[j])
        acc += term
    return acc


def _value_at(model, t, j, s):
    tt = np.array(t, dtype=float)
    tt[j] = s
    return model.value_from_radial(tt)


class TestDescriptors:
    def test_round_trip_all_shipped(self):
        for m in shipped_models():
            clone = model_from_descriptor(m.descriptor())
            assert clone.name == m.name
            z = np.full(m.n, 0.4 + 0.1j)
            assert np.allclose(metric_at(clone, z), metric_at(m, z), rtol=1e-14)

    def test_poly_descriptor_monomials(self):
        m = PolyTestPotential(1, {(1,): 1.0, (2,): -0.5}, label="fold")
        desc = m.descriptor()
        clone = model_from_descriptor(desc)
        assert clone.monomials == m.monomials
        assert clone.name == "fold-n1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_descriptor({"kind": "nope", "n": 1})

    def test_shipped_inventory(self):
        names = [m.name for m in shipped_models()]
        assert names == [
            "cigar-n1", "cigar-n2", "cigar-n3", "cigar-n4",
            "soliton-n1", "soliton-n2", "soliton-n3", "poly-n2",
        ]


class TestSampleRegion:
    def test_reproducible_and_origin(self):
        region = SampleRegion(radius=2.0, count=10)
        a = region.sample(2)
        b = region.sample(2)
        assert np.array_equal(a, b)
        assert np.all(a[0] == 0.0)
        assert np.max(np.abs(a)) <= 2.0

    def test_external_rng(self, rng):
        region = SampleRegion(count=8, include_origin=False)
        pts = region.sample(3, rng=rng)
        assert pts.shape == (8, 3)
        assert np.all(pts[0] != 0.0)


class TestCond0:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_shipped_models_pass(self, model):
        rep = cond0_scan(model, SampleRegion(count=40))
        assert rep.passed
        assert min(rep.min_first_derivs) >= 0.0
        assert rep.min_metric_eigenvalue > 0.0
        d = rep.as_dict()
        assert d["pass"] is True

    def test_decreasing_potential_fails(self):
        bad = PolyTestPotential(1, {(1,): -1.0}, label="neg")
        rep = cond0_scan(bad, SampleRegion(count=10))
        assert not rep.passed

    def test_nan_metric_eigenvalue_past_first_point_propagates(self, monkeypatch):
        real = np.linalg.eigvalsh
        calls = []

        def eigvalsh(a):
            calls.append(None)
            eigs = real(a)
            return np.full_like(eigs, np.nan) if len(calls) == 3 else eigs

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        rep = cond0_scan(soliton_potential(SolitonProfile(2)), SampleRegion(count=5))
        assert len(calls) == 5
        assert math.isnan(rep.min_metric_eigenvalue)

    def test_nan_first_derivative_fails(self):
        rep = Cond0Report("m", 2, (0.5, float("nan")), min_metric_eigenvalue=1.0)
        assert math.isnan(rep.min_value)
        assert not rep.passed


class TestRayGrowth:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_axis_direction_is_finite(self, model):
        # regression: zero components on axis rays must not poison the sum
        d = np.zeros(model.n, dtype=complex)
        d[0] = 1.0
        v = model.log_ray_growth(math.log(10.0), d)
        assert np.isfinite(v)

    def test_matches_direct_sum_at_moderate_radius(self):
        for model in (CigarProductPotential(2), soliton_potential(SolitonProfile(2)), poly_test_model()):
            dvec = np.array([0.6, 0.8], dtype=complex)
            r = 7.0
            t = radial_coords(r * dvec)
            d1 = model.derivative_tensors(t, 1)[0]
            direct = float(np.dot(d1, t))
            assert model.log_ray_growth(math.log(r), dvec) == pytest.approx(
                math.log(direct), rel=1e-10
            )
