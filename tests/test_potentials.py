"""Potential-model tests: metric assembly, derivative tensors, side conditions.

Frozen oracles:
  per-coordinate cigar data: g(t) = 1/(1+t), first radial derivative
    log(1+t)/t, whose integral over [0, 1] is -Li2(-1) = pi^2/12;
  coupled polynomial t1*t2 + t1 + t2: metric at z=(1,1) is [[2,1],[1,2]].
"""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp, spence

from darbouxkit import (
    CigarProductPotential,
    Cond0Report,
    DarbouxMap,
    FIntegral,
    PolyTestPotential,
    ProfileSolveError,
    SampleRegion,
    SolitonPotential,
    SolitonProfile,
    christoffel_at,
    cond0_scan,
    curvature_at,
    flat_potential,
    fold_test_model,
    geodesic_integrate,
    hermitian_to_two_form,
    metric_at,
    model_from_descriptor,
    poly_test_model,
    radial_coords,
    sample_polydisc,
    shipped_models,
    soliton_potential,
    unit_directions,
)
from darbouxkit import potentials, soliton
from darbouxkit.potentials import _logsumexp, metric_from_jet

complex_coord = st.complex_numbers(
    max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def fd_scalar(fun, x, h=1e-5):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(96)


def gauss(fun, lo, hi):
    """96-node Gauss-Legendre integral of fun over [lo, hi]."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    return half * math.fsum(w * fun(mid + half * x) for x, w in zip(_NODES, _WEIGHTS))


def cigar_radial_deriv(t: float, order: int) -> float:
    """Scalar reference for the cigar summand's order-q t-derivative (q = 1..4),
    phi'(t) = log(1+t)/t: a power series below t = 0.25, the exact closed form
    above.  The shipped jet evaluates the same branches vectorised."""
    p = order - 1
    if t < 0.25:
        # phi'(t) = sum_k (-1)^k t^k / (k+1), differentiated p times
        acc = 0.0
        weight = float(math.factorial(p))  # (m+p)! / m! at m = 0
        power = 1.0
        for m in range(60):
            term = (-1.0) ** (m + p) * weight * power / (m + p + 1)
            acc += term
            if abs(term) < 1e-18 * abs(acc) + 1e-300:
                break
            power *= t
            weight *= (m + p + 1) / (m + 1)
        return acc
    inner = math.log1p(t) / t ** (p + 1)
    for j in range(1, p + 1):
        inner -= 1.0 / (j * (1.0 + t) ** j * t ** (p + 1 - j))
    return (-1.0) ** p * math.factorial(p) * inner


def cigar_deriv(t: float, order: int) -> float:
    """The shipped cigar factor's order-q t-derivative at one t, read off the
    jet of ``CigarProductPotential(1)``."""
    return CigarProductPotential(1).derivative_tensors([t], order)[order - 1].item()


class TestCigarRadialDerivatives:
    # the shipped jet, through derivative_tensors; these tests integrate the
    # first derivative against phi = -Li2(-t)
    def test_value_is_dilogarithm(self):
        assert gauss(lambda t: cigar_deriv(t, 1), 0.0, 1.0) == pytest.approx(
            math.pi**2 / 12.0, rel=1e-15, abs=0.0
        )

    def test_value_equals_scipy_spence(self):
        # not at tiny t: rounding 1 + t in the argument of spence costs digits
        for t in (0.1, 0.25, 1.0, 3.7, 20.0):
            integral = gauss(lambda s: cigar_deriv(s, 1), 0.0, t)
            assert integral == pytest.approx(-spence(1.0 + t), rel=1e-14, abs=0.0)

    def test_first_derivative_closed_form(self):
        for t in (1e-7, 0.2499, 0.2501, 1.0, 50.0):
            assert cigar_deriv(t, 1) == pytest.approx(
                math.log1p(t) / t, rel=1e-13
            )
        assert cigar_deriv(0.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError, match="radial coordinate must be nonnegative"):
            CigarProductPotential(2).derivative_tensors([0.5, -0.1], 1)

    def test_metric_combination(self):
        # g = d1 + t*d2 must equal 1/(1+t) for all t >= 0
        for t in (0.0, 1e-9, 1e-4, 0.2499, 0.2501, 1.0, 7.0, 1e4):
            d1 = cigar_deriv(t, 1)
            d2 = cigar_deriv(t, 2)
            assert d1 + t * d2 == pytest.approx(1.0 / (1.0 + t), rel=1e-12)

    @pytest.mark.parametrize("order", (1, 2, 3, 4))
    def test_series_branch_matches_closed_form(self, order):
        for t in (0.2499, 0.2501):
            lo = cigar_deriv(t, order)
            hi = cigar_deriv(t * 1.0000001, order)
            assert hi == pytest.approx(lo, rel=1e-6)

    @pytest.mark.parametrize("t", (0.2499, 0.25, 0.2501))
    def test_both_branches_at_the_seam(self, t, monkeypatch):
        # the same t through the series (switch moved above t) and through the
        # closed form (switch moved to 0); the closed form's orders 3 and 4
        # cancel to ~1e-3 of their largest term, p! log(1+t) / t^(p+1)
        t_cols = np.array([[t]])
        monkeypatch.setattr(potentials, "_CIGAR_SERIES_T", np.inf)
        series = potentials._cigar_diagonals(t_cols, 4)
        monkeypatch.setattr(potentials, "_CIGAR_SERIES_T", 0.0)
        closed = potentials._cigar_diagonals(t_cols, 4)
        for p, (a, b) in enumerate(zip(series, closed)):
            scale = math.factorial(p) * math.log1p(t) / t ** (p + 1)
            assert abs(a.item() - b.item()) <= 1e-14 * scale, (p + 1, a.item(), b.item())

    @pytest.mark.parametrize("order", (0, 1, 2, 3))
    def test_derivative_chain(self, order):
        # order q+1 is the t-derivative of order q; order 0 is phi = -Li2(-t)
        def deriv(s):
            return -spence(1.0 + s) if order == 0 else cigar_deriv(s, order)

        for t in (0.1, 0.3, 2.0):
            fd = fd_scalar(deriv, t)
            assert cigar_deriv(t, order + 1) == pytest.approx(fd, rel=1e-8)


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

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    @pytest.mark.parametrize("s", (0.0999, 0.1, 0.1001))
    def test_both_branches_at_the_seam(self, n, s, monkeypatch):
        # the same s through the series (switch moved above s) and through the
        # Stirling chain C_q s^q = sum_m s(q, m) u^(m) (switch moved to 0); the
        # chain's sums cancel, so the gap is bounded by the size of their
        # terms.  Measured: <= 5.5 eps of that scale for n <= 4
        m = SolitonPotential(SolitonProfile(n))
        stirling = ((1.0,), (-1.0, 1.0), (2.0, -3.0, 1.0), (-6.0, 11.0, -6.0, 1.0))
        derivs = m.profile.derivatives(math.log(s))
        for order in (1, 2, 3, 4):
            monkeypatch.setattr(potentials, "_RADIAL_SERIES_S", np.inf)
            series = m.radial_deriv(s, order)
            monkeypatch.setattr(potentials, "_RADIAL_SERIES_S", 0.0)
            chain = m.radial_deriv(s, order)
            assert len(series) == len(chain) == order
            for q, (a, b) in enumerate(zip(series, chain), 1):
                scale = sum(abs(c * d) for c, d in zip(stirling[q - 1], derivs)) / s**q
                assert abs(a - b) <= 16 * np.finfo(float).eps * scale, (order, q, a, b)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_radial_deriv_is_derivative_of_value(self, n):
        m = SolitonPotential(SolitonProfile(n))
        for s in (0.05, 0.5, 0.9999, 1.0001, 3.0, 40.0):
            fd = fd_scalar(lambda x: _soliton_value(m.profile, x), s, h=1e-6 * max(1.0, s))
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

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError, match="s must be nonnegative"):
            SolitonPotential(SolitonProfile(2)).radial_deriv(-1.0, 1)

    def test_powers_past_the_float_range_underflow(self):
        # s**4 overflows at s = 1e300: C_q = (Stirling sum) / s^q underflows instead
        m = SolitonPotential(SolitonProfile(2))
        c = m.radial_deriv(1e300, 4)
        assert c[0] == pytest.approx(m.profile.u_prime(math.log(1e300)) / 1e300, rel=1e-15)
        assert c[1:] == (0.0, 0.0, 0.0)

    def test_n1_matches_cigar(self):
        # n=1 profile satisfies e^{u'} - 1 = e^t, i.e. the same metric as the
        # single cigar factor; their first radial derivatives agree
        m = SolitonPotential(SolitonProfile(1))
        for s in np.linspace(1e-3, 100.0, 37):
            assert m.radial_deriv(s, 1)[0] == pytest.approx(
                cigar_deriv(s, 1), rel=1e-10
            )


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
        g = metric_at(m, z)
        omega = hermitian_to_two_form(g)
        assert omega.shape == (4, 4)
        assert np.allclose(omega, -omega.T, atol=1e-15)
        # diagonal metric entry g_jj appears as the (x_j, y_j) pairing
        assert omega[0, 1] == pytest.approx(g[0, 0].real)

    def test_fold_metric_loses_positivity(self):
        # the fold family is a designed cond0 violator past t = 1/2
        g = metric_at(fold_test_model(), [2.0])
        assert np.min(np.linalg.eigvalsh(g)) < 0.0

    @pytest.mark.parametrize("where", ("d1", "d2"))
    def test_nonfinite_jet_names_first_point(self, where):
        z = np.array([[0.5, 1.0j], [2.0, 3.0], [4.0, 5.0]])
        d1, d2 = CigarProductPotential(2).derivative_tensors(radial_coords(z), 2)
        # rows 1 and 2 are bad; the message names row 1
        for row in (1, 2):
            if where == "d1":
                d1[row, 1] = np.nan
            else:
                d2[row, 0, 1] = np.inf
        named = r"not finite: first derivative \[.*\] at z=\[2\.\+0\.j 3\.\+0\.j\]$"
        with pytest.raises(ValueError, match=named):
            metric_from_jet(z, (d1, d2))


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

    @pytest.mark.parametrize("order", (0, 5, -1))
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_order_outside_one_to_four_rejected(self, model, order):
        with pytest.raises(ValueError, match=f"derivative order must be 1, 2, 3 or 4, got {order}$"):
            model.derivative_tensors(np.full(model.n, 0.1), order)

    def test_empty_poly_is_zero(self):
        m = PolyTestPotential(2, {})
        for q, tensor in enumerate(m.derivative_tensors(np.array([0.3, 2.0]), 4), 1):
            assert tensor.shape == (2,) * q
            assert not np.any(tensor)

    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_first_tensor_matches_fd_of_value(self, model, rng):
        # the value comes from outside the model: see _reference_value
        for _ in range(5):
            t = radial_coords(
                1.5 * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))
            )
            d1 = model.derivative_tensors(t, 1)[0]
            for j in range(model.n):
                fd = fd_scalar(lambda s: _value_at(model, t, j, s), t[j])
                assert d1[j] == pytest.approx(fd, rel=5e-6, abs=1e-8)


_SEAM = 1e-12  # relative half-width of the straddle around each seam


def _straddle(x):
    return (x * (1.0 - _SEAM), x, x * (1.0 + _SEAM))


def _seam_rows(model):
    """(B, n) radial coordinates whose rows straddle the model's seams.

    Cigar: each coordinate on both sides of t = 0.25.  Soliton: s = sum t_j
    on both sides of the radial series seam s = 0.1, of s = e^-3 (profile
    t = -3, answered by the radial series, since log 0.1 > -3), of the s
    where u' crosses F_n's series/closed-form cutoff, (n F_n(cutoff))^(1/n),
    and of s = e^(60/n), far out on the Newton branch.  The poly table has
    no seam; it gets the cigar rows.
    """
    n = model.n
    if isinstance(model, SolitonPotential):
        closed = (n * FIntegral(n).eval(soliton._closed_form(n)[0])) ** (1.0 / n)
        sums = [s for x in (0.1, math.exp(-3.0), closed, math.exp(60.0 / n)) for s in _straddle(x)]
        weights = np.linspace(1.0, 2.0, n)
        return np.array([s * weights / weights.sum() for s in sums])
    values = [*_straddle(0.25), 0.0, 1e-9, 0.2, 0.3, 40.0, 1e4]
    return np.array([np.roll(values, -k)[:n] for k in range(len(values))])


class TestBatchedJets:
    MODELS = [
        lambda: CigarProductPotential(1),
        lambda: CigarProductPotential(3),
        lambda: soliton_potential(SolitonProfile(2)),
        lambda: soliton_potential(SolitonProfile(3)),
        lambda: PolyTestPotential(
            3, {(2, 1, 0): 0.7, (1, 1, 1): -1.3, (0, 0, 4): 0.25, (1, 0, 0): 2.0, (0, 3, 1): 0.1}
        ),
    ]

    @pytest.mark.parametrize("make", MODELS)
    def test_rows_equal_batch_of_one(self, make):
        model = make()
        rows = _seam_rows(model)
        batch = model.derivative_tensors(rows, 4)
        for q, tensor in enumerate(batch, 1):
            assert tensor.shape == (len(rows),) + (model.n,) * q
        for row, t in enumerate(rows):
            for tensor, alone in zip(batch, model.derivative_tensors(t, 4)):
                assert tensor[row].tobytes() == alone.tobytes()
        # any number of leading axes
        stacked = model.derivative_tensors(np.stack([rows, rows[::-1]]), 2)
        assert stacked[1][0].tobytes() == batch[1].tobytes()
        assert stacked[1][1].tobytes() == batch[1][::-1].tobytes()

    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
        poly_test_model,
        lambda: flat_potential(3),
    ], ids=["cigar", "soliton", "poly", "flat"])
    def test_empty_batch_on_every_routine(self, make):
        # a (0, n) batch gives empty results of the batch's shape, not a reshape error
        model = make()
        n = model.n
        z = np.empty((0, n), dtype=complex)
        dm = DarbouxMap(model)
        assert metric_at(model, z).shape == (0, n, n)
        assert christoffel_at(model, z).shape == (0, n, n, n)
        for method in ("analytic", "fd"):
            assert curvature_at(model, z, method=method).shape == (0, n, n, n, n)
        assert dm.map_point(z).shape == (0, n)
        assert dm.jacobian(z, method="fd").shape == (0, 2 * n, 2 * n)
        assert dm.pullback_residual(z).shape == (0,)
        assert geodesic_integrate(model, z, z, 1.0) == []

    @pytest.mark.parametrize("model", [*shipped_models(), fold_test_model()], ids=lambda m: m.name)
    def test_jet_prefix_is_order_independent(self, model, rng):
        # D_p of an order-q jet is the order-p jet bit for bit, for p <= q <= 4,
        # on the seam rows and on random rows below and above the cigar seam
        rows = np.concatenate([_seam_rows(model), rng.uniform(0.0, 0.5, (20, model.n))])
        jets = {q: model.derivative_tensors(rows, q) for q in (1, 2, 3, 4)}
        for q, jet in jets.items():
            for p in range(1, q + 1):
                assert jet[p - 1].tobytes() == jets[p][p - 1].tobytes(), (p, q)

    @pytest.mark.parametrize("n", (1, 3))
    def test_cigar_rows_match_scalar_reference(self, n):
        # above the seam the closed form subtracts sum_j x^j / j from
        # log(1+t), x = t/(1+t): at orders 3 and 4 near t = 0.25 the result is
        # ~1e-3 of the terms, so two implementations can only agree to 1e-14
        # of the largest term, p! log(1+t) / t^(p+1); below it, of the value
        model = CigarProductPotential(n)
        rows = _seam_rows(model)
        batch = model.derivative_tensors(rows, 4)
        for q, tensor in enumerate(batch, 1):
            idx = (slice(None),) + (np.arange(n),) * q
            diagonal = tensor[idx]
            assert np.count_nonzero(tensor) == np.count_nonzero(diagonal)
            for (row, j), value in np.ndenumerate(diagonal):
                t = rows[row, j]
                ref = cigar_radial_deriv(t, q)
                scale = abs(ref) if t < 0.25 else math.factorial(q - 1) * math.log1p(t) / t**q
                assert abs(value - ref) <= 1e-14 * scale, (t, q, value, ref)

    @pytest.mark.parametrize("n", (2, 3))
    def test_soliton_rows_match_radial_deriv(self, n):
        model = soliton_potential(SolitonProfile(n))
        rows = _seam_rows(model)
        batch = model.derivative_tensors(rows, 4)
        for row, t in enumerate(rows):
            for tensor, c in zip(batch, model.radial_deriv(float(np.sum(t)), 4)):
                assert np.all(tensor[row] == c)


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


def _soliton_value(profile, s):
    """Phi(s) = u(log s) with u(-inf) = 0, from the profile's u' by quadrature:
    dPhi/dsigma = u'(log sigma) / sigma over [0, min(s, 1)], then
    du/dtau = u'(tau) over tau in [0, log s]."""
    value = gauss(lambda sigma: profile.u_prime(math.log(sigma)) / sigma, 0.0, min(s, 1.0))
    if s > 1.0:
        value += gauss(profile.u_prime, 0.0, math.log(s))
    return value


def _reference_value(model, t):
    """Phi(t) from outside the model: scipy's dilogarithm for the cigar, the
    profile's u' integrated for the soliton, the monomial loop for a polynomial."""
    if isinstance(model, CigarProductPotential):
        return float(-np.sum(spence(1.0 + t)))
    if isinstance(model, SolitonPotential):
        return _soliton_value(model.profile, float(np.sum(t)))
    return _loop_partial(model, [0] * model.n, t)


def _value_at(model, t, j, s):
    tt = np.array(t, dtype=float)
    tt[j] = s
    return _reference_value(model, tt)


class TestOutOfRangePoints:
    """A point past the float range gets a non-finite jet, so that
    ``metric_from_jet`` names it; the other rows of a batch keep their jets."""

    @pytest.mark.parametrize("model, t", [
        (SolitonPotential(SolitonProfile(2)), [math.inf, 0.0]),
        (fold_test_model(), [1e200]),
        (PolyTestPotential(2, {(3, 0): 1.0, (0, 1): 1.0}), [1e110, 0.5]),
    ], ids=["soliton-s-inf", "fold-square-overflows", "poly-cube-overflows"])
    def test_jet_is_not_finite_and_other_rows_keep_theirs(self, model, t):
        inside = np.full(model.n, 0.3)
        batch = model.derivative_tensors(np.array([inside, t]), 4)
        for tensor, alone in zip(batch, model.derivative_tensors(inside, 4)):
            assert tensor[0].tobytes() == alone.tobytes()
        assert not np.isfinite(batch[0][1]).any()

    @pytest.mark.parametrize("row", [0, 1, 3])
    def test_one_solve_per_finite_row(self, row, monkeypatch):
        # an s = inf row costs no solve and makes no other row solve twice
        model = SolitonPotential(SolitonProfile(2))
        t = np.array([[0.02, 0.01], [0.5, 0.5], [1.0, 2.0], [3.0, 0.0]])
        t[row] = [math.inf, 0.0]
        alone = [model.derivative_tensors(ti, 4) for ti in t]
        solves = []
        deriv = model.radial_deriv
        monkeypatch.setattr(model, "radial_deriv", lambda s, q: solves.append(s) or deriv(s, q))
        batch = model.derivative_tensors(t, 4)
        assert solves == [float(np.sum(ti)) for k, ti in enumerate(t) if k != row]
        for tensor, rows_alone in zip(batch, zip(*alone)):
            assert np.isnan(tensor[row]).all()
            for k in range(len(t)):
                if k != row:
                    assert tensor[k].tobytes() == rows_alone[k].tobytes()

    def test_solve_failure_inside_the_range_propagates(self, monkeypatch):
        model = SolitonPotential(SolitonProfile(2))

        def failing(s, order):
            raise ProfileSolveError(f"no convergence at s={s}")

        monkeypatch.setattr(model, "radial_deriv", failing)
        with pytest.raises(ProfileSolveError, match="no convergence at s=1.0"):
            model.derivative_tensors([[0.5, 0.5]], 2)

    def test_metric_names_the_point(self):
        # t = 1e200 is finite; the fold's t^2 overflows
        with pytest.raises(ValueError, match=r"potential derivatives are not finite.* at z=\[1\.e\+100"):
            metric_at(fold_test_model(), [1e100])

    @pytest.mark.parametrize("make, z, t", [
        (lambda: CigarProductPotential(1), [1e200], r"\[inf\]"),
        (lambda: SolitonPotential(SolitonProfile(1)), [1e200], r"\[inf\]"),
        (lambda: SolitonPotential(SolitonProfile(2)), [1e200, 0.0], r"\[inf  0\.\]"),
        (poly_test_model, [1e200, 0.5], r"\[ inf 0\.25\]"),
    ], ids=["cigar-n1", "soliton-n1", "soliton-n2", "poly-n2"])
    def test_overflowing_radial_coordinate_is_named(self, make, z, t):
        # z is finite, so "first derivative [nan]" blamed the potential for
        # what is the overflow of |z_j|^2
        model = make()
        dm = DarbouxMap(model)
        named = rf"^radial coordinate \|z_j\|\^2 overflows: t={t} at z=\[1\.e\+200\+0\.j"
        calls = [lambda z: metric_at(model, z), dm.map_point, dm.jacobian, lambda z: dm.jacobian(z, method="fd")]
        for call in calls:
            with np.errstate(over="ignore"), pytest.raises(ValueError, match=named):
                call(z)

    @pytest.mark.parametrize("make", [
        lambda: flat_potential(1), fold_test_model, poly_test_model,
        lambda: CigarProductPotential(1), lambda: SolitonPotential(SolitonProfile(2)),
    ], ids=["flat", "fold", "poly", "cigar", "soliton"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "-inf-j"])
    def test_non_finite_z_is_named(self, make, value):
        # flat's jet reads no power of t, so NaN ** 0 = 1 once made it finite there
        model = make()
        z = np.full(model.n, 0.3 + 0j)
        z[-1] = value
        named = r"potential derivatives are not finite: first derivative \[.*nan\] at z=\[.*(nan|inf)"
        with pytest.raises(ValueError, match=named):
            metric_at(model, z)
        with pytest.raises(ValueError, match=named):
            DarbouxMap(model).pullback_residual(z)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("value", [math.inf, complex(0.0, -math.inf)], ids=["inf", "-inf-j"])
    def test_cigar_names_an_infinite_z_before_any_warning(self, n, value):
        # the closed form meets inf * 0 at an infinite t; a warning raised there
        # must not take the place of the error that names z
        model = CigarProductPotential(n)
        z = np.full(n, 0.3 + 0j)
        z[-1] = value
        dm = DarbouxMap(model)
        named = r"^potential derivatives are not finite: first derivative \[.*nan\] at z=\[.*inf"
        for call in (lambda z: metric_at(model, z), dm.map_point, dm.pullback_residual):
            with pytest.raises(ValueError, match=named):
                call(z)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("value", [math.inf, complex(0.0, -math.inf)], ids=["inf", "-inf-j"])
    def test_cigar_warns_nothing_at_an_infinite_z(self, n, value):
        # under filters that let warnings through ("always" records each one
        # that the default filters would print), the closed form's inf * 0
        # and the FD Jacobian's stencil at inf once printed RuntimeWarnings
        # before the named error
        model = CigarProductPotential(n)
        z = np.full(n, 0.3 + 0j)
        z[-1] = value
        dm = DarbouxMap(model)
        calls = [lambda z: metric_at(model, z), dm.map_point, dm.jacobian, dm.pullback_residual,
                 lambda z: dm.jacobian(z, method="fd"), lambda z: dm.pullback_residual(z, method="fd")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            texts = []
            for call in calls:
                with pytest.raises(ValueError) as err:
                    call(z)
                texts.append(str(err.value))
        assert caught == []
        assert texts == [texts[0]] * len(calls)
        assert texts[0].startswith("potential derivatives are not finite: first derivative [")
        assert texts[0].endswith(f"at z={z}")

    @pytest.mark.parametrize("make", [
        lambda: flat_potential(1), fold_test_model, poly_test_model,
        lambda: CigarProductPotential(1), lambda: SolitonPotential(SolitonProfile(2)),
    ], ids=["flat", "fold", "poly", "cigar", "soliton"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "-inf-j"])
    def test_map_names_a_non_finite_z_as_the_metric_does(self, make, value):
        model = make()
        z = np.full(model.n, 0.3 + 0j)
        z[-1] = value
        dm = DarbouxMap(model)
        with pytest.raises(ValueError) as metric:
            metric_at(model, z)
        for call in (dm.map_point, dm.jacobian):
            with pytest.raises(ValueError) as err:
                call(z)
            assert type(err.value) is ValueError and str(err.value) == str(metric.value)


class TestDescriptors:
    def test_round_trip_all_shipped(self, rng):
        # every shipped model and the flat and fold stock polynomials rebuild bit for bit
        for m in [*shipped_models(), flat_potential(3), fold_test_model()]:
            clone = model_from_descriptor(m.descriptor())
            assert clone.name == m.name
            t = rng.uniform(0.0, 2.0, size=(6, m.n))
            for got, expected in zip(clone.derivative_tensors(t, 4), m.derivative_tensors(t, 4)):
                assert got.tobytes() == expected.tobytes()

    def test_poly_descriptor_monomials(self):
        m = PolyTestPotential(1, {(1,): 1.0, (2,): -0.5}, label="fold")
        desc = m.descriptor()
        clone = model_from_descriptor(desc)
        assert clone.monomials == m.monomials
        assert clone.name == "fold-n1"

    def test_soliton_descriptor_without_a0(self):
        # the "a0" and "newton_tol" keys that older descriptors carry are ignored
        m = model_from_descriptor({"kind": "soliton", "n": 2, "newton_tol": 1e-12, "a0": 3.0})
        assert m.descriptor() == {"kind": "soliton", "n": 2}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_soliton_descriptor_from_older_suite_json_loads(self, n):
        # the model entry exactly as earlier `suite --out` reports wrote it
        desc = json.loads(f'{{"kind": "soliton", "n": {n}, "newton_tol": 1e-13}}')
        m = model_from_descriptor(desc)
        ref = SolitonPotential(SolitonProfile(n))
        assert type(m) is SolitonPotential and m.profile == ref.profile
        assert m.descriptor() == ref.descriptor() == {"kind": "soliton", "n": n}
        z = np.full(n, 0.4 + 0.1j)
        assert np.array_equal(metric_at(m, z), metric_at(ref, z))

    @pytest.mark.parametrize("desc, match", [
        ([("kind", "cigar")], "must be a mapping"),
        ({"n": 2}, "missing 'kind'"),
    ], ids=["not-a-mapping", "no-kind"])
    def test_malformed_descriptor_rejected(self, desc, match):
        with pytest.raises(ValueError, match=match):
            model_from_descriptor(desc)

    def test_flat_label_builds_the_flat_potential(self):
        m = model_from_descriptor({"kind": "poly", "n": 3, "label": "flat"})
        assert m.descriptor() == flat_potential(3).descriptor()
        assert np.array_equal(metric_at(m, [0.3, 1j, 2.0]), np.eye(3))

    @pytest.mark.parametrize("args, match", [
        ((3,), "the default coupled polynomial needs n = 2"),
        ((2, {(1,): 1.0}), "bad exponent multi-index"),
        ((1, {(-1,): 1.0}), "bad exponent multi-index"),
    ], ids=["default-n3", "short-index", "negative-exponent"])
    def test_bad_polynomial_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            PolyTestPotential(*args)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_descriptor({"kind": "nope", "n": 1})

    @pytest.mark.parametrize(
        "desc, unknown",
        [
            ({"kind": "soliton", "nn": 3}, "'nn'"),
            ({"kind": "cigar", "N": 2}, "'N'"),
            ({"kind": "poly", "n": 2, "monomial": {"1,0": 2.0}}, "'monomial'"),
            ({"kind": "cigar", "n": 2, "newton_tol": 1e-13}, "'newton_tol'"),
        ],
        ids=["soliton-nn", "cigar-N", "poly-monomial", "cigar-newton_tol"],
    )
    def test_unknown_keys_rejected(self, desc, unknown):
        # each of these used to build a default model with the key ignored
        with pytest.raises(ValueError, match=f"unknown keys in a {desc['kind']} model descriptor: {unknown}"):
            model_from_descriptor(desc)

    @pytest.mark.parametrize(
        "desc, match",
        [
            ({"kind": "cigar", "n": 2.7}, "must be an integer"),
            ({"kind": "soliton", "n": True}, "must be an integer"),
            ({"kind": "poly", "n": 3, "label": "fold"}, "fold polynomial"),
            ({"kind": "poly", "n": 1, "monomials": {"1": True, "2": False}}, "must be a number"),
            ({"kind": "poly", "n": 1, "label": 7}, "must be a string"),
        ],
        ids=["fractional-n", "bool-n", "fold-n3", "bool-monomial", "int-label"],
    )
    def test_descriptor_for_another_model_rejected(self, desc, match):
        # each of these used to build a different model than the one named
        with pytest.raises(ValueError, match=match):
            model_from_descriptor(desc)

    def test_shipped_inventory(self):
        names = [m.name for m in shipped_models()]
        assert names == [
            "cigar-n1", "cigar-n2", "cigar-n3", "cigar-n4",
            "soliton-n1", "soliton-n2", "soliton-n3", "poly-n2",
        ]


class TestSampleRegion:
    @pytest.mark.parametrize("radius", (0.0, -1.0, math.nan, math.inf))
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            SampleRegion(radius=radius)

    @pytest.mark.parametrize("radius", (-1.0, math.nan, math.inf))
    def test_sampler_rejects_bad_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            sample_polydisc(np.random.default_rng(0), 3, 2, radius)

    def test_reproducible_and_origin(self):
        region = SampleRegion(radius=2.0, count=10)
        a = region.sample(2)
        b = region.sample(2)
        assert np.array_equal(a, b)
        assert np.all(a[0] == 0.0)
        assert np.max(np.abs(a)) <= 2.0


class TestCond0:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_shipped_models_pass(self, model):
        rep = cond0_scan(model, SampleRegion(count=40))
        assert rep.passed
        assert min(rep.min_first_derivs) >= 0.0
        assert rep.min_metric_eigenvalue > 0.0

    def test_decreasing_potential_fails(self):
        bad = PolyTestPotential(1, {(1,): -1.0}, label="neg")
        rep = cond0_scan(bad, SampleRegion(count=10))
        assert not rep.passed

    def test_nan_metric_eigenvalue_past_first_point_propagates(self, monkeypatch):
        real = np.linalg.eigvalsh
        calls = []

        def eigvalsh(a):
            calls.append(a.shape)
            eigs = real(a)
            eigs[2] = np.nan
            return eigs

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        rep = cond0_scan(soliton_potential(SolitonProfile(2)), SampleRegion(count=5))
        assert calls == [(5, 2, 2)]  # one stacked call over the sample
        assert math.isnan(rep.min_metric_eigenvalue)

    @pytest.mark.parametrize("model", [*shipped_models(), fold_test_model()], ids=lambda m: m.name)
    def test_matches_per_point_reference(self, model):
        region = SampleRegion(count=40)
        rep = cond0_scan(model, region)
        mins, eig_min = _loop_cond0(model, region)
        assert _bits(*rep.min_first_derivs) == _bits(*mins)
        assert _bits(rep.min_metric_eigenvalue) == _bits(eig_min)

    def test_one_jet_per_point(self, monkeypatch):
        model = soliton_potential(SolitonProfile(2))
        orders, radial = [], []
        jet, deriv = model.derivative_tensors, model.radial_deriv
        monkeypatch.setattr(model, "derivative_tensors", lambda t, q: orders.append(q) or jet(t, q))
        monkeypatch.setattr(model, "radial_deriv", lambda s, q: radial.append(s) or deriv(s, q))
        cond0_scan(model, SampleRegion(count=7))
        assert orders == [2]  # D1 and the metric from one order-2 jet
        assert len(radial) == 7

    def test_nan_first_derivative_fails(self):
        rep = Cond0Report((0.5, float("nan")), min_metric_eigenvalue=1.0)
        assert math.isnan(rep.min_value)
        assert not rep.passed


def _loop_cond0(model, region):
    """cond0_scan one point at a time: the minimum first derivatives and the
    minimum metric eigenvalue, NaN-propagating, the reference for the batch."""
    mins = np.full(model.n, np.inf)
    eig_mins = []
    for z in region.sample(model.n):
        mins = np.minimum(mins, model.derivative_tensors(radial_coords(z), 1)[0])
        eig_mins.append(np.linalg.eigvalsh(metric_at(model, z))[0])
    return tuple(float(v) for v in mins), float(np.min(eig_mins))


def _scalar_log_ray_growth(model, log_r, direction):
    """(log S, cond) at one radius by scipy's logsumexp, the reference for the
    batched ``log_ray_growth``; cond = sum |terms| / |sum terms| of the signed
    sum it takes (1 for the cigar and the soliton)."""
    d = np.asarray(direction, dtype=complex)
    with np.errstate(divide="ignore"):
        log_t = 2.0 * (log_r + np.log(np.abs(d)))
    if isinstance(model, CigarProductPotential):
        total = float(np.sum(np.logaddexp(0.0, log_t)))
        return (math.log(total) if total > 0.0 else -np.inf), 1.0
    if isinstance(model, SolitonPotential):
        t_s = float(logsumexp(log_t))
        return (t_s if t_s < -700.0 else math.log(model.profile.u_prime(t_s))), 1.0
    terms, signs = [], []
    for a, c in model.monomials.items():
        if sum(a) == 0:
            continue
        exps = np.asarray(a, dtype=float)
        mask = exps > 0
        terms.append(math.log(abs(c) * sum(a)) + float(np.dot(exps[mask], log_t[mask])))
        signs.append(1.0 if c > 0 else -1.0)
    if not terms:
        return -np.inf, 1.0
    total, sign = logsumexp(terms, b=signs, return_sign=True)
    return (float(total) if sign > 0 else -np.inf), _condition(logsumexp(terms), total)


def _condition(log_abs_sum, log_sum):
    """sum |terms| / |sum terms| from the logs of both sums (1 where both are -inf)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(log_abs_sum == log_sum, 1.0, np.exp(log_abs_sum - log_sum))


def _assert_logs_close(value, ref, cond):
    """value = ref where ref is not finite, else |value - ref| <= 4 eps max(1, |ref|) cond."""
    value, ref, cond = np.broadcast_arrays(value, ref, cond)
    with np.errstate(invalid="ignore"):
        bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref)) * cond
        close = np.isfinite(ref) & (np.abs(value - ref) <= bound)
    bad = ~(close | (value == ref))
    assert not bad.any(), (value[bad], ref[bad], cond[bad])


# log radii: the properness ladder's decades, log s = 2 log r across -700 (the
# soliton's small-s branch), the seam n * log s = 60 for n = 1, 2, 3 from both
# sides, and moderate radii
_LOG_RADII = np.concatenate([
    [math.log(r) for r in np.logspace(0, 250, 126)],
    np.linspace(-400.0, -300.0, 11),
    *(30.0 / n + np.array([-0.5, -1e-9, 0.0, 1e-9, 0.5]) for n in (1, 2, 3)),
    np.linspace(-5.0, 5.0, 21),
])


class TestRayGrowth:
    @pytest.mark.parametrize("model", shipped_models(), ids=lambda m: m.name)
    def test_axis_direction_is_finite(self, model):
        # regression: zero components on axis rays must not poison the sum
        d = np.zeros(model.n, dtype=complex)
        d[0] = 1.0
        v = model.log_ray_growth(np.array([math.log(10.0)]), d)
        assert v.shape == (1,)
        assert np.isfinite(v[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "model",
        # the 12-monomial poly sums more than 8 terms, past numpy's pairwise-summation block
        [*shipped_models(), fold_test_model(),
         PolyTestPotential(2, {(i, j): (-1.0) ** (i * j) * (1 + i + j) for i in range(4) for j in range(3)})],
        ids=lambda m: m.name,
    )
    def test_batch_matches_scalar_reference(self, model, rng):
        # the cigar and fold rays equal the reference bit for bit; the soliton
        # (log s from |d|) and the poly (one shifted signed sum) agree within
        # the sum's conditioning
        directions = [
            *unit_directions(model.n, model.n + 3, rng),  # axis rays hold zero components
            np.zeros(model.n),  # every log t_j is -inf
            np.arange(model.n) * (0.5 - 2j),  # first component zero, not unit length
        ]
        for d in directions:
            batch = model.log_ray_growth(_LOG_RADII, d)
            ref, cond = np.array([_scalar_log_ray_growth(model, v, d) for v in _LOG_RADII.tolist()]).T
            assert batch.shape == _LOG_RADII.shape
            if model.kind in ("cigar", "fold"):
                assert batch.tobytes() == ref.tobytes(), (model.name, d)
            else:
                _assert_logs_close(batch, ref, cond)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "model",
        [*shipped_models(), fold_test_model(),
         PolyTestPotential(2, {(i, j): (-1.0) ** (i * j) * (1 + i + j) for i in range(4) for j in range(3)})],
        ids=lambda m: m.name,
    )
    def test_direction_rows_match_single_directions_bitwise(self, model, rng):
        directions = np.array([
            *unit_directions(model.n, model.n + 3, rng),
            np.zeros(model.n),
            np.arange(model.n) * (0.5 - 2j),
        ])
        batch = model.log_ray_growth(_LOG_RADII, directions)
        assert batch.shape == (len(directions), len(_LOG_RADII))
        for d, row in zip(directions, batch):
            assert row.tobytes() == model.log_ray_growth(_LOG_RADII, d).tobytes(), (model.name, d)

    def test_constant_polynomial_never_grows(self):
        # S = sum_j Phi_j t_j is 0 for a constant potential: log S is -inf
        model = PolyTestPotential(1, {(0,): 2.0})
        assert model.log_ray_growth(np.array([0.0, 5.0]), [1.0]).tolist() == [-np.inf, -np.inf]

    def test_matches_direct_sum_at_moderate_radius(self):
        for model in (CigarProductPotential(2), soliton_potential(SolitonProfile(2)), poly_test_model()):
            dvec = np.array([0.6, 0.8], dtype=complex)
            r = 7.0
            t = radial_coords(r * dvec)
            d1 = model.derivative_tensors(t, 1)[0]
            direct = float(np.dot(d1, t))
            assert model.log_ray_growth(np.array([math.log(r)]), dvec)[0] == pytest.approx(
                math.log(direct), rel=1e-10
            )


def _log_terms(rng, signed):
    """A log_ray_growth-like input: 1-4 exponents up to 1e3 in size, some -inf
    (all of them now and then), tied maxima and, when signed, mixed signs with
    the leading pair cancelling exactly or to about 1e-12."""
    n = int(rng.integers(1, 5))
    x = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    x[rng.random(n) < 0.2] = -np.inf
    if n > 1 and rng.random() < 0.1:
        x[rng.integers(1, n)] = x[0]
    signs = np.ones(n)
    if signed:
        signs[rng.random(n) < 0.5] = -1.0
        if n > 1 and rng.random() < 0.2:
            x[1] = x[0] + (1e-12 * rng.standard_normal() if rng.random() < 0.5 else 0.0)
            signs[1] = -signs[0]
    return x, signs


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


class TestLogSumExp:
    """The numpy _logsumexp agrees with scipy.special.logsumexp within the
    sum's conditioning, and each row of a batch equals that row alone."""

    @staticmethod
    def _groups(rng, signed, count=20_000):
        """``count`` _log_terms inputs as (x, signs) arrays, one per row length."""
        groups = {}
        for _ in range(count):
            x, signs = _log_terms(rng, signed)
            groups.setdefault(len(x), []).append((x, signs))
        return [np.array(rows).transpose(1, 0, 2) for rows in groups.values()]

    def test_unsigned_matches_scipy(self):
        for x, ones in self._groups(np.random.default_rng(8), signed=False):
            value, sign = _logsumexp(x, ones)
            ref = logsumexp(x, axis=-1)
            _assert_logs_close(value, ref, 1.0)
            assert np.all(sign[np.isfinite(ref)] == 1.0)

    def test_signed_matches_scipy(self):
        cancelled = 0
        for x, signs in self._groups(np.random.default_rng(9), signed=True):
            value, sign = _logsumexp(x, signs)
            ref, ref_sign = logsumexp(x, axis=-1, b=signs, return_sign=True)
            # scipy reads NaN where the sum cancels past the float range (e^774.92
            # twice with opposite signs), the one form -inf
            nan = np.isnan(ref)
            cancelled += nan.sum()
            assert np.all(value[nan] == -np.inf) and np.all(sign[nan] == 0.0)
            _assert_logs_close(value[~nan], ref[~nan], _condition(logsumexp(x[~nan], axis=-1), ref[~nan]))
            finite = np.isfinite(ref)
            assert np.all(sign[finite] == ref_sign[finite])
        assert cancelled == 1
        # the poly's log_ray_growth maps both to -inf: S = t1 - t2 on the ray
        # (1, 1), where log t_j = 774.92
        model = PolyTestPotential(2, {(1, 0): 1.0, (0, 1): -1.0})
        assert model.log_ray_growth(np.array([387.46]), [1.0, 1.0]).tolist() == [-np.inf]
        assert _scalar_log_ray_growth(model, 387.46, [1.0, 1.0])[0] == -np.inf

    @pytest.mark.parametrize("signed", (False, True))
    def test_rows_match_single_calls_bitwise(self, signed):
        rng = np.random.default_rng(10)
        batches = {}  # rows sharing a sign vector form one batch
        for _ in range(4_000):
            x, signs = _log_terms(rng, signed)
            batches.setdefault(tuple(signs), []).append(x)
        for signs, rows in batches.items():
            value, sign = _logsumexp(np.array(rows), np.array(signs))
            single = [_logsumexp(row, np.array(signs)) for row in rows]
            assert _bits(*value, *sign) == _bits(*(v for v, _ in single), *(g for _, g in single)), signs

    def test_all_minus_inf(self):
        for n in (1, 3):
            assert _logsumexp(np.full(n, -np.inf), np.ones(n)) == (-np.inf, 0.0)
        # a zero direction makes every log t_j -inf in both callers
        for model in (soliton_potential(SolitonProfile(2)), poly_test_model()):
            assert model.log_ray_growth(np.array([0.0]), [0.0, 0.0]).tolist() == [-np.inf]
