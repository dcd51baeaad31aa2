"""The point stack's tensor assembly against its references.

The metric, its first and second z-derivatives, the cigar jet and the
analytic Jacobian write their diagonals through strided views of arrays
they allocate in C order (two permuted diagonals through einsum's views).
The references below write the same diagonals by fancy indexing (a gather,
an add and a scatter); both add the same IEEE numbers in the same order, so
every result must equal its reference byte for byte, signed zeros included.
The other references are earlier versions of the routines that now avoid
numpy's Python-level wrappers or share one jet: the two-form, the FD
Jacobian, the curvature tail and symmetry residual, the pullback residual
with a jet of its own for J and for G, and the cigar series summed over all
rows at once.  They must agree byte for byte as well, NaN sign bits included.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from darbouxkit import (
    CigarProductPotential,
    DarbouxMap,
    PolyTestPotential,
    SolitonPotential,
    SolitonProfile,
    christoffel_at,
    curvature_at,
    curvature_symmetry_residual,
    flat_potential,
    fold_test_model,
    metric_at,
    metric_z_derivative,
    radial_coords,
    sample_polydisc,
    shipped_models,
)
from darbouxkit import curvature, darboux, potentials


def ref_metric_from_jet(z, jet):
    z = np.asarray(z, dtype=complex)
    d1, d2 = jet[:2]
    if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
        bad = ~(np.isfinite(d1) & np.isfinite(d2).all(axis=-1))
        potentials._check_domain(z, d1, bad, "potential derivatives are not finite: first derivative")
    idx = np.arange(z.shape[-1])
    g = np.zeros(d2.shape, dtype=complex)
    g[..., idx, idx] = d1
    g += np.conj(z)[..., :, None] * z[..., None, :] * d2
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def ref_metric_z_derivative(z, jet):
    z = np.asarray(z, dtype=complex)
    _, d2, d3 = jet[:3]
    zb = np.conj(z)
    a = zb[..., :, None] * z[..., None, :]
    d = a[..., :, :, None] * zb[..., None, None, :] * d3
    idx = np.arange(z.shape[-1])
    d[..., idx, idx, :] += d2 * zb[..., None, :]
    d[..., :, idx, idx] += zb[..., :, None] * d2
    return d


def ref_second_metric_derivative(z, jet):
    _, d2, d3, d4 = jet
    zb = np.conj(z)
    a = zb[..., :, None] * z[..., None, :]
    idx = np.arange(z.shape[-1])
    h = a[..., :, :, None, None] * a[..., None, None, :, :] * d4
    m1 = a[..., None, :, :] * d3
    m1[..., :, idx, idx] += d2
    h[..., idx, idx, :, :] += m1
    m2 = a[..., :, None, :] * d3
    m2.swapaxes(-2, -1)[..., idx, idx, :] += d2  # m2[..., i, :, i]
    h[..., :, idx, idx, :] += m2
    m3 = a[..., None, :, :] * d3.swapaxes(-1, -2)
    h.swapaxes(-3, -1)[..., idx, idx, :, :] += m3  # h[..., i, :, :, i]
    h[..., :, :, idx, idx] += a[..., :, :, None] * d3
    return h


def ref_cigar_tensors(model, t, order):
    t = np.asarray(t, dtype=float)
    diagonals = potentials._cigar_diagonals(t, order)
    idx = np.arange(model.n)
    out = [diagonals[0]]
    for q in range(2, order + 1):
        tensor = np.zeros(t.shape + (model.n,) * (q - 1))
        tensor[(Ellipsis,) + (idx,) * q] = diagonals[q - 1]
        out.append(tensor)
    return tuple(out)


def ref_jacobian_analytic(model, z):
    n = model.n
    d1, d2 = model.derivative_tensors(radial_coords(z), 2)
    psi = np.sqrt(d1)
    scale = d2 / (2.0 * psi[..., :, None])
    idx = np.arange(n)
    a = np.zeros(scale.shape, dtype=complex)
    a[..., idx, idx] = psi
    a += z[..., :, None] * np.conj(z)[..., None, :] * scale
    b = z[..., :, None] * z[..., None, :] * scale
    apb = a + b
    amb = a - b
    j = np.empty(z.shape[:-1] + (2 * n, 2 * n))
    j[..., 0::2, 0::2] = apb.real
    j[..., 0::2, 1::2] = -amb.imag
    j[..., 1::2, 0::2] = apb.imag
    j[..., 1::2, 1::2] = amb.real
    return j


def ref_jacobian_fd(dm, z):
    n = dm.n
    step = darboux._FD_STEP * np.fmax(1.0, np.max(np.abs(z), axis=-1))[..., None, None]
    dz = dm._fd_basis * step
    w = dm.map_point(np.concatenate([z[..., None, :] + dz, z[..., None, :] - dz], axis=-2))
    d = (w[..., : 2 * n, :] - w[..., 2 * n:, :]) / (2.0 * step)
    j = np.empty(z.shape[:-1] + (2 * n, 2 * n))
    j[..., 0::2, :] = np.swapaxes(d.real, -1, -2)
    j[..., 1::2, :] = np.swapaxes(d.imag, -1, -2)
    return j


def ref_hermitian_to_two_form(g):
    n = g.shape[-1]
    out = np.empty(g.shape[:-2] + (2 * n, 2 * n))
    re, im = g.real, g.imag
    out[..., 0::2, 0::2] = -im
    out[..., 0::2, 1::2] = re
    out[..., 1::2, 0::2] = -re
    out[..., 1::2, 1::2] = -im
    return out


def ref_pullback_residual(model, z, method):
    """J and G from a jet each, as before the Jacobian returned its metric."""
    dm = DarbouxMap(model)
    j = ref_jacobian_analytic(model, z) if method == "analytic" else ref_jacobian_fd(dm, z)
    pulled = np.swapaxes(j, -1, -2) @ dm._omega0 @ j
    omega = ref_hermitian_to_two_form(ref_metric_from_jet(z, model.derivative_tensors(radial_coords(z), 2)))
    residual = np.max(np.abs(pulled - omega), axis=(-2, -1))
    return float(residual) if z.ndim == 1 else residual


def ref_curvature(model, z, method):
    if method == "analytic":
        jet = model.derivative_tensors(radial_coords(z), 4)
        g, d, h = ref_metric_from_jet(z, jet), ref_metric_z_derivative(z, jet), ref_second_metric_derivative(z, jet)
    else:
        g, d, h = curvature._fd_metric_derivatives(model, z)
    n = z.shape[-1]
    rhs = np.swapaxes(d, -3, -2).reshape(d.shape[:-3] + (n, n * n))
    gamma = np.linalg.solve(np.conj(g), rhs).reshape(d.shape)
    return -h + np.einsum("...pik,...jpl->...ijkl", gamma, np.conj(d))


def ref_curvature_symmetry_residual(r):
    swap_holo = np.abs(r - np.swapaxes(r, -4, -2))
    swap_anti = np.abs(r - np.swapaxes(r, -3, -1))
    conj_sym = np.abs(r - np.conj(np.swapaxes(np.swapaxes(r, -4, -3), -2, -1)))
    worst = np.max(np.maximum(np.maximum(swap_holo, swap_anti), conj_sym), axis=(-4, -3, -2, -1))
    return float(worst) if worst.ndim == 0 else worst


def ref_cigar_series(ts, order):
    """The cigar series at every entry of the 1-D ts, one power table for all rows."""
    columns = potentials._CIGAR_SERIES[:, :max(order, 2)]
    return np.sum(np.power(ts[:, None, None], potentials._CIGAR_POWERS) * columns, axis=1)


def ref_fd_steps(n):
    base = np.array([1.0, 1j])[:, None, None, None] * np.eye(n)[:, None, :] * curvature._FD_SIZES[:, None]
    return np.concatenate([base, -base])


def ref_fd_basis(n):
    idx = np.arange(n)
    dz = np.zeros((2 * n, n), dtype=complex)
    dz[2 * idx, idx] = 1.0
    dz[2 * idx + 1, idx] = 1j
    return dz


def _models():
    models = shipped_models() + [SolitonPotential(SolitonProfile(4))]
    models += [flat_potential(n) for n in (1, 2, 3, 4)] + [fold_test_model()]
    return {m.name: m for m in models}


MODELS = _models()


def _points(model, seam_points) -> np.ndarray:
    """(12, n) points: four in the radius-0.2 polydisc (below the cigar seam
    t = 0.25 and, for n <= 2, the radial seam s = 0.1), the three seam
    points, the origin, and four farther out (inside the fold's domain t < 1)."""
    rng = np.random.default_rng(model.n)
    far = 0.9 if model.kind == "fold" else 5.0
    return np.concatenate([
        sample_polydisc(rng, 4, model.n, 0.2),
        seam_points(model.n),
        np.zeros((1, model.n)),
        sample_polydisc(rng, 4, model.n, far),
    ])


def _batches(pts):
    """The points one by one (batch shape ()), as (12,) and as (3, 4)."""
    return [*pts, pts, pts.reshape(3, 4, -1)]


def _layouts(batches):
    """Each batch as given, and in Fortran order when that is another layout."""
    for z in batches:
        yield z
        if z.ndim > 1:
            yield np.asfortranarray(z)


def _same_bytes(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model", list(MODELS.values()), ids=list(MODELS))
class TestViewWritesMatchReferences:
    def test_metric_and_its_derivatives(self, model, seam_points):
        for z in _batches(_points(model, seam_points)):
            jet = model.derivative_tensors(radial_coords(z), 4)
            self._check(z, jet)
            # Fortran-ordered inputs make einsum return Fortran-ordered
            # tensors; the diagonal views must write into them all the same
            self._check(np.asfortranarray(z), [np.asfortranarray(d) for d in jet])

    @staticmethod
    def _check(z, jet):
        assert _same_bytes(potentials.metric_from_jet(z, jet), ref_metric_from_jet(z, jet))
        assert _same_bytes(metric_z_derivative(z, jet), ref_metric_z_derivative(z, jet))
        assert _same_bytes(curvature._second_metric_derivative(z, jet), ref_second_metric_derivative(z, jet))

    def test_analytic_jacobian(self, model, seam_points):
        dm = DarbouxMap(model)
        for z in _batches(_points(model, seam_points)):
            assert _same_bytes(dm.jacobian(z), ref_jacobian_analytic(model, z))

    def test_jacobian_metric_pullback_and_two_form(self, model, seam_points):
        dm = DarbouxMap(model)
        for z in _layouts(_batches(_points(model, seam_points))):
            g = metric_at(model, z)
            assert _same_bytes(potentials.hermitian_to_two_form(g), ref_hermitian_to_two_form(g))
            assert _same_bytes(dm.jacobian(z, method="fd"), ref_jacobian_fd(dm, z))
            for method in ("analytic", "fd"):
                j, g_returned = dm.jacobian(z, method=method, return_metric=True)
                assert _same_bytes(g_returned, g)
                assert _same_bytes(j, dm.jacobian(z, method=method))
                got, ref = dm.pullback_residual(z, method=method), ref_pullback_residual(model, z, method)
                assert type(got) is type(ref) and _same_bytes(np.asarray(got), np.asarray(ref))

    @pytest.mark.parametrize("method", ["analytic", "fd"])
    def test_curvature_tail_and_symmetry_residual(self, model, method, seam_points):
        for z in _layouts(_batches(_points(model, seam_points))):
            r = curvature_at(model, z, method=method)
            assert _same_bytes(r, ref_curvature(model, z, method))
            got, ref = curvature_symmetry_residual(r), ref_curvature_symmetry_residual(r)
            assert type(got) is type(ref) and _same_bytes(np.asarray(got), np.asarray(ref))


def retired_metric_z_derivative(z, jet):
    """D from one four-operand product einsum, before D was broadcast from a = conj(z) (x) z."""
    _, d2, d3 = jet[:3]
    zb = np.conj(z)
    d = np.einsum("...i,...l,...j,...ilj->...ilj", zb, z, zb, d3.astype(complex))
    idx = np.arange(z.shape[-1])
    d[..., idx, idx, :] += d2 * zb[..., None, :]
    d[..., :, idx, idx] += zb[..., :, None] * d2
    return d


def retired_second_metric_derivative(z, jet):
    """H from five product einsums, before H was broadcast from a = conj(z) (x) z."""
    _, d2, d3, d4 = jet
    d3 = d3.astype(complex)
    zb = np.conj(z)
    idx = np.arange(z.shape[-1])
    h = np.einsum("...i,...j,...k,...l,...ijkl->...ijkl", zb, z, zb, z, d4.astype(complex))
    m1 = np.einsum("...l,...k,...ikl->...ikl", z, zb, d3)
    m1[..., :, idx, idx] += d2
    h[..., idx, idx, :, :] += m1
    m2 = np.einsum("...i,...l,...ijl->...ijl", zb, z, d3)
    m2.swapaxes(-2, -1)[..., idx, idx, :] += d2
    h[..., :, idx, idx, :] += m2
    h.swapaxes(-3, -1)[..., idx, idx, :, :] += np.einsum("...j,...k,...ijk->...ikj", z, zb, d3)
    h[..., :, :, idx, idx] += np.einsum("...i,...j,...ijk->...ijk", zb, z, d3)
    return h


@pytest.mark.parametrize("method", ["analytic", "fd"])
@pytest.mark.parametrize("model", list(MODELS.values()), ids=list(MODELS))
def test_agrees_with_the_retired_einsum_and_inverse_forms(model, method, seam_points):
    # D and H as product einsums and Gamma through conj(inv(G)); the forms
    # differ by roundoff in each product, bounded by the same forms on
    # absolute values (the sums of absolute products); on 40 draws of seam
    # and radius-3 points the worst ratio was 2.7 of eps times that sum
    z = seam_points(model.n)
    if method == "analytic":
        jet = model.derivative_tensors(radial_coords(z), 4)
        g, d_new, h_new = metric_at(model, z), metric_z_derivative(z, jet), curvature._second_metric_derivative(z, jet)
        d, h = retired_metric_z_derivative(z, jet), retired_second_metric_derivative(z, jet)
        abs_jet = [np.abs(t) for t in jet]
        d_abs = retired_metric_z_derivative(np.abs(z), abs_jet).real
        h_abs = retired_second_metric_derivative(np.abs(z), abs_jet).real
    else:
        g, d, h = curvature._fd_metric_derivatives(model, z)  # the FD path shares D and H
        d_new, h_new, d_abs, h_abs = d, h, np.abs(d), np.abs(h)
    ginv_c = np.conj(np.linalg.inv(g))
    gamma = np.einsum("...ml,...ilj->...mij", ginv_c, d)
    gamma_abs = np.einsum("...ml,...ilj->...mij", np.abs(ginv_c), d_abs)
    r = -h + np.einsum("...pik,...jpl->...ijkl", gamma, np.conj(d))
    r_abs = h_abs + np.einsum("...pq,...iqk,...jpl->...ijkl", np.abs(ginv_c), d_abs, d_abs)
    gamma_new = christoffel_at(model, z) if method == "analytic" else curvature._christoffel(z, g, d)
    eps = np.finfo(float).eps
    for new, old, bound in ((d_new, d, d_abs), (h_new, h, h_abs), (gamma_new, gamma, gamma_abs),
                            (curvature_at(model, z, method=method), r, r_abs)):
        assert np.all(np.abs(new - old) <= 8 * eps * bound)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_cigar_jet(n, seam_points):
    model = CigarProductPotential(n)
    for z in _batches(_points(model, seam_points)):
        t = radial_coords(z)
        for order in (1, 2, 3, 4):
            got, ref = model.derivative_tensors(t, order), ref_cigar_tensors(model, t, order)
            assert len(got) == len(ref) == order
            assert all(_same_bytes(a, b) for a, b in zip(got, ref))


class _NanBlindFlat(PolyTestPotential):
    """flat-n1 with a jet that stays finite at a non-finite t (the shipped
    models give NaN rows there, and the metric raises)."""

    def __init__(self):
        super().__init__(1, {(1,): 1.0}, label="flat")

    def derivative_tensors(self, t, order):
        return super().derivative_tensors(np.where(np.isfinite(t), t, 0.0), order)


def test_nan_rows_keep_their_bits():
    # with a jet finite at a NaN point, the metric, Jacobian and curvature
    # carry NaNs instead of raising; their sign bits must not move
    model, z = _NanBlindFlat(), np.array([[0.3], [np.nan], [np.nan + 1j], [0.1j]])
    dm = DarbouxMap(model)
    for method in ("analytic", "fd"):
        r = curvature_at(model, z, method=method)
        assert np.isnan(r).any() and _same_bytes(r, ref_curvature(model, z, method))
        assert _same_bytes(curvature_symmetry_residual(r), ref_curvature_symmetry_residual(r))
        assert _same_bytes(dm.pullback_residual(z, method=method), ref_pullback_residual(model, z, method))
    g = metric_at(model, z)
    assert _same_bytes(potentials.hermitian_to_two_form(g), ref_hermitian_to_two_form(g))


def test_cigar_series_blocks_match_one_table_and_bound_memory():
    # 7,825 cigar-n3 points: every |z_j| = 0.3 row takes the series (t = 0.09)
    # and every |z_j| = 0.6 row the closed form (t = 0.36)
    model = CigarProductPotential(3)
    rng = np.random.default_rng(3)
    phases = np.exp(2j * np.pi * rng.uniform(size=(7825, 3)))
    t = radial_coords(0.3 * phases)
    for order in (1, 2, 3, 4):
        got = potentials._cigar_diagonals(t, order)
        ref = ref_cigar_series(t.ravel(), order)
        assert all(_same_bytes(d, ref[:, p].reshape(t.shape)) for p, d in enumerate(got))
    peaks = {}
    for radius in (0.3, 0.6):
        z = radius * phases
        tracemalloc.start()
        try:
            metric_at(model, z)
            peaks[radius] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # one (23475, 48, 2) table took 8x the closed form's peak; blocks take about as much
    assert peaks[0.3] < 1.25 * peaks[0.6]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_constants_equal_their_per_call_builds(n):
    assert _same_bytes(curvature._fd_steps(n), ref_fd_steps(n))
    assert _same_bytes(DarbouxMap(flat_potential(n))._fd_basis, ref_fd_basis(n))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("slot", [0, 1])
def test_nonfinite_jet_raises_before_assembly(bad, slot):
    # the check reads the jet, so no RuntimeWarning can come first
    model = CigarProductPotential(2)
    z = np.array([[0.3, 0.1j], [0.2, 0.5], [1.0, 0.0]])
    jet = [d.copy() for d in model.derivative_tensors(radial_coords(z), 2)]
    jet[slot][1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as ref:
            ref_metric_from_jet(z, jet)
        with pytest.raises(ValueError) as got:
            potentials.metric_from_jet(z, jet)
    assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)
    assert str(got.value).startswith("potential derivatives are not finite: first derivative [")
    assert str(got.value).endswith("at z=[0.2+0.j 0.5+0.j]")
