"""The point stack's tensor assembly against its fancy-index references.

The metric, its first and second z-derivatives, the cigar jet and the
analytic Jacobian write their diagonals through einsum's writeable views.
The references below write the same diagonals by fancy indexing (a gather,
an add and a scatter), which is how the library wrote them before; both add
the same IEEE numbers in the same order, so every result must equal its
reference byte for byte, signed zeros included.
"""

import warnings

import numpy as np
import pytest

from darbouxkit import (
    CigarProductPotential,
    DarbouxMap,
    SolitonPotential,
    SolitonProfile,
    flat_potential,
    fold_test_model,
    metric_z_derivative,
    radial_coords,
    sample_polydisc,
    shipped_models,
)
from darbouxkit import curvature, potentials


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
    d = np.einsum("...i,...l,...j,...ilj->...ilj", zb, z, zb, d3.astype(complex))
    idx = np.arange(z.shape[-1])
    d[..., idx, idx, :] += d2 * zb[..., None, :]
    d[..., :, idx, idx] += zb[..., :, None] * d2
    return d


def ref_second_metric_derivative(z, jet):
    _, d2, d3, d4 = jet
    d3 = d3.astype(complex)
    zb = np.conj(z)
    idx = np.arange(z.shape[-1])
    h = np.einsum("...i,...j,...k,...l,...ijkl->...ijkl", zb, z, zb, z, d4.astype(complex))
    m1 = np.einsum("...l,...k,...ikl->...ikl", z, zb, d3)
    m1[..., :, idx, idx] += d2
    h[..., idx, idx, :, :] += m1
    m2 = np.einsum("...i,...l,...ijl->...ijl", zb, z, d3)
    m2.swapaxes(-2, -1)[..., idx, idx, :] += d2  # m2[..., i, :, i]
    h[..., :, idx, idx, :] += m2
    m3 = np.einsum("...j,...k,...ijk->...ikj", z, zb, d3)
    h.swapaxes(-3, -1)[..., idx, idx, :, :] += m3  # h[..., i, :, :, i]
    h[..., :, :, idx, idx] += np.einsum("...i,...j,...ijk->...ijk", zb, z, d3)
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


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_cigar_jet(n, seam_points):
    model = CigarProductPotential(n)
    for z in _batches(_points(model, seam_points)):
        t = radial_coords(z)
        for order in (1, 2, 3, 4):
            got, ref = model.derivative_tensors(t, order), ref_cigar_tensors(model, t, order)
            assert len(got) == len(ref) == order
            assert all(_same_bytes(a, b) for a, b in zip(got, ref))


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
