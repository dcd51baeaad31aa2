"""Christoffel symbols and the curvature tensor of a potential model.

For a Kahler metric only the pure-holomorphic Christoffel symbols survive:

    Gamma^m_ij = sum_l g^{m lbar} dg_{i lbar} / dz_j,

and the curvature tensor in the convention fixed here (positive on the
shipped models) is

    R_{i jbar k lbar} = - d^2 g_{i jbar} / dz_k dzbar_l
                        + sum_{p,q} g^{p qbar} (dg_{i qbar}/dz_k)(dg_{p jbar}/dzbar_l).

Both ingredients come in an analytic path (tensor assembly from one
``derivative_tensors`` jet, the potential's t-derivatives to order four,
taken once per point) and a finite-difference path
(Richardson-extrapolated Wirtinger differences of ``metric_at``), kept
independent so they can cross-validate each other.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .potentials import PotentialModel, metric_at, metric_energy, metric_from_jet, radial_coords

__all__ = [
    "christoffel_at",
    "curvature_at",
    "holomorphic_sectional",
    "metric_z_derivative",
    "curvature_symmetry_residual",
]


def _inverse_metric_conj(g: np.ndarray) -> np.ndarray:
    """Matrix with [m, l] = g^{m lbar}; equals conj(inv(G)) for Hermitian G."""
    return np.conj(np.linalg.inv(g))


def metric_z_derivative(z: Sequence[complex], jet: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor D[..., i, l, j] = d g_{i lbar} / d z_j from a ``derivative_tensors``
    jet of order >= 3 at z, over the leading batch axes of z."""
    z = np.asarray(z, dtype=complex)
    _, d2, d3 = jet[:3]
    zb = np.conj(z)
    d = np.einsum("...i,...l,...j,...ilj->...ilj", zb, z, zb, d3.astype(complex))
    idx = np.arange(z.shape[-1])
    d[..., idx, idx, :] += d2 * zb[..., None, :]
    d[..., :, idx, idx] += zb[..., :, None] * d2
    return d


def christoffel_at(
    model: PotentialModel, z: Sequence[complex], return_metric: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Gamma[..., m, i, j] at z of shape (..., n); symmetric in (i, j).

    ``return_metric`` also returns the metric G[..., j, k] that the same jet gives.
    """
    z = np.asarray(z, dtype=complex)
    jet = model.derivative_tensors(radial_coords(z), 3)
    g = metric_from_jet(z, jet)
    gamma = np.einsum("...ml,...ilj->...mij", _inverse_metric_conj(g), metric_z_derivative(z, jet))
    return (gamma, g) if return_metric else gamma


def _second_metric_derivative(z: np.ndarray, jet: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor H[i, j, k, l] = d^2 g_{i jbar} / dz_k dzbar_l, analytic path."""
    _, d2, d3, d4 = jet
    d3 = d3.astype(complex)
    zb = np.conj(z)
    idx = np.arange(len(z))
    h = np.einsum("i,j,k,l,ijkl->ijkl", zb, z, zb, z, d4.astype(complex))
    m1 = np.einsum("l,k,ikl->ikl", z, zb, d3)
    m1[:, idx, idx] += d2
    h[idx, idx, :, :] += m1
    m2 = np.einsum("i,l,ijl->ijl", zb, z, d3)
    m2[idx, :, idx] += d2
    h[:, idx, idx, :] += m2
    h[idx, :, :, idx] += np.einsum("j,k,ijk->ijk", z, zb, d3)
    h[:, :, idx, idx] += np.einsum("i,j,ijk->ijk", zb, z, d3)
    return h


def curvature_at(
    model: PotentialModel, z: Sequence[complex], method: str = "analytic"
) -> np.ndarray:
    """R[i, j, k, l] = R_{i jbar k lbar} at z.

    ``method="fd"`` replaces the metric derivatives with Richardson-
    extrapolated Wirtinger central differences of ``metric_at`` (the inverse
    metric stays exact); it exists to cross-check the analytic path.
    """
    z = np.asarray(z, dtype=complex)
    if method == "analytic":
        jet = model.derivative_tensors(radial_coords(z), 4)
        g = metric_from_jet(z, jet)
        d = metric_z_derivative(z, jet)
        h = _second_metric_derivative(z, jet)
    elif method == "fd":
        g = metric_at(model, z)
        d = _fd_metric_z_derivative(model, z)
        h = _fd_second_metric_derivative(model, z)
    else:
        raise ValueError(f"unknown curvature method {method!r}")
    ginv_c = _inverse_metric_conj(g)
    return -h + np.einsum("pq,iqk,jpl->ijkl", ginv_c, d, np.conj(d))


def holomorphic_sectional(
    model: PotentialModel, z: Sequence[complex], v: Sequence[complex]
) -> float:
    """R(v, vbar, v, vbar) / g(v, vbar)^2 at z."""
    if np.linalg.norm(v) == 0.0:
        raise ValueError("direction must be nonzero")
    r = curvature_at(model, z)
    num = np.einsum("ijkl,i,j,k,l->", r, v, np.conj(v), v, np.conj(v))
    return float(np.real(num)) / metric_energy(model, z, v) ** 2


def curvature_symmetry_residual(r: np.ndarray) -> float:
    """Max violation of the pair-exchange and conjugation symmetries of R."""
    swap_holo = np.max(np.abs(r - r.transpose(2, 1, 0, 3)))
    swap_anti = np.max(np.abs(r - r.transpose(0, 3, 2, 1)))
    conj_sym = np.max(np.abs(r - np.conj(r.transpose(1, 0, 3, 2))))
    return float(max(swap_holo, swap_anti, conj_sym))


# ---------------------------------------------------------------------------
# finite-difference path
# ---------------------------------------------------------------------------

_FD_STEP = 5e-3


def _wirtinger(
    f: Callable[[np.ndarray], np.ndarray], z: np.ndarray, k: int, h: float, bar: bool
) -> np.ndarray:
    """Central-difference d/dz_k (or d/dzbar_k) of a matrix-valued f."""
    ek = np.zeros(len(z), dtype=complex)
    ek[k] = 1.0
    fx = (f(z + h * ek) - f(z - h * ek)) / (2.0 * h)
    fy = (f(z + 1j * h * ek) - f(z - 1j * h * ek)) / (2.0 * h)
    return 0.5 * (fx + 1j * fy) if bar else 0.5 * (fx - 1j * fy)


def _richardson(evaluate: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    return (4.0 * evaluate(h / 2.0) - evaluate(h)) / 3.0


def _fd_metric_z_derivative(model: PotentialModel, z: np.ndarray) -> np.ndarray:
    n = model.n
    f = lambda w: metric_at(model, w)
    d = np.empty((n, n, n), dtype=complex)
    for j in range(n):
        d[:, :, j] = _richardson(lambda h: _wirtinger(f, z, j, h, bar=False), _FD_STEP)
    return d


def _fd_second_metric_derivative(model: PotentialModel, z: np.ndarray) -> np.ndarray:
    n = model.n
    f = lambda w: metric_at(model, w)
    h4 = np.empty((n, n, n, n), dtype=complex)

    def composite(k: int, l: int, h: float) -> np.ndarray:
        # one step size h drives both nesting levels, so the composite has a
        # clean O(h^2) leading error term and Richardson applies to the pair
        inner = lambda w: _wirtinger(f, w, k, h, bar=False)
        return _wirtinger(inner, z, l, h, bar=True)

    for k in range(n):
        for l in range(n):
            h4[:, :, k, l] = _richardson(lambda h: composite(k, l, h), _FD_STEP)
    return h4
