"""Christoffel symbols and the curvature tensor of a potential model.

For a Kahler metric only the pure-holomorphic Christoffel symbols survive:

    Gamma^m_ij = sum_l g^{m lbar} dg_{i lbar} / dz_j,

and the curvature tensor in the convention fixed here (positive on the
shipped models) is

    R_{i jbar k lbar} = - d^2 g_{i jbar} / dz_k dzbar_l
                        + sum_{p,q} g^{p qbar} (dg_{i qbar}/dz_k)(dg_{p jbar}/dzbar_l).

Both ingredients come in an analytic path (tensor assembly from one
``derivative_tensors`` jet, the potential's t-derivatives to order four,
taken once per call) and a finite-difference path
(Richardson-extrapolated Wirtinger differences of ``metric_at``, one batched
call over every stencil point of both step sizes), kept independent so they
can cross-validate each other.  Points may carry leading batch axes, (..., n);
each point's result equals the call on that point alone, bit for bit.
"""

from __future__ import annotations

import functools
from typing import Sequence

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
    d = np.einsum("...i,...l,...j,...ilj->...ilj", zb, z, zb, d3.astype(complex), order="C")
    # diagonals through strided views of d, which C order makes views, not copies
    n, batch = z.shape[-1], d.shape[:-3]
    d.reshape(batch + (n * n, n))[..., :: n + 1, :] += d2 * zb[..., None, :]  # d[..., i, i, :]
    d.reshape(batch + (n, n * n))[..., :: n + 1] += zb[..., :, None] * d2  # d[..., :, j, j]
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
    """Tensor H[..., i, j, k, l] = d^2 g_{i jbar} / dz_k dzbar_l, analytic path,
    over the leading batch axes of z."""
    _, d2, d3, d4 = jet
    d3 = d3.astype(complex)
    zb = np.conj(z)
    n, batch = z.shape[-1], z.shape[:-1]
    # C order makes the reshapes of h and m1 views; the two permuted diagonals use einsum's
    h = np.einsum("...i,...j,...k,...l,...ijkl->...ijkl", zb, z, zb, z, d4.astype(complex), order="C")
    m1 = np.einsum("...l,...k,...ikl->...ikl", z, zb, d3, order="C")
    m1.reshape(batch + (n, n * n))[..., :: n + 1] += d2  # m1[..., i, k, k]
    h.reshape(batch + (n * n, n, n))[..., :: n + 1, :, :] += m1  # h[..., i, i, :, :]
    m2 = np.einsum("...i,...l,...ijl->...ijl", zb, z, d3)
    np.einsum("...iji->...ij", m2)[...] += d2
    h.reshape(batch + (n, n * n, n))[..., :: n + 1, :] += m2  # h[..., :, j, j, :]
    m3 = np.einsum("...j,...k,...ijk->...ikj", z, zb, d3)
    np.einsum("...ikji->...ijk", h)[...] += m3  # h[..., i, k, j, i] += m3[..., i, j, k]
    h.reshape(batch + (n, n, n * n))[..., :: n + 1] += np.einsum("...i,...j,...ijk->...ijk", zb, z, d3)
    return h


def curvature_at(
    model: PotentialModel, z: Sequence[complex], method: str = "analytic"
) -> np.ndarray:
    """R[..., i, j, k, l] = R_{i jbar k lbar} at z of shape (..., n).

    ``method="fd"`` replaces the metric derivatives with Richardson-
    extrapolated Wirtinger central differences of ``metric_at`` (the inverse
    metric stays exact); it exists to cross-check the analytic path.  Each
    point's tensor equals the call on that point alone, bit for bit.
    """
    z = np.asarray(z, dtype=complex)
    if method == "analytic":
        jet = model.derivative_tensors(radial_coords(z), 4)
        g = metric_from_jet(z, jet)
        d = metric_z_derivative(z, jet)
        h = _second_metric_derivative(z, jet)
    elif method == "fd":
        g, d, h = _fd_metric_derivatives(model, z)
    else:
        raise ValueError(f"unknown curvature method {method!r}")
    ginv_c = _inverse_metric_conj(g)
    # one einsum per point: its summation order over p, q can follow the batch
    # shape; each result is copied into its row (einsum's out= rounds differently)
    n = z.shape[-1]
    quad = np.empty(h.shape, dtype=complex)
    for qi, gi, di in zip(quad.reshape(-1, n, n, n, n), ginv_c.reshape(-1, n, n), d.reshape(-1, n, n, n)):
        qi[...] = np.einsum("pq,iqk,jpl->ijkl", gi, di, np.conj(di))
    # -h + quad in place, in that operand order, so even a NaN keeps its sign bit
    return np.add(np.negative(h, out=h), quad, out=quad)


def holomorphic_sectional(
    model: PotentialModel, z: Sequence[complex], v: Sequence[complex]
) -> float:
    """R(v, vbar, v, vbar) / g(v, vbar)^2 at z."""
    if np.linalg.norm(v) == 0.0:
        raise ValueError("direction must be nonzero")
    r = curvature_at(model, z)
    num = np.einsum("ijkl,i,j,k,l->", r, v, np.conj(v), v, np.conj(v))
    return float(np.real(num)) / metric_energy(model, z, v) ** 2


def curvature_symmetry_residual(r: np.ndarray) -> float | np.ndarray:
    """Max violation of the pair-exchange and conjugation symmetries of R: a
    float for one tensor, one value per tensor of a (..., n, n, n, n) stack."""
    swap_holo = np.abs(r - r.swapaxes(-4, -2))
    swap_anti = np.abs(r - r.swapaxes(-3, -1))
    conj_sym = np.abs(r - np.conj(r.swapaxes(-4, -3).swapaxes(-2, -1)))
    worst = np.maximum.reduce(np.maximum(np.maximum(swap_holo, swap_anti), conj_sym), axis=(-4, -3, -2, -1))
    return float(worst) if worst.ndim == 0 else worst


# ---------------------------------------------------------------------------
# finite-difference path
# ---------------------------------------------------------------------------

_FD_STEP = 5e-3
_FD_SIZES = np.array([_FD_STEP / 2.0, _FD_STEP])  # the Richardson pair h/2, h


def _wirtinger(f: np.ndarray, bar: bool) -> np.ndarray:
    """Central-difference d/dz_k (or d/dzbar_k) from values f[q, ..., size] at
    the steps q = (+h e_k, +ih e_k, -h e_k, -ih e_k), h = _FD_SIZES[size]."""
    fx = (f[0] - f[2]) / (2.0 * _FD_SIZES)
    fy = (f[1] - f[3]) / (2.0 * _FD_SIZES)
    return 0.5 * (fx + 1j * fy) if bar else 0.5 * (fx - 1j * fy)


@functools.lru_cache(maxsize=None)
def _fd_steps(n: int) -> np.ndarray:
    """Read-only stencil steps [q, k, size, :] = (h, ih, -h, -ih)[q] e_k, h = _FD_SIZES[size]."""
    base = np.array([1.0, 1j])[:, None, None, None] * np.eye(n)[:, None, :] * _FD_SIZES[:, None]
    steps = np.concatenate([base, -base])
    steps.flags.writeable = False
    return steps


def _fd_metric_derivatives(
    model: PotentialModel, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, D, H) at z of shape (..., n): the metric, and Richardson-extrapolated
    Wirtinger differences D[..., i, l, j] = d g_{i lbar} / dz_j and
    H[..., i, j, k, l] = d^2 g_{i jbar} / dz_k dzbar_l, from one batched
    ``metric_at`` call over each point and every stencil point of both step sizes.
    """
    n = z.shape[-1]
    batch = z.shape[:-1]
    nb = len(batch)
    steps = _fd_steps(n)
    first = z[..., None, None, None, :] + steps
    # one step size drives both nesting levels, so the composite has a clean
    # O(h^2) leading error term; points nest as (z + s_l) + s_k, outer step first
    second = first[..., :, None, :, None, :, :] + steps[:, None]  # [..., ql, qk, l, k, size, :]
    rows = [z[..., None, :], first.reshape(batch + (-1, n)), second.reshape(batch + (-1, n))]
    g = metric_at(model, np.concatenate(rows, axis=-2))
    # q axes to the front and the step size last: [q, ..., k, i, j, size]
    g1 = g[..., 1:1 + 8 * n, :, :].reshape(batch + (4, n, 2, n, n))
    g1 = np.moveaxis(g1, (nb, nb + 2), (0, -1))
    g2 = g[..., 1 + 8 * n:, :, :].reshape(batch + (4, 4, n, n, 2, n, n))
    g2 = np.moveaxis(g2, (nb + 1, nb, nb + 4), (0, 1, -1))  # [qk, ql, ..., l, k, i, j, size]
    e1 = _wirtinger(g1, bar=False)  # [..., k, i, j, size]
    e2 = _wirtinger(_wirtinger(g2, bar=False), bar=True)  # [..., l, k, i, j, size]
    d = (4.0 * e1[..., 0] - e1[..., 1]) / 3.0
    h = (4.0 * e2[..., 0] - e2[..., 1]) / 3.0
    return g[..., 0, :, :], np.moveaxis(d, -3, -1), np.moveaxis(h, (-4, -3), (-1, -2))
