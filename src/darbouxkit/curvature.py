"""Christoffel symbols and the curvature tensor of a potential model.

For a Kahler metric only the pure-holomorphic Christoffel symbols survive:

    Gamma^m_ij = sum_l g^{m lbar} D_ilj,   D_ilj = dg_{i lbar} / dz_j,

and the curvature tensor in the convention fixed here (positive on the
shipped models) reads the same Gamma, one contraction for both:

    R_{i jbar k lbar} = - d^2 g_{i jbar} / dz_k dzbar_l + sum_p Gamma^p_ik conj(D_jpl).

Gamma is one batched solve conj(G) Gamma = D.  D and H come in an analytic
path (a = conj(z) (x) z broadcast against one ``derivative_tensors`` jet to
order four, taken once per call) and a finite-difference path (Richardson-
extrapolated Wirtinger differences of ``metric_at``, one batched call over
every stencil point of both step sizes), kept independent so they can
cross-validate each other.  Points may carry leading batch axes, (..., n);
each point's result equals the call on that point alone, bit for bit.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .potentials import PotentialModel, _energy, metric_at, metric_from_jet, radial_coords

__all__ = [
    "christoffel_at",
    "curvature_at",
    "holomorphic_sectional",
    "metric_z_derivative",
    "curvature_symmetry_residual",
]


def metric_z_derivative(z: Sequence[complex], jet: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor D[..., i, l, j] = d g_{i lbar} / d z_j from a ``derivative_tensors``
    jet of order >= 3 at z, over the leading batch axes of z."""
    z = np.asarray(z, dtype=complex)
    _, d2, d3 = jet[:3]
    zb = np.conj(z)
    a = zb[..., :, None] * z[..., None, :]  # a[..., i, l] = conj(z_i) z_l
    d = np.multiply(a[..., None] * zb[..., None, None, :], d3, order="C")
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
    gamma = _christoffel(z, g, metric_z_derivative(z, jet))
    return (gamma, g) if return_metric else gamma


def _christoffel(z: np.ndarray, g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Gamma[..., m, i, j] = sum_l g^{m lbar} D[..., i, l, j] by one batched solve
    conj(G) Gamma = D, D's l axis first; a metric singular in floats raises a
    ValueError naming the first point of z whose own solve fails."""
    n = z.shape[-1]
    rhs = d.swapaxes(-3, -2).reshape(d.shape[:-3] + (n, n * n))
    try:
        return np.linalg.solve(np.conj(g), rhs).reshape(d.shape)
    except np.linalg.LinAlgError:
        for zk, gk, rk in zip(z.reshape(-1, n), g.reshape(-1, n, n), rhs.reshape(-1, n, n * n)):
            try:
                np.linalg.solve(np.conj(gk), rk)
            except np.linalg.LinAlgError:
                raise ValueError(f"singular metric at z={zk}") from None
        raise


def _second_metric_derivative(z: np.ndarray, jet: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor H[..., i, j, k, l] = d^2 g_{i jbar} / dz_k dzbar_l, analytic path,
    over the leading batch axes of z."""
    _, d2, d3, d4 = jet
    a = np.conj(z)[..., :, None] * z[..., None, :]  # a[..., i, l] = conj(z_i) z_l
    n, batch = z.shape[-1], z.shape[:-1]
    # C order makes the reshapes of h and m1 views; the two permuted diagonals use einsum's
    h = np.multiply(a[..., :, :, None, None] * a[..., None, None, :, :], d4, order="C")
    m1 = np.multiply(a[..., None, :, :], d3, order="C")  # conj(z_k) z_l d3[i, k, l]
    m1.reshape(batch + (n, n * n))[..., :: n + 1] += d2  # m1[..., i, k, k]
    h.reshape(batch + (n * n, n, n))[..., :: n + 1, :, :] += m1  # h[..., i, i, :, :]
    m2 = a[..., :, None, :] * d3  # conj(z_i) z_l d3[i, j, l]
    np.einsum("...iji->...ij", m2)[...] += d2
    h.reshape(batch + (n, n * n, n))[..., :: n + 1, :] += m2  # h[..., :, j, j, :]
    np.einsum("...ikji->...ijk", h)[...] += a[..., None, :, :] * d3.swapaxes(-1, -2)  # h[..., i, k, j, i]
    h.reshape(batch + (n, n, n * n))[..., :: n + 1] += a[..., :, :, None] * d3  # conj(z_i) z_j d3[i, j, k]
    return h


def curvature_at(
    model: PotentialModel, z: Sequence[complex], method: str = "analytic"
) -> np.ndarray:
    """R[..., i, j, k, l] = R_{i jbar k lbar} at z of shape (..., n):
    -H_ijkl + sum_p Gamma^p_ik conj(D_jpl), with the Gamma of ``christoffel_at``.

    D and H are broadcast from a = conj(z) (x) z; Gamma is one solve against conj(G).
    ``method="fd"`` replaces the metric derivatives with Richardson-
    extrapolated Wirtinger central differences of ``metric_at`` (the solve
    against the metric stays exact); it exists to cross-check the analytic
    path.  Each point's tensor equals the call on that point alone, bit for bit.
    """
    z = np.asarray(z, dtype=complex)
    if method == "analytic":
        jet = model.derivative_tensors(radial_coords(z), 4)
        g, d, h = metric_from_jet(z, jet), metric_z_derivative(z, jet), _second_metric_derivative(z, jet)
    elif method == "fd":
        g, d, h = _fd_metric_derivatives(model, z)
    else:
        raise ValueError(f"unknown curvature method {method!r}")
    quad = np.einsum("...pik,...jpl->...ijkl", _christoffel(z, g, d), np.conj(d), order="C")
    # -h + quad in place, in that operand order, so even a NaN keeps its sign bit
    return np.add(np.negative(h, out=h), quad, out=quad)


def holomorphic_sectional(
    model: PotentialModel, z: Sequence[complex], v: Sequence[complex]
) -> float:
    """R(v, vbar, v, vbar) / g(v, vbar)^2 at z."""
    if np.linalg.norm(v) == 0.0:
        raise ValueError("direction must be nonzero")
    return _sectional(curvature_at(model, z), metric_at(model, z), np.asarray(v, dtype=complex))


def _sectional(r: np.ndarray, g: np.ndarray, v: np.ndarray) -> float:
    """R(v, vbar, v, vbar) / g(v, vbar)^2 from one point's curvature tensor r
    and metric g, in numpy scalars: a g(v, vbar)^2 that underflows gives inf
    or NaN under numpy's error state, not ZeroDivisionError."""
    num = np.einsum("ijkl,i,j,k,l->", r, v, np.conj(v), v, np.conj(v))
    return float(np.real(num) / _energy(g, v) ** 2)


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
    rows = [z[..., None, :], first.reshape(batch + (8 * n, n)), second.reshape(batch + (32 * n * n, n))]
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
