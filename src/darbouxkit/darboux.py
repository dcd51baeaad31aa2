"""The explicit global Darboux coordinate map for rotation-invariant potentials.

The map sends z_j to psi_j(z) * z_j with psi_j = sqrt(Phi_j(t)), t_j = |z_j|^2.
Its pullback of the standard symplectic form equals the Kahler form of the
potential; numerically this is checked as the max-norm residual

    || J^T Omega_0 J  -  Omega_Phi(z) ||_inf

with J the full real 2n x 2n Jacobian (no diagonality shortcut).  The side
conditions that make the map a global symplectomorphism (nonnegative first
derivatives and a proper radial functional S(r) = sum_j Phi_j t_j) get their
own scans.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log
from typing import Sequence

import numpy as np

from .potentials import (PotentialModel, _check_domain, hermitian_to_two_form, metric_at, metric_from_jet,
                         radial_coords)

__all__ = [
    "MapDomainError",
    "DarbouxMap",
    "unit_directions",
    "PropernessReport",
    "properness_auto_scan",
]


_FD_STEP = 1e-6  # relative central-difference step of the FD Jacobian


class MapDomainError(ValueError):
    """A first derivative Phi_j is negative (or zero where 1/psi is needed)."""


def unit_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n) unit vectors: coordinate axes first, then random complex."""
    dirs = np.zeros((count, n), dtype=complex)
    for i in range(min(n, count)):
        dirs[i, i] = 1.0
    for i in range(min(n, count), count):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dirs[i] = v / np.linalg.norm(v)
    return dirs


@dataclass(frozen=True)
class DarbouxMap:
    """Coordinate change w_j = sqrt(Phi_j) z_j for a fixed potential model."""

    model: PotentialModel

    def __post_init__(self) -> None:
        # per-n constants read by every call, built once and read-only; not
        # fields, so ==, hash, repr and replace see the model alone
        eye = np.eye(self.n)
        omega0 = np.zeros((2 * self.n, 2 * self.n))  # the standard form, [[0, 1], [-1, 0]] blocks
        omega0[0::2, 1::2] = eye
        omega0[1::2, 0::2] -= eye  # -= keeps the zeros +0.0
        fd_basis = np.kron(eye, [[1.0], [1j]])  # FD steps: row 2k moves x_k, row 2k + 1 moves y_k
        for name, value in (("_omega0", omega0), ("_fd_basis", fd_basis)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.model.n

    def map_point(self, z: Sequence[complex]) -> np.ndarray:
        """w = sqrt(Phi_j) z_j at z of shape (..., n); a negative Phi_j raises
        ``MapDomainError`` naming the first such point."""
        z = np.asarray(z, dtype=complex)
        d1 = self.model.derivative_tensors(radial_coords(z), 1)[0]
        _check_domain(z, d1, d1 < 0.0, "negative first derivative", MapDomainError)
        return np.sqrt(d1) * z

    def jacobian(self, z: Sequence[complex], method: str = "analytic",
                 return_metric: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Real 2n x 2n Jacobian in interleaved (x_1, y_1, ...) ordering, one per
        point of z of shape (..., n); ``return_metric`` also returns ``metric_at``'s
        G[..., j, k], which the analytic path assembles from the Jacobian's own jet."""
        z = np.asarray(z, dtype=complex)
        if method == "analytic":
            jet = self.model.derivative_tensors(radial_coords(z), 2)
            j = self._jacobian_analytic(z, jet)
            g = metric_from_jet(z, jet) if return_metric else None
        elif method == "fd":
            j = self._jacobian_fd(z)
            g = metric_at(self.model, z) if return_metric else None
        else:
            raise ValueError(f"unknown jacobian method {method!r}")
        return (j, g) if return_metric else j

    def pullback_residual(self, z: Sequence[complex], method: str = "analytic") -> float | np.ndarray:
        """max-norm of J^T Omega_0 J - Omega_Phi at z of shape (..., n): a float
        when z is one point, else an array of shape z.shape[:-1].

        Each row equals the call on that point alone, bit for bit: the stacked
        ``@`` runs one gemm per (2n, 2n) slice, and the max is exact.
        """
        z = np.asarray(z, dtype=complex)
        j, g = self.jacobian(z, method=method, return_metric=True)
        pulled = j.swapaxes(-1, -2) @ self._omega0 @ j
        residual = np.maximum.reduce(np.abs(pulled - hermitian_to_two_form(g)), axis=(-2, -1))
        return float(residual) if z.ndim == 1 else residual

    def properness_scan(
        self,
        directions: Sequence[Sequence[complex]],
        radii: Sequence[float],
        threshold: float = 1e3,
    ) -> "PropernessReport":
        """Evaluate S(r) = sum_j Phi_j t_j along rays z = r * direction.

        A ray passes when the values are strictly increasing along the radii
        and the final one exceeds the threshold.  Evaluation runs in the log
        domain so radii far beyond floating range of r^2 are usable.
        """
        radii = np.asarray(radii, dtype=float)
        if (
            radii.ndim != 1
            or len(radii) < 2
            or not np.all(np.isfinite(radii))
            or np.any(np.diff(radii) <= 0.0)
            or radii[0] <= 0.0
        ):
            raise ValueError("radii must be a strictly increasing finite positive sequence")
        directions = np.asarray(directions, dtype=complex)
        if not np.all(np.isfinite(directions)):
            raise ValueError("ray directions must be finite")
        # math.log per radius: numpy's array log can round differently in the last bit
        log_radii = np.array([log(r) for r in radii.tolist()])
        log_values = np.empty((len(directions), len(radii)))
        for i, d in enumerate(directions):
            if np.linalg.norm(d) == 0.0:
                raise ValueError("zero ray direction")
            log_values[i] = self.model.log_ray_growth(log_radii, d)
        return PropernessReport(
            threshold=float(threshold),
            radii=tuple(float(r) for r in radii),
            log_values=log_values,
        )

    # -- internals -------------------------------------------------------------

    def _jacobian_analytic(self, z: np.ndarray, jet: Sequence[np.ndarray]) -> np.ndarray:
        n, (d1, d2) = self.n, jet
        _check_domain(z, d1, d1 <= 0.0, "nonpositive first derivative", MapDomainError)
        psi = np.sqrt(d1)
        # Wirtinger blocks: A = dw/dz, B = dw/dzbar; the z_j prefactor makes
        # both terms finite at z_j = 0 with no special-casing.
        scale = d2 / (2.0 * psi[..., :, None])
        a = np.zeros(scale.shape, dtype=complex)  # C order, so reshape gives a view
        a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1] = psi
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

    def _jacobian_fd(self, z: np.ndarray) -> np.ndarray:
        """Central differences of ``map_point``: the 4n stencil points of every
        point of z in one batched call."""
        n = self.n
        # fmax, like Python's max(1.0, x), gives 1.0 for a NaN x
        step = _FD_STEP * np.fmax(1.0, np.maximum.reduce(np.abs(z), axis=-1))[..., None, None]
        dz = self._fd_basis * step
        w = self.map_point(np.concatenate([z[..., None, :] + dz, z[..., None, :] - dz], axis=-2))
        d = (w[..., : 2 * n, :] - w[..., 2 * n:, :]) / (2.0 * step)
        j = np.empty(z.shape[:-1] + (2 * n, 2 * n))
        j[..., 0::2, :] = d.real.swapaxes(-1, -2)
        j[..., 1::2, :] = d.imag.swapaxes(-1, -2)
        return j


@dataclass(frozen=True)
class PropernessReport:
    """Ray-wise growth table of S(r), stored as log S."""

    threshold: float
    radii: tuple[float, ...]
    log_values: np.ndarray

    @property
    def strictly_increasing(self) -> np.ndarray:
        # neighbours compared, not differenced: -inf - (-inf) would warn
        return np.all(self.log_values[:, 1:] > self.log_values[:, :-1], axis=1)

    @property
    def final_log_values(self) -> np.ndarray:
        return self.log_values[:, -1]

    @property
    def ray_passed(self) -> np.ndarray:
        return self.strictly_increasing & (self.final_log_values > log(self.threshold))

    @property
    def passed(self) -> bool:
        return bool(np.all(self.ray_passed))


def properness_auto_scan(
    darboux_map: DarbouxMap,
    directions: Sequence[Sequence[complex]],
    threshold: float = 1e3,
) -> PropernessReport:
    """Properness scan with an auto-extending radii ladder.

    Slowly growing functionals (logarithmic in r) need astronomically large
    radii to clear the threshold, so the ladder's top exponent is raised until
    the scan passes or the float-representable ceiling 1e250 is reached.  The
    rungs' half-decade grids are nested, so each rung scans only the radii
    above the previous one and extends its table.
    """
    report = PropernessReport(float(threshold), (), np.empty((len(directions), 0)))
    for top in (8, 30, 80, 250):
        radii = np.logspace(0, top, 2 * top + 1)
        rung = darboux_map.properness_scan(directions, radii[len(report.radii):], threshold)
        report = replace(
            report,
            radii=report.radii + rung.radii,
            log_values=np.concatenate([report.log_values, rung.log_values], axis=1),
        )
        if report.passed:
            break
    return report
