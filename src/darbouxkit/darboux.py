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

from .potentials import PotentialModel, radial_coords, two_form_at

__all__ = [
    "MapDomainError",
    "DarbouxMap",
    "std_symplectic",
    "unit_directions",
    "PropernessReport",
    "properness_auto_scan",
]


_FD_STEP = 1e-6  # relative central-difference step of the FD Jacobian


class MapDomainError(ValueError):
    """A first derivative Phi_j is negative (or zero where 1/psi is needed)."""


def std_symplectic(n: int) -> np.ndarray:
    """Matrix of the standard form: block-diagonal [[0, 1], [-1, 0]] blocks."""
    omega = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    omega[2 * idx, 2 * idx + 1] = 1.0
    omega[2 * idx + 1, 2 * idx] = -1.0
    return omega


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

    @property
    def n(self) -> int:
        return self.model.n

    def map_point(self, z: Sequence[complex]) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        d1 = self.model.first_derivs(radial_coords(z))
        if np.any(d1 < 0.0):
            raise MapDomainError(f"negative first derivative {d1} at z={z}")
        return np.sqrt(d1) * z

    def jacobian(self, z: Sequence[complex], method: str = "analytic") -> np.ndarray:
        """Real 2n x 2n Jacobian in interleaved (x_1, y_1, ...) ordering."""
        if method == "analytic":
            return self._jacobian_analytic(np.asarray(z, dtype=complex))
        if method == "fd":
            return self._jacobian_fd(np.asarray(z, dtype=complex))
        raise ValueError(f"unknown jacobian method {method!r}")

    def pullback_residual(self, z: Sequence[complex], method: str = "analytic") -> float:
        """max-norm of J^T Omega_0 J - Omega_Phi at z."""
        j = self.jacobian(z, method=method)
        omega0 = std_symplectic(self.n)
        return float(np.max(np.abs(j.T @ omega0 @ j - two_form_at(self.model, z))))

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

    def _jacobian_analytic(self, z: np.ndarray) -> np.ndarray:
        t = radial_coords(z)
        d1, d2 = self.model.derivative_tensors(t, 2)
        if np.any(d1 <= 0.0):
            raise MapDomainError(f"nonpositive first derivative {d1} at z={z}")
        psi = np.sqrt(d1)
        # Wirtinger blocks: A = dw/dz, B = dw/dzbar; the z_j prefactor makes
        # both terms finite at z_j = 0 with no special-casing.
        scale = d2 / (2.0 * psi[:, None])
        a = np.diag(psi).astype(complex) + np.outer(z, np.conj(z)) * scale
        b = np.outer(z, z) * scale
        apb = a + b
        amb = a - b
        n = self.n
        j = np.empty((2 * n, 2 * n))
        j[0::2, 0::2] = apb.real
        j[0::2, 1::2] = -amb.imag
        j[1::2, 0::2] = apb.imag
        j[1::2, 1::2] = amb.real
        return j

    def _jacobian_fd(self, z: np.ndarray) -> np.ndarray:
        """Central differences of ``map_point``, all 4n points in one batched call."""
        n = self.n
        step = _FD_STEP * max(1.0, float(np.max(np.abs(z))))
        # row col moves x (col even) or y (col odd) of z_{col // 2}
        dz = np.kron(np.eye(n), [[step], [1j * step]])
        w = self.map_point(np.concatenate([z + dz, z - dz]))
        d = (w[: 2 * n] - w[2 * n:]) / (2.0 * step)
        j = np.empty((2 * n, 2 * n))
        j[0::2] = d.real.T
        j[1::2] = d.imag.T
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
    report = None
    for top in (8, 30, 80, 250):
        radii = np.logspace(0, top, 2 * top + 1)
        if report is None:
            report = darboux_map.properness_scan(directions, radii, threshold)
        else:
            rung = darboux_map.properness_scan(directions, radii[len(report.radii):], threshold)
            report = replace(
                report,
                radii=report.radii + rung.radii,
                log_values=np.concatenate([report.log_values, rung.log_values], axis=1),
            )
        if report.passed:
            return report
    return report
