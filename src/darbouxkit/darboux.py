"""The explicit global Darboux coordinate map for rotation-invariant potentials.

The map sends z_j to psi_j(z) * z_j with psi_j = sqrt(Phi_j(t)), t_j = |z_j|^2.
Its pullback of the standard symplectic form equals the Kahler form of the
potential; numerically this is checked as the max-norm residual

    || J^T Omega_0 J  -  Omega_Phi(z) ||_inf

with J the full real 2n x 2n Jacobian (no diagonality shortcut).  The side
conditions that make the map a global symplectomorphism (nonnegative first
derivatives and a proper radial functional S(r) = sum_j Phi_j t_j) get their
own scans, plus a brute-force injectivity probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Sequence

import numpy as np

from .potentials import PotentialModel, radial_coords, sample_polydisc, two_form_at

__all__ = [
    "MapDomainError",
    "DarbouxMap",
    "std_symplectic",
    "unit_directions",
    "PropernessReport",
    "properness_auto_scan",
    "ProbeGrid",
    "InjectivityReport",
]


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
        if radii.ndim != 1 or len(radii) < 2 or np.any(np.diff(radii) <= 0.0) or radii[0] <= 0.0:
            raise ValueError("radii must be a strictly increasing positive sequence")
        directions = np.asarray(directions, dtype=complex)
        log_values = np.empty((len(directions), len(radii)))
        for i, d in enumerate(directions):
            if np.linalg.norm(d) == 0.0:
                raise ValueError("zero ray direction")
            for k, r in enumerate(radii):
                log_values[i, k] = self.model.log_ray_growth(log(r), d)
        return PropernessReport(
            model=self.model.name,
            threshold=float(threshold),
            radii=tuple(float(r) for r in radii),
            directions=directions,
            log_values=log_values,
        )

    def injectivity_probe(self, grid: "ProbeGrid") -> "InjectivityReport":
        """Brute-force pairwise collision scan plus a min |det J| check.

        Finding nothing certifies nothing; the report just says no
        counterexample was found on this grid.
        """
        pts = grid.points(self.n)
        images = np.array([self.map_point(z) for z in pts])
        # NaN-propagating, unlike min(): a NaN determinant anywhere fails the probe
        min_det = np.min([abs(np.linalg.det(self.jacobian(z))) for z in pts], initial=np.inf)
        collisions: list[tuple[int, int]] = []
        for i in range(len(pts)):
            dw = np.linalg.norm(images[i + 1 :] - images[i], axis=1)
            dz = np.linalg.norm(pts[i + 1 :] - pts[i], axis=1)
            hits = np.nonzero((dw < grid.collision_tol) & (dz > grid.separation))[0]
            collisions.extend((i, i + 1 + int(h)) for h in hits)
        witness = None
        if collisions:
            i, j = collisions[0]
            witness = (pts[i].tolist(), pts[j].tolist())
        return InjectivityReport(
            model=self.model.name,
            points_checked=len(pts),
            collisions=len(collisions),
            witness=witness,
            min_abs_det=float(min_det),
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

    def _jacobian_fd(self, z: np.ndarray, h: float = 1e-6) -> np.ndarray:
        n = self.n
        step = h * max(1.0, float(np.max(np.abs(z))))
        j = np.empty((2 * n, 2 * n))
        for col in range(2 * n):
            dz = np.zeros(n, dtype=complex)
            dz[col // 2] = step if col % 2 == 0 else 1j * step
            wp = self.map_point(z + dz)
            wm = self.map_point(z - dz)
            d = (wp - wm) / (2.0 * step)
            j[0::2, col] = d.real
            j[1::2, col] = d.imag
        return j


@dataclass(frozen=True)
class PropernessReport:
    """Ray-wise growth table of S(r), stored as log S."""

    model: str
    threshold: float
    radii: tuple[float, ...]
    directions: np.ndarray
    log_values: np.ndarray

    @property
    def strictly_increasing(self) -> np.ndarray:
        return np.all(np.diff(self.log_values, axis=1) > 0.0, axis=1)

    @property
    def final_log_values(self) -> np.ndarray:
        return self.log_values[:, -1]

    @property
    def ray_passed(self) -> np.ndarray:
        return self.strictly_increasing & (self.final_log_values > log(self.threshold))

    @property
    def passed(self) -> bool:
        return bool(np.all(self.ray_passed))

    def as_dict(self) -> dict:
        with np.errstate(over="ignore"):
            finals = np.exp(self.final_log_values)
        return {
            "model": self.model,
            "threshold": self.threshold,
            "radii": list(self.radii),
            "rays": len(self.directions),
            "final_values": [float(v) for v in finals],
            "strictly_increasing": [bool(v) for v in self.strictly_increasing],
            "pass": self.passed,
        }


def properness_auto_scan(
    darboux_map: DarbouxMap,
    directions: Sequence[Sequence[complex]],
    threshold: float = 1e3,
) -> PropernessReport:
    """Properness scan with an auto-extending radii ladder.

    Slowly growing functionals (logarithmic in r) need astronomically large
    radii to clear the threshold, so the ladder's top exponent is raised until
    the scan passes or the float-representable ceiling 1e250 is reached.
    """
    report = None
    for top in (8, 30, 80, 250):
        radii = np.logspace(0, top, 2 * top + 1)
        report = darboux_map.properness_scan(directions, radii, threshold)
        if report.passed:
            return report
    return report


@dataclass(frozen=True)
class ProbeGrid:
    """Point grid for the injectivity probe.

    ``ray=False`` samples the polydisc; ``ray=True`` walks the first
    coordinate axis with |z|^2 uniformly spaced (so radial folds t <-> c - t
    produce exact collisions on symmetric grids).
    """

    count: int = 1000
    radius: float = 2.0
    seed: int = 7
    ray: bool = False
    collision_tol: float = 1e-9
    separation: float = 1e-6

    def points(self, n: int) -> np.ndarray:
        if self.ray:
            t = np.linspace(0.0, self.radius**2, self.count + 1)[1:]
            pts = np.zeros((self.count, n), dtype=complex)
            pts[:, 0] = np.sqrt(t)
            return pts
        return sample_polydisc(np.random.default_rng(self.seed), self.count, n, self.radius)


@dataclass(frozen=True)
class InjectivityReport:
    model: str
    points_checked: int
    collisions: int
    witness: tuple | None
    min_abs_det: float

    @property
    def passed(self) -> bool:
        return self.collisions == 0 and self.min_abs_det > 0.0

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "points_checked": self.points_checked,
            "collisions": self.collisions,
            "witness": [[str(c) for c in w] for w in self.witness] if self.witness else None,
            "min_abs_det": self.min_abs_det,
            "pass": self.passed,
            "note": "probe only: no counterexample found" if self.passed else "counterexample found",
        }
