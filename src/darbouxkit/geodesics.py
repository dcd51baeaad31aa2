"""Geodesic integration for potential-model metrics.

On a Kahler manifold the geodesic equation closes on the holomorphic
components: with velocity v = dz/dtau,

    dv^m/dtau = - Gamma^m_ij v^i v^j,

so the integrator works directly on complex (z, v) pairs.  The scheme is
classical fourth-order Runge-Kutta with fixed steps, re-run at doubled
resolution while the relative drift of the conserved energy g(v, vbar)
exceeds the requested bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curvature import christoffel_at
from .potentials import PotentialModel, metric_energy

__all__ = ["GeodesicState", "GeodesicTrajectory", "GeodesicDriftError", "geodesic_integrate"]

_MAX_REFINEMENTS = 4  # step doublings after the first RK4 run


class GeodesicDriftError(ArithmeticError):
    """The energy drift stayed above its bound after every refinement."""


@dataclass(frozen=True)
class GeodesicState:
    """Initial point and complex velocity."""

    z: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=complex))
        if self.z.shape != self.v.shape or self.z.ndim != 1:
            raise ValueError("state needs matching 1-d point and velocity")


@dataclass(frozen=True)
class GeodesicTrajectory:
    times: np.ndarray
    points: np.ndarray      # (samples, n) complex
    velocities: np.ndarray  # (samples, n) complex
    energies: np.ndarray
    steps: int
    converged: bool = False  # drift met the drift_tol of geodesic_integrate

    @property
    def drift(self) -> float:
        """Max relative deviation of the energy from its initial value."""
        e0 = self.energies[0]
        if e0 == 0.0:
            return float(np.max(np.abs(self.energies)))
        return float(np.max(np.abs(self.energies - e0)) / abs(e0))

    def converged_points(self) -> np.ndarray:
        """The points; GeodesicDriftError if the drift bound was not met."""
        if not self.converged:
            raise GeodesicDriftError(f"energy drift {self.drift:.3e} unmet at {self.steps} steps")
        return self.points


def _acceleration(model: PotentialModel, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    gamma = christoffel_at(model, z)
    return -np.einsum("mij,i,j->m", gamma, v, v)


def geodesic_integrate(
    model: PotentialModel,
    state: GeodesicState,
    length: float,
    steps: int | None = None,
    drift_tol: float = 1e-8,
) -> GeodesicTrajectory:
    """Integrate the geodesic through ``state`` for parameter time ``length``.

    Starts from ``steps`` RK4 steps (default scales with length) and doubles
    the count until the energy drift falls below ``drift_tol`` or the
    ``_MAX_REFINEMENTS`` doublings are spent; the last trajectory is returned
    either way, with ``converged`` saying which.
    """
    if length <= 0.0:
        raise ValueError("length must be positive")
    if steps is None:
        steps = max(240, int(48 * length))
    trajectory = None
    for _ in range(_MAX_REFINEMENTS + 1):
        trajectory = _rk4_run(model, state, length, steps)
        if trajectory.drift <= drift_tol:
            return replace(trajectory, converged=True)
        steps *= 2
    return trajectory


def _rk4_run(
    model: PotentialModel, state: GeodesicState, length: float, steps: int
) -> GeodesicTrajectory:
    n = len(state.z)
    h = length / steps
    z = state.z.copy()
    v = state.v.copy()
    points = np.empty((steps + 1, n), dtype=complex)
    velocities = np.empty((steps + 1, n), dtype=complex)
    points[0], velocities[0] = z, v
    for i in range(steps):
        k1z, k1v = v, _acceleration(model, z, v)
        k2z, k2v = v + 0.5 * h * k1v, _acceleration(model, z + 0.5 * h * k1z, v + 0.5 * h * k1v)
        k3z, k3v = v + 0.5 * h * k2v, _acceleration(model, z + 0.5 * h * k2z, v + 0.5 * h * k2v)
        k4z, k4v = v + h * k3v, _acceleration(model, z + h * k3z, v + h * k3v)
        z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
            raise RuntimeError(f"geodesic integration blew up at step {i + 1}/{steps}")
        points[i + 1], velocities[i + 1] = z, v
    energies = np.array([metric_energy(model, z, v) for z, v in zip(points, velocities)])
    times = np.linspace(0.0, length, steps + 1)
    return GeodesicTrajectory(times, points, velocities, energies, steps)
