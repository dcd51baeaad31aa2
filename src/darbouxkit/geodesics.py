"""Geodesic integration for potential-model metrics.

On a Kahler manifold the geodesic equation closes on the holomorphic
components: with velocity v = dz/dtau,

    dv^m/dtau = - Gamma^m_ij v^i v^j,

so the integrator works directly on complex (z, v) pairs.  The scheme is
classical fourth-order Runge-Kutta with fixed steps, re-run at doubled
resolution while the relative drift of the conserved energy g(v, vbar)
exceeds its fixed bound ``_DRIFT_TOL``.

Trajectories of one model run as a batch: points and velocities are (B, n)
stacks, and each RK4 stage is one ``christoffel_at`` call over the whole
stack, whose jets carry the batch as a leading axis.  Every reduction is
written so that a row's numbers do not depend on what else is in its batch;
a single (n,) point is a batch of one.  The energy at a stored point comes
from the metric of the jet its k1 stage already takes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curvature import christoffel_at
from .potentials import PotentialModel, _energy, metric_at

__all__ = ["GeodesicTrajectory", "GeodesicDriftError", "geodesic_integrate"]

_MAX_REFINEMENTS = 4  # step doublings after the first RK4 run
_DRIFT_TOL = 1e-8  # bound on the relative energy drift of a converged run


class GeodesicDriftError(ArithmeticError):
    """The energy drift stayed above its bound after every refinement."""


@dataclass(frozen=True)
class GeodesicTrajectory:
    times: np.ndarray
    points: np.ndarray      # (samples, n) complex
    velocities: np.ndarray  # (samples, n) complex
    energies: np.ndarray
    steps: int
    converged: bool = False  # drift met _DRIFT_TOL

    @property
    def drifts(self) -> np.ndarray:
        """Relative deviation of each sample's energy from the initial one
        (absolute if the initial energy is 0)."""
        e0 = self.energies[0]
        return np.abs(self.energies - e0) / (abs(e0) if e0 != 0.0 else 1.0)

    @property
    def drift(self) -> float:
        """Max relative deviation of the energy from its initial value."""
        return float(np.max(self.drifts))

    def converged_points(self) -> np.ndarray:
        """The points; GeodesicDriftError if the drift bound was not met."""
        if not self.converged:
            raise GeodesicDriftError(f"energy drift {self.drift:.3e} unmet at {self.steps} steps")
        return self.points


def _acceleration(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -np.einsum("...mij,...i,...j->...m", gamma, v, v)


def geodesic_integrate(
    model: PotentialModel,
    z: Sequence[complex] | np.ndarray,
    v: Sequence[complex] | np.ndarray,
    length: float,
    steps: int | None = None,
) -> GeodesicTrajectory | list[GeodesicTrajectory]:
    """Integrate the geodesic from point z with velocity v for parameter time ``length``.

    A point and velocity of shape (n,) give one trajectory; (B, n) arrays give
    a list of B trajectories in row order, from one batched run (B = 0 gives
    []).  Every run starts from ``steps`` RK4 steps (default scales with
    length) and doubles the count until the energy drift falls below
    ``_DRIFT_TOL`` or the ``_MAX_REFINEMENTS`` doublings are spent; only the
    rows still above the bound run again.  Each trajectory is the last run of
    its row, with ``converged`` saying whether it met the bound.
    """
    if not 0.0 < length < np.inf:
        raise ValueError(f"length must be finite and positive, got {length!r}")
    integral = isinstance(steps, (int, np.integer)) and not isinstance(steps, bool)
    if steps is not None and not (integral and steps >= 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    z0, v0 = np.asarray(z, dtype=complex), np.asarray(v, dtype=complex)
    if z0.shape != v0.shape or z0.ndim not in (1, 2):
        raise ValueError(f"need matching (n,) or (B, n) point and velocity, got {z0.shape} and {v0.shape}")
    if z0.shape[-1] != model.n:
        raise ValueError(f"points have {z0.shape[-1]} coordinates, model {model.name} needs {model.n}")
    if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(v0))):
        raise ValueError("geodesic start point and velocity must be finite")
    single = z0.ndim == 1
    z0, v0 = np.atleast_2d(z0, v0)
    if steps is None:
        steps = max(240, int(48 * length))
    trajectories: list[GeodesicTrajectory] = [None] * len(z0)
    active = list(range(len(z0)))
    for _ in range(_MAX_REFINEMENTS + 1):
        if not active:
            break
        for k, trajectory in zip(active, _rk4_run(model, z0[active], v0[active], length, steps)):
            trajectories[k] = replace(trajectory, converged=trajectory.drift <= _DRIFT_TOL)
        active = [k for k in active if not trajectories[k].converged]
        steps *= 2
    return trajectories[0] if single else trajectories


def _rk4_run(
    model: PotentialModel, z0: np.ndarray, v0: np.ndarray, length: float, steps: int
) -> list[GeodesicTrajectory]:
    """One fixed-step RK4 run of every trajectory in the (batch, n) stack (z0, v0).

    The energy at each stored point is read from the metric of the jet that
    its k1 stage takes; the last point, which starts no step, gets its own.
    """
    h = length / steps
    z, v = z0.copy(), v0.copy()
    points = np.empty((len(z), steps + 1, z.shape[1]), dtype=complex)
    velocities = np.empty_like(points)
    energies = np.empty((len(z), steps + 1))
    points[:, 0], velocities[:, 0] = z, v
    for i in range(steps):
        gamma, g = christoffel_at(model, z, return_metric=True)
        energies[:, i] = _energy(g, v)
        k1z, k1v = v, _acceleration(gamma, v)
        k2z = v + 0.5 * h * k1v
        k2v = _acceleration(christoffel_at(model, z + 0.5 * h * k1z), k2z)
        k3z = v + 0.5 * h * k2v
        k3v = _acceleration(christoffel_at(model, z + 0.5 * h * k2z), k3z)
        k4z = v + h * k3v
        k4v = _acceleration(christoffel_at(model, z + h * k3z), k4z)
        z = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(v))):
            raise RuntimeError(f"geodesic integration blew up at step {i + 1}/{steps}")
        points[:, i + 1], velocities[:, i + 1] = z, v
    energies[:, steps] = _energy(metric_at(model, z), v)
    times = np.linspace(0.0, length, steps + 1)
    return [
        GeodesicTrajectory(times, points[k], velocities[k], energies[k], steps) for k in range(len(z))
    ]
