"""Geodesic integration for potential-model metrics.

On a Kahler manifold the geodesic equation closes on the holomorphic
components: with velocity v = dz/dtau,

    dv^m/dtau = - Gamma^m_ij v^i v^j,

so the integrator works directly on complex (z, v) pairs.  The scheme is the
Dormand-Prince 8(5,3) method (DOP853; Hairer, Norsett & Wanner, Solving
Ordinary Differential Equations I, section II.10) with fixed steps, re-run at
doubled resolution while the relative drift of the conserved energy
g(v, vbar) exceeds ``_DRIFT_TOL`` or the summed embedded estimate of the
position error exceeds ``_POSITION_TOL`` (relative to the largest |z_j|, or
absolute below 1).

Trajectories of one model run as a batch: points and velocities are (B, n)
stacks, and each stage is one ``christoffel_at`` call over the whole stack,
whose jets carry the batch as a leading axis.  Every stage sum adds its
terms elementwise in a fixed order, so a row's numbers do not depend on what
else is in its batch; a single (n,) point is a batch of one.  A step's last
evaluation, at its new point, is the next step's first stage, and the metric
of its jet gives the energy at that point; the run's last point needs only
``metric_at``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .curvature import christoffel_at
from .potentials import PotentialModel, _check_domain, _energy, metric_at, metric_energy

__all__ = ["GeodesicTrajectory", "GeodesicDriftError", "geodesic_integrate"]

_MAX_REFINEMENTS = 4  # step doublings after the first run
_DRIFT_TOL = 1e-8  # bound on the relative energy drift of a converged run
_POSITION_TOL = 1e-9  # bound on the position error estimate, relative to max(1, max |z_j|)

# The DOP853 tableau, as in scipy's integrate/_ivp/dop853_coefficients.py:
# row s - 1 of _A gives stage s from stages 0..s-1, _B the eighth-order
# update, and _E5, _E3 the fifth- and third-order error estimates (their
# weight on the step's last evaluation is 0).  The system is autonomous, so
# the nodes are not needed.
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
     0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
      0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
       -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
       -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)


class GeodesicDriftError(ArithmeticError):
    """The energy drift or the position error stayed above its bound after
    every refinement."""


class _RunFailure(Exception):
    """A run could not finish: an evaluation past its start raised, or a step
    left the float range."""


@dataclass(frozen=True)
class GeodesicTrajectory:
    times: np.ndarray
    points: np.ndarray      # (samples, n) complex
    velocities: np.ndarray  # (samples, n) complex
    energies: np.ndarray
    steps: int
    position_error: float  # per-step embedded estimates, max over coordinates, summed over steps
    converged: bool = False  # drift met _DRIFT_TOL and position_error _POSITION_TOL

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
        """The points; GeodesicDriftError if a bound was not met."""
        if not self.converged:
            raise GeodesicDriftError(
                f"bounds unmet at {self.steps} steps: energy drift {self.drift:.3e},"
                f" position error {self.position_error:.3e}"
            )
        return self.points


def _acceleration(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    return -np.einsum("...mij,...i,...j->...m", gamma, v, v)


def _meets_bounds(trajectory: GeodesicTrajectory) -> bool:
    scale = max(1.0, float(np.max(np.abs(trajectory.points))))
    return trajectory.drift <= _DRIFT_TOL and trajectory.position_error <= _POSITION_TOL * scale


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
    []).  Every run starts from ``steps`` DOP853 steps (default scales with
    length) and doubles the count until the energy drift and the position
    error meet their bounds or the ``_MAX_REFINEMENTS`` doublings are spent;
    only the rows still above a bound run again.  Each trajectory is the last
    run of its row, with ``converged`` saying whether it met both bounds.

    A run that fails past its start (an evaluation raises at a stage point, as
    where a metric is singular in floats, or a step leaves the float range)
    finishes nothing: its rows keep their last finished run and refine.  A row
    that finishes no run raises ValueError naming its start and last failure.
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
    # a velocity too large for the metric would otherwise fail at a stage point
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(metric_energy(model, z0, v0))[:, None]
    _check_domain(z0, v0, np.broadcast_to(bad, v0.shape), "the metric energy is not finite for the velocity")
    if steps is None:
        steps = max(20, int(4 * length))
    trajectories: list[GeodesicTrajectory] = [None] * len(z0)
    failures: dict[int, _RunFailure] = {}
    active = list(range(len(z0)))
    for _ in range(_MAX_REFINEMENTS + 1):
        if not active:
            break
        for k, run in _runs(model, z0, v0, active, length, steps).items():
            if isinstance(run, _RunFailure):
                failures[k] = run  # the row keeps its last finished run, if any
            else:
                trajectories[k] = replace(run, converged=_meets_bounds(run))
        active = [k for k in active if trajectories[k] is None or not trajectories[k].converged]
        steps *= 2
    for k, trajectory in enumerate(trajectories):
        if trajectory is None:
            raise ValueError(f"the geodesic from z={z0[k]} failed at every step count: {failures[k]}")
    return trajectories[0] if single else trajectories


def _runs(
    model: PotentialModel, z0: np.ndarray, v0: np.ndarray, rows: list[int], length: float, steps: int
) -> dict[int, GeodesicTrajectory | _RunFailure]:
    """The run of each row of ``rows`` at ``steps`` steps, or its failure.

    The rows run as one batch; if that batch fails, each row runs alone, so a
    row's run never depends on what else is in its batch.
    """
    try:
        return dict(zip(rows, _rk4_run(model, z0[rows], v0[rows], length, steps)))
    except _RunFailure as failure:
        if len(rows) == 1:
            return {rows[0]: failure}
    return {k: run for row in rows for k, run in _runs(model, z0, v0, [row], length, steps).items()}


def _weighted(weights: Sequence[float], h: float) -> tuple[np.ndarray, np.ndarray]:
    """The stage indices of the nonzero weights, and h times those as a (terms, 1, 1) column."""
    index = np.flatnonzero(weights)
    return index, (h * np.asarray(weights)[index])[:, None, None]


def _stage_sum(terms: tuple[np.ndarray, np.ndarray], stages: np.ndarray) -> np.ndarray:
    """sum of weight * stage over the terms, from the (stage, batch, width)
    stack: one reduction over the stage axis, which adds elementwise in stage
    order, so a row's sum does not depend on its batch."""
    index, weights = terms
    return np.add.reduce(weights * stages[index], axis=0)


def _rk4_run(
    model: PotentialModel, z0: np.ndarray, v0: np.ndarray, length: float, steps: int
) -> list[GeodesicTrajectory]:
    """One fixed-step DOP853 run of every trajectory in the (batch, n) stack (z0, v0).

    It takes 12 * steps ``christoffel_at`` calls and one ``metric_at`` call,
    at the last point.  If an evaluation past the start raises or an update
    leaves the float range, _RunFailure names the step and the point (the
    first row's).  The name is the RK4 scheme's it replaced: the benchmark's
    tracer binds it, and the rename waits on a scheme-neutral tracer (ROADMAP
    item 13).
    """
    h = length / steps
    n = z0.shape[1]
    # the state (z, v) as one (batch, 2n) row of complex, summed through its
    # float view; k[s] is stage s's (dz, dv) = (v_s, accel_s), which every
    # step overwrites, and the stage sums read it through two views
    y = np.concatenate([z0, v0], axis=1)
    k = np.empty((len(_B),) + y.shape, dtype=complex)
    stages, position_rates = k.view(float), k[:, :, :n]
    stage_terms = [_weighted(row, h) for row in _A]
    update_terms, e5_terms, e3_terms = (_weighted(row, h) for row in (_B, _E5, _E3))
    points = np.empty((len(y), steps + 1, n), dtype=complex)
    velocities = np.empty_like(points)
    energies = np.empty((len(y), steps + 1))
    position_error = np.zeros(len(y))
    points[:, 0], velocities[:, 0] = z0, v0
    # the start's first stage is checked: Christoffels that overflow there
    # would otherwise fail at a NaN stage point
    with np.errstate(over="ignore", invalid="ignore"):
        gamma, g = christoffel_at(model, z0, return_metric=True)
        accel = _acceleration(gamma, v0)
    _check_domain(z0, accel, ~np.isfinite(accel), "the geodesic acceleration is not finite:")
    at = z0  # the points of the evaluation under way, which a failure names
    try:
        for i in range(steps):
            energies[:, i] = _energy(g, y[:, n:])
            k[0, :, :n], k[0, :, n:] = y[:, n:], accel
            yf = y.view(float)
            for s, terms in enumerate(stage_terms, 1):
                ys = (yf + _stage_sum(terms, stages)).view(complex)
                at = ys[:, :n]
                k[s, :, :n] = ys[:, n:]
                k[s, :, n:] = _acceleration(christoffel_at(model, at), ys[:, n:])
            y = (yf + _stage_sum(update_terms, stages)).view(complex)
            at = y[:, :n]
            if not np.all(np.isfinite(y)):
                raise FloatingPointError("the update is not finite")
            # the error pair reads the stages' position rates v_s only
            e5, e3 = (np.abs(_stage_sum(terms, position_rates)) for terms in (e5_terms, e3_terms))
            scale = np.hypot(e5, 0.1 * e3)
            estimate = np.divide(e5 * e5, scale, out=np.zeros_like(e5), where=scale > 0.0)
            position_error += np.max(estimate, axis=1)
            points[:, i + 1], velocities[:, i + 1] = at, y[:, n:]
            if i + 1 < steps:
                gamma, g = christoffel_at(model, at, return_metric=True)
                accel = _acceleration(gamma, y[:, n:])
        # the last point needs only its metric, for the energy
        energies[:, steps] = _energy(metric_at(model, at), y[:, n:])
    except (ArithmeticError, ValueError) as err:  # numpy's LinAlgError is a ValueError
        raise _RunFailure(f"step {i + 1}/{steps} at z={at[0]}: {err}") from err
    times = np.linspace(0.0, length, steps + 1)
    return [
        GeodesicTrajectory(times, points[b], velocities[b], energies[b], steps, float(position_error[b]))
        for b in range(len(y))
    ]
