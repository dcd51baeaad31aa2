"""Totally geodesic test objects for the product-of-cigars metric.

Two kinds of probe objects live here:

* ``PhaseBlockEmbedding`` — the catalog of complex-linear submanifolds through
  the origin whose coordinates are either identically zero or unit-phase
  copies of shared parameters.  These are the totally geodesic family, and
  they are exactly the subspaces the Darboux coordinate change must map to
  complex-linear subspaces (the linearity check).

* ``HoloCurvePair`` — a holomorphic curve z -> (f1(z), f2(z)) in C^2 with
  f(0) = 0, used for the curvature-defect identity: the Gauss curvature of
  the induced metric minus the restricted ambient curvature equals
  -|A|^2 / D for an explicit polynomial-in-derivatives obstruction A, so the
  curve is totally geodesic exactly when A vanishes.  The shipped
  counterexample is the graph z -> (z, z^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .darboux import DarbouxMap
from .geodesics import GeodesicDriftError, GeodesicState, GeodesicTrajectory, geodesic_integrate
from .potentials import PotentialModel, metric_energy, sample_polydisc

__all__ = [
    "PhaseBlockEmbedding",
    "standard_catalog",
    "HoloCurvePair",
    "InducedMetric1D",
    "a_obstruction",
    "curvature_defect",
    "graph_counterexample_pair",
    "total_geodesy_residual",
    "curve_geodesy_residual",
    "curve_distance",
    "CirizaReport",
    "ciriza_image_check",
    "curve_image_rank",
]


@dataclass(frozen=True)
class PhaseBlockEmbedding:
    """Linear embedding C^k -> C^n: w_j = alpha_j * p_{sigma(j)} (or 0).

    ``sigma[j]`` is 0 for a constant-zero coordinate, otherwise the 1-based
    index of the parameter copied into coordinate j; every parameter index
    1..k must be used.  Phases must have unit modulus (ignored where
    sigma[j] = 0).
    """

    n: int
    sigma: tuple[int, ...]
    phases: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.sigma) != self.n or len(self.phases) != self.n:
            raise ValueError("sigma and phases must both have length n")
        k = max(self.sigma, default=0)
        if k < 1 or any(s < 0 or s > k for s in self.sigma):
            raise ValueError("sigma entries must lie in 0..k with k >= 1")
        if set(range(1, k + 1)) - set(self.sigma):
            raise ValueError("every parameter index 1..k must be attained")
        for j, s in enumerate(self.sigma):
            if s > 0 and abs(abs(self.phases[j]) - 1.0) > 1e-12:
                raise ValueError(f"phase {j} is not unit modulus")

    @property
    def k(self) -> int:
        return max(self.sigma)

    @property
    def matrix(self) -> np.ndarray:
        e = np.zeros((self.n, self.k), dtype=complex)
        for j, s in enumerate(self.sigma):
            if s > 0:
                e[j, s - 1] = self.phases[j]
        return e

    def embed(self, params: Sequence[complex]) -> np.ndarray:
        params = np.asarray(params, dtype=complex)
        if params.shape != (self.k,):
            raise ValueError(f"expected {self.k} parameters")
        return self.matrix @ params

    def projector(self) -> np.ndarray:
        q, _ = np.linalg.qr(self.matrix)
        return q @ q.conj().T

    def distance_to_image(self, w: Sequence[complex]) -> float:
        w = np.asarray(w, dtype=complex)
        return float(np.linalg.norm(w - self.projector() @ w))

    def with_phase_multiplied(self, j: int, phase: complex) -> "PhaseBlockEmbedding":
        if abs(abs(phase) - 1.0) > 1e-12:
            raise ValueError("phase must be unit modulus")
        phases = list(self.phases)
        phases[j] = phases[j] * phase
        return PhaseBlockEmbedding(self.n, self.sigma, tuple(phases))

    def describe(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "sigma": list(self.sigma),
            "phases": [str(p) for p in self.phases],
        }


def standard_catalog(n: int, seed: int = 11) -> list[PhaseBlockEmbedding]:
    """A representative set of phase-block embeddings in dimension n."""
    rng = np.random.default_rng(seed + n)

    def phase() -> complex:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        return complex(np.cos(theta), np.sin(theta))

    ones = (1.0 + 0.0j,) * n
    catalog = []
    if n == 1:
        return [PhaseBlockEmbedding(1, (1,), (phase(),))]
    catalog.append(PhaseBlockEmbedding(n, (1,) + (0,) * (n - 1), ones))
    catalog.append(PhaseBlockEmbedding(n, (1,) * n, tuple(phase() for _ in range(n))))
    pair_sigma = (1, 1) + tuple(range(2, n))
    catalog.append(PhaseBlockEmbedding(n, pair_sigma, tuple(phase() for _ in range(n))))
    if n >= 3:
        catalog.append(PhaseBlockEmbedding(n, (1, 2) + (0,) * (n - 2), ones))
    return catalog


def total_geodesy_residual(
    model: PotentialModel,
    embedding: PhaseBlockEmbedding,
    start: Sequence[complex],
    vel: Sequence[complex],
    length: float,
    steps: int | None = None,
    drift_tol: float = 1e-8,
    normalize: bool = True,
) -> float:
    """Max distance of an ambient geodesic from the embedding's image.

    ``start`` must lie on the image and ``vel`` must be tangent to it; with
    ``normalize`` the velocity is rescaled to unit metric energy so ``length``
    is the arclength.
    """
    start = np.asarray(start, dtype=complex)
    vel = np.asarray(vel, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(start)))
    if embedding.distance_to_image(start) > 1e-9 * scale:
        raise ValueError("start point is not on the embedded subspace")
    if embedding.distance_to_image(vel) > 1e-9 * max(1.0, float(np.linalg.norm(vel))):
        raise ValueError("velocity is not tangent to the embedded subspace")
    if normalize:
        vel = vel / np.sqrt(metric_energy(model, start, vel))
    trajectory = geodesic_integrate(
        model, GeodesicState(start, vel), length, steps=steps, drift_tol=drift_tol
    )
    points = _converged_points(trajectory)
    offsets = points - points @ embedding.projector().T
    return float(np.max(np.linalg.norm(offsets, axis=1)))


def _converged_points(trajectory: GeodesicTrajectory) -> np.ndarray:
    """The trajectory's points; GeodesicDriftError if it missed its drift bound."""
    if not trajectory.converged:
        raise GeodesicDriftError(f"energy drift {trajectory.drift:.3e} unmet at {trajectory.steps} steps")
    return trajectory.points


# ---------------------------------------------------------------------------
# holomorphic curves in C^2 and the geodesy obstruction
# ---------------------------------------------------------------------------


class HoloCurvePair:
    """Curve z -> (f1(z), f2(z)) with polynomial f_m and f_m(0) = 0.

    Coefficients are given in ascending order starting at the linear term,
    e.g. (1,) is z and (0, 1) is z^2.
    """

    def __init__(self, coeffs1: Sequence[complex], coeffs2: Sequence[complex]):
        poly = np.polynomial.Polynomial
        self.f1 = poly([0.0, *np.asarray(coeffs1, dtype=complex)])
        self.f2 = poly([0.0, *np.asarray(coeffs2, dtype=complex)])
        self.df1 = self.f1.deriv()
        self.df2 = self.f2.deriv()
        self.ddf1 = self.f1.deriv(2)
        self.ddf2 = self.f2.deriv(2)

    def point(self, z: complex) -> np.ndarray:
        return np.array([self.f1(z), self.f2(z)], dtype=complex)

    def tangent(self, z: complex) -> np.ndarray:
        return np.array([self.df1(z), self.df2(z)], dtype=complex)

    def describe(self) -> dict:
        return {
            "f1": [str(c) for c in self.f1.coef[1:]],
            "f2": [str(c) for c in self.f2.coef[1:]],
        }


def graph_counterexample_pair() -> HoloCurvePair:
    """The shipped non-geodesic surface z -> (z, z^2)."""
    return HoloCurvePair((1.0,), (0.0, 1.0))


def a_obstruction(pair: HoloCurvePair, z: complex) -> complex:
    """The obstruction A(f1, f2)(z); the curve is totally geodesic iff A = 0."""
    f1, f2 = pair.f1(z), pair.f2(z)
    d1, d2 = pair.df1(z), pair.df2(z)
    s1, s2 = pair.ddf1(z), pair.ddf2(z)
    m1 = 1.0 + abs(f1) ** 2
    m2 = 1.0 + abs(f2) ** 2
    return complex(
        (s2 * d1 - s1 * d2) * m1 * m2
        + d1**2 * d2 * np.conj(f1) * m2
        - d2**2 * d1 * np.conj(f2) * m1
    )


class InducedMetric1D:
    """Pullback metric of the two-cigar model along a HoloCurvePair.

    g(z) = sum_m |f_m'|^2 / (1 + |f_m|^2), with analytic z / zbar derivatives
    from polynomial arithmetic (no finite differences) and the 1-d curvature
    R = -g_zzbar + |g_z|^2 / g.
    """

    def __init__(self, pair: HoloCurvePair):
        self.pair = pair

    def _parts(self, z: complex):
        p = self.pair
        for f, df, ddf in ((p.f1, p.df1, p.ddf1), (p.f2, p.df2, p.ddf2)):
            a, b = f(z), np.conj(f(z))
            da, db = df(z), np.conj(df(z))
            dda, ddb = ddf(z), np.conj(ddf(z))
            h = 1.0 / (1.0 + a * b)
            yield a, b, da, db, dda, ddb, h

    def value(self, z: complex) -> float:
        return float(sum((da * db * h).real for _, _, da, db, _, _, h in self._parts(z)))

    def dz(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for a, b, da, db, dda, _, h in self._parts(z):
            acc += dda * db * h - da**2 * db * b * h**2
        return complex(acc)

    def dz_dzbar(self, z: complex) -> float:
        acc = 0.0 + 0.0j
        for a, b, da, db, dda, ddb, h in self._parts(z):
            acc += (
                dda * ddb * h
                - (dda * a * db**2 + da**2 * b * ddb + da**2 * db**2) * h**2
                + 2.0 * da**2 * db**2 * a * b * h**3
            )
        return float(acc.real)

    def curvature(self, z: complex) -> float:
        g = self.value(z)
        if g <= 0.0:
            raise ValueError("degenerate induced metric (both derivatives vanish)")
        return -self.dz_dzbar(z) + abs(self.dz(z)) ** 2 / g


def _restricted_ambient_curvature(pair: HoloCurvePair, z: complex) -> float:
    """R(T, Tbar, T, Tbar) of the two-cigar model along the curve tangent."""
    acc = 0.0
    for f, df in ((pair.f1, pair.df1), (pair.f2, pair.df2)):
        acc += abs(df(z)) ** 4 / (1.0 + abs(f(z)) ** 2) ** 3
    return acc


def curvature_defect(pair: HoloCurvePair, z: complex) -> tuple[float, float]:
    """(direct, viaA): induced-minus-restricted curvature, both routes.

    The direct route differentiates the induced metric; the closed route is
    -|A|^2 / D.  Totally geodesic curves give 0; the defect is never positive.
    """
    induced = InducedMetric1D(pair)
    direct = induced.curvature(z) - _restricted_ambient_curvature(pair, z)
    m1 = 1.0 + abs(pair.f1(z)) ** 2
    m2 = 1.0 + abs(pair.f2(z)) ** 2
    d1 = abs(pair.df1(z)) ** 2
    d2 = abs(pair.df2(z)) ** 2
    denom = (d1 * m2 + d2 * m1) * m1**2 * m2**2
    if denom == 0.0:
        raise ValueError("degenerate tangent: both derivatives vanish")
    via_a = -abs(a_obstruction(pair, z)) ** 2 / denom
    return float(direct), float(via_a)


def curve_distance(
    pair: HoloCurvePair, point: Sequence[complex], starts: Sequence[complex] | None = None
) -> float:
    """Euclidean distance from a point in C^2 to the curve image (numeric).

    Multi-start Nelder-Mead over the curve parameter; default starts are the
    first coordinate and both square roots of the second (good heuristics for
    low-degree graphs like (z, z^2)).
    """
    # imported here, its only use: scipy.optimize adds ~24 MB to `import darbouxkit`
    from scipy.optimize import minimize

    point = np.asarray(point, dtype=complex)
    if starts is None:
        root = np.sqrt(complex(point[1]))
        starts = [complex(point[0]), root, -root]

    def objective(x: np.ndarray) -> float:
        w = complex(x[0], x[1])
        return float(np.linalg.norm(pair.point(w) - point) ** 2)

    values = [
        minimize(
            objective,
            np.array([w0.real, w0.imag]),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-24, "maxiter": 600},
        ).fun
        for w0 in starts
    ]
    # numpy reductions propagate a NaN from any start; Python's min drops it
    return float(np.sqrt(np.maximum(np.min(values), 0.0)))


def curve_geodesy_residual(
    model: PotentialModel,
    pair: HoloCurvePair,
    w0: complex,
    length: float,
    steps: int | None = None,
    stride: int = 12,
) -> float:
    """Max distance to the curve image of the geodesic launched tangent at w0."""
    if model.n != 2:
        raise ValueError("curve geodesy runs in the two-cigar model")
    start = pair.point(w0)
    vel = pair.tangent(w0)
    energy = metric_energy(model, start, vel)
    if energy <= 0.0:
        raise ValueError("degenerate tangent at the launch point")
    vel = vel / np.sqrt(energy)
    trajectory = geodesic_integrate(model, GeodesicState(start, vel), length, steps=steps)
    samples = _converged_points(trajectory)[::stride]
    return float(np.max([curve_distance(pair, p) for p in samples]))


# ---------------------------------------------------------------------------
# the linearity (Ciriza-type) check of the coordinate map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CirizaReport:
    """Do mapped submanifold samples stay in one complex-linear subspace?"""

    model: str
    embedding: dict
    samples: int
    max_residual: float
    rank: int
    expected_rank: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance and self.rank == self.expected_rank

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "embedding": self.embedding,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def ciriza_image_check(
    darboux_map: DarbouxMap,
    embedding: PhaseBlockEmbedding,
    samples: int = 50,
    radius: float = 2.0,
    seed: int = 202614,
    tolerance: float = 1e-9,
) -> CirizaReport:
    """Check that the coordinate map sends the embedded subspace into the
    complex span of its mapped tangent frame at the origin.

    Residuals are distances of mapped samples to that span; the report also
    carries the numerical complex rank of the stacked images, which must
    equal the subspace dimension k.
    """
    model = darboux_map.model
    if model.n != embedding.n:
        raise ValueError("embedding dimension does not match the model")
    params = sample_polydisc(np.random.default_rng(seed), samples, embedding.k, radius)
    # differential of the map at 0 is the diagonal of sqrt(Phi_j(0)), so the
    # mapped tangent frame is that scaling applied to the embedding matrix
    psi0 = np.sqrt(model.first_derivs(np.zeros(model.n)))
    frame = psi0[:, None] * embedding.matrix
    q, _ = np.linalg.qr(frame)
    projector = q @ q.conj().T
    images = np.array([darboux_map.map_point(embedding.embed(p)) for p in params])
    offsets = images - images @ projector.T
    max_residual = float(np.max(np.linalg.norm(offsets, axis=1)))
    rank = _complex_rank(images)
    return CirizaReport(
        model=model.name,
        embedding=embedding.describe(),
        samples=samples,
        max_residual=max_residual,
        rank=rank,
        expected_rank=embedding.k,
        tolerance=tolerance,
    )


def curve_image_rank(
    darboux_map: DarbouxMap,
    pair: HoloCurvePair,
    samples: int = 50,
    radius: float = 2.0,
    seed: int = 202615,
) -> int:
    """Complex rank of mapped curve samples (2 for the (z, z^2) non-example)."""
    params = sample_polydisc(np.random.default_rng(seed), samples, 1, radius)[:, 0]
    images = np.array([darboux_map.map_point(pair.point(w)) for w in params])
    return _complex_rank(images)


def _complex_rank(rows: np.ndarray, rtol: float = 1e-6) -> int:
    s = np.linalg.svd(rows, compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))
