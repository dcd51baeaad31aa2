"""Totally geodesic test objects for the cigar-product and soliton metrics.

Two kinds of probe objects live here:

* ``PhaseBlockEmbedding`` — the catalog of complex-linear submanifolds through
  the origin whose coordinates are either identically zero or unit-phase
  copies of shared parameters.  These are the totally geodesic family on
  every cigar product and on the soliton, and they are exactly the subspaces
  the Darboux coordinate change must map to complex-linear subspaces (the
  linearity check).

* ``HoloCurvePair`` — a holomorphic curve z -> (f1(z), f2(z)) in C^2 with
  f(0) = 0, used for the two-cigar curvature-defect identity: induced minus
  restricted ambient curvature, -|II(f', f')|^2 by the Gauss equation on the
  model's Gamma and g, equals -|A|^2 / D for an explicit obstruction A in the
  derivatives, so the curve is totally geodesic exactly when A vanishes.
  The shipped counterexample is the graph z -> (z, z^2).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .curvature import christoffel_at
from .darboux import DarbouxMap
from .geodesics import geodesic_integrate
from .potentials import CigarProductPotential, PotentialModel, metric_energy, sample_polydisc
from .soliton import _horner

__all__ = [
    "PhaseBlockEmbedding",
    "standard_catalog",
    "HoloCurvePair",
    "a_obstruction",
    "curvature_defect",
    "graph_counterexample_pair",
    "total_geodesy_residual",
    "curve_geodesy_residual",
    "curve_distance",
    "CurveDistanceError",
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
            if s > 0 and not abs(abs(self.phases[j]) - 1.0) <= 1e-12:  # NaN fails too
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

    def distance_to_image(self, w: Sequence[complex]) -> float | np.ndarray:
        """Distance of w, or of each row of w (shape (..., n)), from the image."""
        return _span_distances(self.matrix, np.asarray(w, dtype=complex))

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


def _span_distances(frame: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distance of each row (shape (..., n)) from the complex span of frame's columns."""
    q, _ = np.linalg.qr(frame)
    return np.linalg.norm(rows - rows @ (q @ q.conj().T).T, axis=-1)


def _unit_speed_runs(
    model: PotentialModel, starts: np.ndarray, vels: np.ndarray, length: float
) -> list[np.ndarray]:
    """Converged points of the geodesics from the (B, n) starts, launched along
    the velocities rescaled to unit metric energy, so ``length`` is arclength."""
    energy = metric_energy(model, starts, vels)
    if not np.all(energy > 0.0):
        raise ValueError("launch velocity has no positive metric energy")
    vels = vels / np.sqrt(energy)[:, None]
    return [trajectory.converged_points() for trajectory in geodesic_integrate(model, starts, vels, length)]


def total_geodesy_residual(
    model: PotentialModel,
    embedding: PhaseBlockEmbedding | Sequence[PhaseBlockEmbedding],
    start: Sequence[complex],
    vel: Sequence[complex],
    length: float,
) -> float | np.ndarray:
    """Max distance of an ambient geodesic from the embedding's image.

    ``start`` must lie on the image and ``vel`` must be tangent to it.  The
    velocity is rescaled to unit metric energy, so ``length`` is the
    arclength; GeodesicDriftError if the geodesic misses its drift bound.
    A sequence of B embeddings with (B, n) starts and velocities gives the B
    residuals as an array, from one batched integration.  Only an
    embedding's ``matrix`` (its (n, k) frame) is read.
    """
    single = np.ndim(start) == 1
    embeddings = [embedding] if single else list(embedding)
    starts, vels = np.atleast_2d(np.asarray(start, dtype=complex), np.asarray(vel, dtype=complex))
    if starts.shape != vels.shape or len(starts) != len(embeddings):
        raise ValueError("need one start point and one velocity per embedding")
    for emb, z, v in zip(embeddings, starts, vels):
        d_start, d_vel = _span_distances(emb.matrix, np.array([z, v]))
        if d_start > 1e-9 * max(1.0, float(np.linalg.norm(z))):
            raise ValueError("start point is not on the embedded subspace")
        if d_vel > 1e-9 * max(1.0, float(np.linalg.norm(v))):
            raise ValueError("velocity is not tangent to the embedded subspace")
    runs = _unit_speed_runs(model, starts, vels, length)
    residuals = [np.max(_span_distances(emb.matrix, points)) for emb, points in zip(embeddings, runs)]
    return float(residuals[0]) if single else np.array(residuals)


# ---------------------------------------------------------------------------
# holomorphic curves in C^2 and the geodesy obstruction
# ---------------------------------------------------------------------------


class HoloCurvePair:
    """Curve z -> (f1(z), f2(z)) with polynomial f_m and f_m(0) = 0.

    Coefficients are given in ascending order starting at the linear term,
    e.g. (1,) is z and (0, 1) is z^2.
    """

    def __init__(self, coeffs1: Sequence[complex], coeffs2: Sequence[complex]):
        coeffs = [np.array([0.0, *np.asarray(c, dtype=complex)]) for c in (coeffs1, coeffs2)]
        if not all(np.all(np.isfinite(c)) for c in coeffs):
            raise ValueError("curve coefficients must be finite")
        # each derivative's coefficients as Python complex, in ascending order;
        # the next derivative's are k c_k, and a constant's derivative is 0
        rows = [tuple(complex(v) for v in c) for c in coeffs]
        table = []
        for _ in range(3):
            table.append(tuple(rows))
            rows = [tuple(k * v for k, v in enumerate(r))[1:] or (0j,) for r in rows]
        self._rows = tuple(table)

    def jet(self, w: complex | np.ndarray) -> np.ndarray:
        """(..., 3, 2) array whose rows are f, f' and f'' of (f1, f2) at each
        parameter of w; a scalar w gives one (3, 2) jet.  Each entry is
        ``soliton._horner`` on the complex array w: polyval's value on an array
        bit for bit, whatever the batch."""
        w = np.asarray(w, dtype=complex)
        out = np.empty(w.shape + (3, 2), dtype=complex)
        for i, row in enumerate(self._rows):
            for m, p in enumerate(row):
                out[..., i, m] = _horner(p, w)
        return out


def graph_counterexample_pair() -> HoloCurvePair:
    """The shipped non-geodesic surface z -> (z, z^2)."""
    return HoloCurvePair((1.0,), (0.0, 1.0))


def a_obstruction(pair: HoloCurvePair, z: complex | np.ndarray) -> complex | np.ndarray:
    """The obstruction A(f1, f2) at z, or at each point of an array of z; the
    curve is totally geodesic iff A = 0."""
    a = _obstruction(pair.jet(np.atleast_1d(z)))[0]
    return complex(a[0]) if np.ndim(z) == 0 else a


def _obstruction(jet: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A(f1, f2), m1, m2) from the curve's (..., 3, 2) jets, m_j = 1 + |f_j|^2."""
    (f1, f2), (d1, d2), (s1, s2) = np.moveaxis(jet, (-2, -1), (0, 1))
    m1 = 1.0 + abs(f1) ** 2
    m2 = 1.0 + abs(f2) ** 2
    a = (
        (s2 * d1 - s1 * d2) * m1 * m2
        + d1**2 * d2 * np.conj(f1) * m2
        - d2**2 * d1 * np.conj(f2) * m1
    )
    return a, m1, m2


def _gauss_defect(model: PotentialModel, jet: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gauss equation's -|II(f', f')|^2_g for the (..., 3, 2) curve jets at z in an n = 2
    model, from one ``christoffel_at`` call's Gamma and g: II is N = f'' + Gamma(f', f')
    projected g-orthogonally to f', which keeps small defects accurate where
    |g(N, f'bar)|^2 / g(f', f'bar) - g(N, Nbar) cancels.  NaN where f is not finite; ValueError
    naming the first z where g(f', f'bar) <= 0; each row is its own call's, bit for bit."""
    f, df, ddf = np.moveaxis(jet, -2, 0)
    finite = np.all(np.isfinite(f), axis=-1)
    gamma, g = christoffel_at(model, np.where(finite[..., None], f, 0.0), return_metric=True)
    normal = ddf + np.sum(np.sum(gamma * df[..., None, None, :], axis=-1) * df[..., None, :], axis=-1)
    g_df = np.sum(g * np.conj(df)[..., None, :], axis=-1)  # g_{j kbar} conj(f'^k)
    g_tangent = np.sum(df * g_df, axis=-1).real
    if np.any(g_tangent <= 0.0):
        raise ValueError(f"degenerate induced metric (both derivatives vanish) at z = {z[g_tangent <= 0.0][0]}")
    normal -= (np.sum(normal * g_df, axis=-1) / g_tangent)[..., None] * df
    defect = -np.sum(normal * np.sum(g * np.conj(normal)[..., None, :], axis=-1), axis=-1).real
    return np.where(finite, defect, np.nan)


def curvature_defect(pair: HoloCurvePair, z: complex | np.ndarray) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(direct, viaA): induced-minus-restricted curvature, both routes, at z,
    or a pair of arrays over an array of z, in the two-cigar model.

    The direct route is the Gauss equation on the model's Gamma and g,
    -|II(f', f')|^2_g; the closed route is -|A|^2 / D.  Totally geodesic
    curves give 0; the defect is never positive.
    Where the evaluation overflows or f' = 0, a ValueError names z (in an array,
    the first such point, with that point's own error); a NaN z gives NaNs.
    """
    zs = np.atleast_1d(z)
    try:
        # a NaN propagates quietly, for the caller's verdict to read
        with np.errstate(over="raise", invalid="ignore"):
            jet = pair.jet(zs)
            a, m1, m2 = _obstruction(jet)
            d1 = abs(jet[..., 1, 0]) ** 2
            d2 = abs(jet[..., 1, 1]) ** 2
            denom = (d1 * m2 + d2 * m1) * m1**2 * m2**2
            via_a = -abs(a) ** 2 / denom
            direct = _gauss_defect(CigarProductPotential(2), jet, zs)
    except ArithmeticError as err:  # numpy's FloatingPointError
        if np.ndim(z) > 0:
            for zi in zs:
                curvature_defect(pair, zi)  # the first overflowing point raises its own error
        raise ValueError(f"the curvature defect at z = {z} overflows: {err}") from err
    return (float(direct[0]), float(via_a[0])) if np.ndim(z) == 0 else (direct, via_a)


class CurveDistanceError(ArithmeticError):
    """A curve_distance Newton start did not converge."""


_NEWTON_CAP = 300  # jet evaluations per start, backtracking included
_STEP_RTOL = 1e-14
_RANK_RTOL = 1e-6  # _complex_rank: singular values below this share of the largest are noise
_LINEARITY_BOUND = 1e-9  # max distance of a mapped sample from the mapped tangent span


def curve_distance(pair: HoloCurvePair, points: Sequence[complex] | np.ndarray) -> float | np.ndarray:
    """Euclidean distance from a point p in C^2 to the curve image: a float
    for one point of shape (2,), an array for points of shape (B, 2).

    Newton on the stationarity condition G = sum_m conj(f_m')(f_m - p) = 0 of
    E(w) = |f(w) - p|^2 from three starts: the first coordinate and both square
    roots of the second.  Those starts are chosen for graph pairs (z, f(z))
    such as (z, z^2), the only pair the suite uses; for a general pair every
    start can land in a local minimum of E, and the result then overstates
    the distance (61 of 745 random cubic pairs and points did).
    Every start of every point runs in one lockstep Newton, whose kernels are
    elementwise or per row, so each row equals the call on its point alone,
    bit for bit.  Each start converges or
    raises CurveDistanceError; a NaN propagates to its own point only.
    """
    points = np.asarray(points, dtype=complex)
    rows = points.reshape(-1, 2)
    root = np.sqrt(rows[:, 1])
    starts = np.stack([rows[:, 0], root, -root], axis=1)
    energies = _newton_energies(pair, np.repeat(rows, 3, axis=0), starts.ravel()).reshape(-1, 3)
    # numpy reductions propagate a NaN from any start; Python's min drops it
    distances = np.sqrt(np.maximum(np.min(energies, axis=1), 0.0))
    return float(distances[0]) if points.ndim == 1 else distances


def _newton_energies(pair: HoloCurvePair, points: np.ndarray, w: np.ndarray) -> np.ndarray:
    """E at the stationary point Newton reaches from each start w[i] toward
    points[i], halving steps that raise E; every start keeps its own iterate,
    step and stopping tests, and leaves the lockstep when it stops.

    Every quantity is formed per row (dots as ``np.vecdot``, products by
    numpy's elementwise complex kernels), so a row's value does not depend on
    the batch.
    """
    out = np.empty(len(w))
    index = np.arange(len(w))
    dw = np.zeros(len(w), dtype=complex)
    e = np.full(len(w), np.inf)
    eps = np.finfo(float).eps
    # steps are formed on every live row, also on those that halve and discard
    # theirs, so a zero or NaN there must stay quiet; a NaN row stops at once
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_CAP):
            if not len(w):
                return out
            trial = w + dw
            f, df, ddf = np.moveaxis(pair.jet(trial), -2, 0)
            r = f - points
            e_trial = np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag)
            accept = ~(e_trial > e)
            a = np.vecdot(df, df).real
            b = np.vecdot(ddf, r)
            g = np.vecdot(df, r)
            # Newton step of a dw + b conj(dw) = -g while E's Hessian is definite, else Gauss-Newton
            abs_b = np.hypot(b.real, b.imag)
            newton = (b * np.conj(g) - a * g) / (a * a - abs_b * abs_b)
            step = np.where(a > abs_b, newton, -g / a)
            w = np.where(accept, trial, w)
            e = np.where(accept, e_trial, e)
            dw = np.where(accept, step, dw / 2.0)
            g_dw = g * step
            # E cannot move beyond roundoff (or is NaN), or a Newton or halved
            # step is below roundoff in w: no representable step lowers E
            flat = accept & ~(np.hypot(g_dw.real, g_dw.imag) > eps * e)
            tiny = ~(np.hypot(dw.real, dw.imag) > _STEP_RTOL * np.fmax(1.0, np.hypot(w.real, w.imag)))
            stop = flat | tiny
            out[index[stop]] = e[stop]
            live = ~stop
            index, w, dw, e, points = index[live], w[live], dw[live], e[live], points[live]
    if not len(w):
        return out
    raise CurveDistanceError(f"Newton did not converge in {_NEWTON_CAP} jets (w = {complex(w[0])})")


def curve_geodesy_residual(
    model: PotentialModel,
    pair: HoloCurvePair,
    w0: complex | Sequence[complex],
    length: float,
) -> float | np.ndarray:
    """Max distance to the curve image of the geodesic launched tangent at w0,
    over every trajectory point.

    An array of launch parameters gives an array of residuals, from one
    batched integration.
    """
    if model.n != 2:
        raise ValueError("curve geodesy runs in the two-cigar model")
    jets = pair.jet(np.atleast_1d(w0))
    runs = _unit_speed_runs(model, jets[:, 0], jets[:, 1], length)
    residuals = [np.max(curve_distance(pair, points)) for points in runs]
    return float(residuals[0]) if np.ndim(w0) == 0 else np.array(residuals)


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

    @property
    def passed(self) -> bool:
        return self.max_residual <= _LINEARITY_BOUND and self.rank == self.expected_rank

    def as_dict(self) -> dict:
        return {**asdict(self), "tolerance": _LINEARITY_BOUND, "pass": self.passed}


def ciriza_image_check(
    darboux_map: DarbouxMap,
    embedding: PhaseBlockEmbedding,
    samples: int = 50,
    seed: int = 202614,
) -> CirizaReport:
    """Check that the coordinate map sends the embedded subspace into the
    complex span of its mapped tangent frame at the origin.

    Parameters are sampled from the radius-2 polydisc.  Residuals are
    distances of mapped samples to that span; the report also
    carries the numerical complex rank of the stacked images, which must
    equal the subspace dimension k.  The report passes when that rank is k
    and every residual is at most ``_LINEARITY_BOUND``.
    """
    model = darboux_map.model
    if model.n != embedding.n or samples < 1:
        raise ValueError("embedding dimension must match the model, and samples >= 1")
    params = sample_polydisc(np.random.default_rng(seed), samples, embedding.k, 2.0)
    # differential of the map at 0 is the diagonal of sqrt(Phi_j(0)), so the
    # mapped tangent frame is that scaling applied to the embedding matrix
    psi0 = np.sqrt(model.derivative_tensors(np.zeros(model.n), 1)[0])
    images = darboux_map.map_point(np.array([embedding.embed(p) for p in params]))
    return CirizaReport(
        model=model.name,
        embedding=embedding.describe(),
        samples=samples,
        max_residual=float(np.max(_span_distances(psi0[:, None] * embedding.matrix, images))),
        rank=_complex_rank(images),
        expected_rank=embedding.k,
    )


def curve_image_rank(
    darboux_map: DarbouxMap,
    pair: HoloCurvePair,
    seed: int = 202615,
) -> int:
    """Complex rank of 50 mapped curve samples over the radius-2 disc (2 for
    the (z, z^2) non-example)."""
    params = sample_polydisc(np.random.default_rng(seed), 50, 1, 2.0)[:, 0]
    images = darboux_map.map_point(pair.jet(params)[:, 0])
    return _complex_rank(images)


def _complex_rank(rows: np.ndarray) -> int:
    s = np.linalg.svd(rows, compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_RTOL * s[0]))
