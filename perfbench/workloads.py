"""The three benchmark workloads, driven through the public ``darbouxkit`` API.

Each workload is a closed loop with one caller: the next operation starts when
the previous one ends.  Work is grouped into passes; a pass is a fixed list of
operations whose inputs are generated from (seed, pass index), so a replay of
the same passes (the traced run) sees the same inputs.

* ``suite``: one pass is ``run_suite(RunConfig(seed=seed))``, all ten claims,
  exactly what ``darbouxkit suite --seed`` runs.  An op is one claim.
* ``cigar-fields``: one pass runs the point pipeline at 40 seeded points on
  each of ``cigar`` n = 1..4 and the coupled ``poly`` model; no soliton call
  and no RK4 step happens, so tensor assembly does nearly all the work.
* ``soliton-fields``: one pass runs the same pipeline at 8 seeded points on
  ``soliton`` n = 1..3, plus one profile jet (``derivatives`` and
  ``ode_residual``) at a random t in each 5-wide cell of [-40, 200] for each
  n.  Every t is distinct and random, so a per-t cache cannot help.

Points are uniform in the radius-5 polydisc, except that one point in eight
is drawn in the radius-0.2 polydisc, so the cigar series seam (t = 0.25) and
the radial series seam of the soliton (s = 0.1) are crossed in every pass.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import darbouxkit as dk

# output checks pinned by the acceptance gate's tolerances
PULLBACK_ANALYTIC_TOL = 1e-8
PULLBACK_FD_TOL = 1e-5
CURVATURE_SYMMETRY_TOL = 1e-8
CHRISTOFFEL_SYMMETRY_RTOL = 1e-12
ODE_RESIDUAL_TOL = 1e-9
ODE_CHECK_WINDOW = (-10.0, 10.0)

RADIUS, NEAR_RADIUS, NEAR_EVERY = 5.0, 0.2, 8
JET_RANGE, JET_CELL = (-40.0, 200.0), 5.0


@dataclass
class Op:
    kind: str        # "claim", "point" or "jet"
    seconds: float
    ok: bool
    op_id: int
    label: str = ""  # claim id, model name or profile
    error: str = ""


@dataclass
class PassResult:
    start: float  # time.perf_counter() when the pass began
    seconds: float
    ops: list[Op] = field(default_factory=list)
    digest: str | None = None


def sample_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """(count, n) points, uniform per coordinate over the disc; every
    ``NEAR_EVERY``-th point uses the small radius."""
    radius = np.where(np.arange(count) % NEAR_EVERY == NEAR_EVERY - 1, NEAR_RADIUS, RADIUS)
    radii = radius[:, None] * np.sqrt(rng.uniform(size=(count, n)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return radii * np.exp(1j * angles)


def point_pipeline(model, dmap, z: np.ndarray) -> tuple[bool, str]:
    """map_point, analytic and FD pullback, Christoffels, analytic curvature."""
    w = dmap.map_point(z)
    analytic = dmap.pullback_residual(z)
    fd = dmap.pullback_residual(z, method="fd")
    gamma = dk.christoffel_at(model, z)
    r = dk.curvature_at(model, z)
    symmetry = dk.curvature_symmetry_residual(r)
    gamma_asym = float(np.max(np.abs(gamma - gamma.transpose(0, 2, 1))))
    gamma_scale = float(np.max(np.abs(gamma)))
    failures = []
    if not np.all(np.isfinite(w)):
        failures.append("map_point not finite")
    if not analytic <= PULLBACK_ANALYTIC_TOL:
        failures.append(f"analytic pullback {analytic:.3e}")
    if not fd <= PULLBACK_FD_TOL:
        failures.append(f"fd pullback {fd:.3e}")
    if not symmetry <= CURVATURE_SYMMETRY_TOL:
        failures.append(f"curvature symmetry {symmetry:.3e}")
    if not gamma_asym <= CHRISTOFFEL_SYMMETRY_RTOL * gamma_scale:
        failures.append(f"christoffel asymmetry {gamma_asym:.3e} of {gamma_scale:.3e}")
    return not failures, "; ".join(failures)


def profile_jet(profile, t: float) -> tuple[bool, str]:
    """u'..u'''' and the ODE residual at t."""
    jet = profile.derivatives(t)
    resid = profile.ode_residual(t)
    failures = []
    if not all(np.isfinite(jet)):
        failures.append(f"jet not finite {jet}")
    if not (jet[0] > 0.0 and jet[1] > 0.0):
        failures.append(f"u', u'' not positive {jet[:2]}")
    lo, hi = ODE_CHECK_WINDOW
    if not np.isfinite(resid) or (lo <= t <= hi and not resid <= ODE_RESIDUAL_TOL):
        failures.append(f"ode residual {resid:.3e}")
    return not failures, "; ".join(failures)


def suite_digest(reports) -> str:
    return hashlib.sha256("".join(r.body() for r in reports).encode()).hexdigest()


class Workload:
    name: str

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._next_op = 0

    def warm(self) -> None:
        """Fill the library's lazy caches before anything is timed."""

    def run_pass(self, index: int, on_op=None) -> PassResult:
        raise NotImplementedError

    def _op_id(self) -> int:
        self._next_op += 1
        return self._next_op - 1


class SuiteWorkload(Workload):
    name = "suite"

    def __init__(self, seed: int, config: dict | None = None) -> None:
        super().__init__(seed)
        self.config = dk.RunConfig(seed=seed, **(config or {}))

    @property
    def digest_key(self) -> str:
        """Identifies the inputs whose report digest must repeat."""
        return repr(self.config)

    def warm(self) -> None:
        for model in dk.shipped_models():
            point_pipeline(model, dk.DarbouxMap(model), np.full(model.n, 0.3 + 0.2j))

    def run_pass(self, index: int, on_op=None) -> PassResult:
        op_id = self._op_id()
        if on_op is not None:
            on_op(op_id)
        start = time.perf_counter()
        reports = dk.run_suite(self.config)
        seconds = time.perf_counter() - start
        ops = [
            Op("claim", r.wall_time_s, r.passed, op_id, r.claim, "" if r.passed else r.summary_line())
            for r in reports
        ]
        if len(reports) != len(self.config.claims or dk.CLAIM_IDS):
            ops.append(Op("claim", 0.0, False, op_id, "suite", "suite returned too few reports"))
        return PassResult(start, seconds, ops, suite_digest(reports))


class FieldsWorkload(Workload):
    tag: int  # separates the input streams of workloads that share a seed
    points_per_model: int
    jets = False

    def __init__(self, seed: int, models, points_per_model: int | None = None) -> None:
        super().__init__(seed)
        self.models = [(m, dk.DarbouxMap(m)) for m in models]
        if points_per_model is not None:
            self.points_per_model = points_per_model
        self.profiles = [dk.SolitonProfile(n) for n in (1, 2, 3)] if self.jets else []

    def warm(self) -> None:
        for model, dmap in self.models:
            point_pipeline(model, dmap, np.full(model.n, 0.3 + 0.2j))
        for profile in self.profiles:
            profile_jet(profile, 0.5)

    def inputs(self, index: int):
        """(points per model, jet t per profile) of pass ``index``."""
        rng = np.random.default_rng((self.seed, self.tag, index))
        points = [sample_points(rng, self.points_per_model, m.n) for m, _ in self.models]
        lo, hi = JET_RANGE
        cells = np.arange(lo, hi, JET_CELL)
        ts = [cells + JET_CELL * rng.uniform(size=len(cells)) for _ in self.profiles]
        return points, ts

    def run_pass(self, index: int, on_op=None) -> PassResult:
        points, ts = self.inputs(index)
        ops = []
        start = time.perf_counter()
        for (model, dmap), pts in zip(self.models, points):
            for z in pts:
                ops.append(self._timed("point", model.name, point_pipeline, (model, dmap, z), on_op))
        for profile, grid in zip(self.profiles, ts):
            for t in grid:
                label = f"profile-n{profile.n}"
                ops.append(self._timed("jet", label, profile_jet, (profile, float(t)), on_op))
        return PassResult(start, time.perf_counter() - start, ops)

    def _timed(self, kind, label, fn, args, on_op) -> Op:
        op_id = self._op_id()
        if on_op is not None:
            on_op(op_id)
        start = time.perf_counter()
        try:
            ok, error = fn(*args)
        except Exception as err:  # noqa: BLE001 - a raising op is a failed op
            ok, error = False, f"{type(err).__name__}: {err}"
        return Op(kind, time.perf_counter() - start, ok, op_id, label, error)


class CigarFields(FieldsWorkload):
    name, tag, points_per_model = "cigar-fields", 1, 40

    def __init__(self, seed: int, points_per_model: int | None = None) -> None:
        models = [dk.CigarProductPotential(n) for n in (1, 2, 3, 4)] + [dk.poly_test_model()]
        super().__init__(seed, models, points_per_model)


class SolitonFields(FieldsWorkload):
    name, tag, points_per_model, jets = "soliton-fields", 2, 8, True

    def __init__(self, seed: int, points_per_model: int | None = None) -> None:
        models = [dk.SolitonPotential(dk.SolitonProfile(n)) for n in (1, 2, 3)]
        super().__init__(seed, models, points_per_model)


WORKLOADS = {w.name: w for w in (SuiteWorkload, CigarFields, SolitonFields)}
