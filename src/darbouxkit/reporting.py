"""Verification claims, deterministic suite runner, and data emission.

Each claim bundles one headline property of the construction into a
``VerificationReport`` with a residual and a tolerance (pass iff residual <=
tolerance).  Claims with several bounded parts are normalized: every part
contributes (observed / bound), the report's residual is the worst ratio, and
the tolerance is 1.0 — the raw numbers and their bounds live in ``details``.

Determinism contract: a fixed ``RunConfig`` produces byte-identical report
bodies (wall time is carried separately and never enters the body).  Every
claim draws from its own generator seeded by (config seed, crc32(claim id)),
so claims are independent and order-insensitive.  total-geodesy and
ciriza-linearity also take their embeddings' phases from
``standard_catalog(n, seed=cfg.seed % 1000)``, whose generator is seeded by
cfg.seed % 1000 + n, not by the claim id.
"""

from __future__ import annotations

import csv
import json
import os
import time
import traceback
import zlib
from dataclasses import dataclass, field, fields
from math import exp, inf, log1p
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .curvature import curvature_at, curvature_symmetry_residual
from .darboux import DarbouxMap, properness_auto_scan, unit_directions
from .potentials import (
    CigarProductPotential,
    PotentialModel,
    SampleRegion,
    SolitonPotential,
    cond0_scan,
    poly_test_model,
    radial_coords,
    sample_polydisc,
    shipped_models,
)
from .soliton import SolitonProfile, profile_table
from .submanifolds import (
    _LINEARITY_BOUND,
    HoloCurvePair,
    a_obstruction,
    ciriza_image_check,
    curvature_defect,
    curve_geodesy_residual,
    curve_image_rank,
    graph_counterexample_pair,
    standard_catalog,
    total_geodesy_residual,
)
from .geodesics import GeodesicTrajectory

__all__ = [
    "RunConfig",
    "VerificationReport",
    "CLAIM_IDS",
    "run_claim",
    "run_suite",
    "pullback_report",
    "write_profile_csv",
    "write_geodesic_csv",
    "resolve_out",
    "OUTDIR_ENV",
]

OUTDIR_ENV = "DARBOUXKIT_OUTDIR"

_RADIUS = 5.0  # polydisc radius of the sampled claims and the cond0 scan
_PROPERNESS_THRESHOLD = 1e3  # log S along every ray must end above log of this
_PULLBACK_BOUNDS = {"analytic": 1e-8, "fd": 1e-5}  # max pullback residual, per Jacobian method
_DEFECT_BOUND = 1e-8  # relative gap between the two curvature-defect routes


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Suite configuration; every field has a sensible default.

    ``claims``, a list of claim ids kept as a tuple, restricts which claims
    run (default all).  Tolerances, the sampling radius and the properness
    threshold are fixed by the claims.
    """

    seed: int = 20260814
    points: int = 100
    rays: int = 8
    geodesic_length: float = 10.0
    claims: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        for name, low in (("points", 1), ("rays", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"config error: {name} must be an integer >= {low}")
        length = self.geodesic_length
        real = isinstance(length, (int, float, np.integer, np.floating)) and not isinstance(length, bool)
        if not (real and 0.0 < length < inf):
            raise ValueError(f"config error: geodesic_length must be finite and > 0, got {length!r}")
        if self.claims is not None:
            if not isinstance(self.claims, (list, tuple)) or not all(isinstance(c, str) for c in self.claims):
                raise ValueError(f"config error: claims must be a list of claim ids, got {self.claims!r}")
            object.__setattr__(self, "claims", tuple(self.claims))
            for claim in self.claims:
                if claim not in CLAIM_IDS:
                    raise ValueError(f"config error: unknown claim id {claim!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"config error: unknown keys {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"config error: {path}: line {err.lineno} column {err.colno}: {err.msg}"
            ) from err
        if not isinstance(data, dict):
            raise ValueError(f"config error: {path}: top level must be an object")
        return cls.from_dict(data)

    def rng_for(self, claim: str) -> np.random.Generator:
        return np.random.default_rng((self.seed, zlib.crc32(claim.encode())))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _numpy_scalar(value):
    """``json.dumps`` hook: the numpy scalar a report body holds as its Python
    value; any other type raises json's own TypeError."""
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    return json.JSONEncoder().default(value)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim: pass iff max_residual <= tolerance."""

    claim: str
    model: object
    samples: int
    seed: int
    max_residual: float
    tolerance: float
    details: Mapping = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.max_residual <= self.tolerance)

    def body(self) -> str:
        """Canonical JSON body; excludes wall time so reruns match bytewise."""
        payload = {
            "claim": self.claim,
            "model": self.model,
            "samples": self.samples,
            "seed": self.seed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "details": self.details,
        }
        return json.dumps(payload, sort_keys=True, default=_numpy_scalar)

    def as_dict(self) -> dict:
        data = json.loads(self.body())
        data["wall_time_s"] = self.wall_time_s
        return data

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.claim:<22} residual={self.max_residual:.3e} "
            f"tolerance={self.tolerance:.3e}"
        )


# ---------------------------------------------------------------------------
# the claim skeleton
# ---------------------------------------------------------------------------

# a forward reference: evaluating np.random.Generator would load numpy.random
# at import, and only a claim run samples
_ClaimBody = Callable[[RunConfig, "np.random.Generator"], tuple[object, int, float, Mapping]]

# claim id -> (body, tolerance); ``run_claim`` turns a body's result into a report
_CLAIMS: dict[str, tuple[_ClaimBody, float]] = {}


def _claim(claim: str, tolerance: float) -> Callable[[_ClaimBody], _ClaimBody]:
    """Register ``body(cfg, rng) -> (models, samples, residual, details)`` as a
    claim with this id and tolerance; ``rng`` is the claim's own
    stream from ``cfg.rng_for``, and ``models`` is the model the claim ran or
    the list of them."""

    def register(body: _ClaimBody) -> _ClaimBody:
        _CLAIMS[claim] = (body, tolerance)
        return body

    return register


def _worst(values: Iterable[float]) -> float:
    """Largest of ``values`` (0.0 if none): every residual and every
    observed / bound ratio of a claim is reduced here.

    A NaN value makes the result NaN, which fails every tolerance; Python's
    ``max`` would silently drop it unless it came first.
    """
    return float(np.max(list(values), initial=0.0))


def _pullback_worst(dm: DarbouxMap, pts: np.ndarray, method: str) -> float:
    """Worst pullback residual of the ``method`` Jacobian over the points ``pts``,
    from one batched call."""
    return _worst(np.atleast_1d(dm.pullback_residual(pts, method=method)))


def _pullback_part(
    cfg: RunConfig, rng: np.random.Generator, models: Sequence[PotentialModel]
) -> tuple[float, dict]:
    per_model = {}
    ratios = []
    for model in models:
        dm = DarbouxMap(model)
        pts = sample_polydisc(rng, cfg.points, model.n, _RADIUS)
        part = {method: _pullback_worst(dm, pts, method) for method in _PULLBACK_BOUNDS}
        per_model[model.name] = part
        ratios += [part[method] / bound for method, bound in _PULLBACK_BOUNDS.items()]
    details = {
        "bounds": dict(_PULLBACK_BOUNDS),
        "per_model": per_model,
        "radius": _RADIUS,
    }
    return _worst(ratios), details


def _descriptors(models: PotentialModel | Sequence[PotentialModel]) -> dict | list[dict]:
    """A report's ``model`` entry: the descriptor of the one model a claim ran,
    or the list of its models' descriptors."""
    if isinstance(models, PotentialModel):
        return models.descriptor()
    return [m.descriptor() for m in models]


# ---------------------------------------------------------------------------
# the claims
# ---------------------------------------------------------------------------


@_claim("soliton-pullback", 1.0)
def _claim_soliton_pullback(cfg: RunConfig, rng: np.random.Generator):
    models = [SolitonPotential(SolitonProfile(n)) for n in (1, 2, 3)]
    return (models, cfg.points, *_pullback_part(cfg, rng, models))


@_claim("cigar-pullback", 1.0)
def _claim_cigar_pullback(cfg: RunConfig, rng: np.random.Generator):
    models = [CigarProductPotential(n) for n in (1, 2, 3, 4)]
    models.append(poly_test_model())
    return (models, cfg.points, *_pullback_part(cfg, rng, models))


@_claim("profile-ode", 1e-9)
def _claim_profile_ode(cfg: RunConfig, rng: np.random.Generator):
    grid = np.linspace(-10.0, 10.0, 200)
    models = [SolitonPotential(SolitonProfile(n)) for n in (1, 2, 3)]
    per_n = {}
    for model in models:
        profile = model.profile
        resid = _worst(profile.ode_residual(t) for t in grid)
        inv = _worst(
            profile.inversion_residual(t) for t in (-25.0, -5.0, 0.0, 5.0, 25.0, 400.0)
        )
        per_n[f"n={model.n}"] = {"ode_residual": resid, "inversion_residual": inv}
    worst = _worst(part["ode_residual"] for part in per_n.values())
    details = {"grid": [-10.0, 10.0, 200], "per_n": per_n}
    return models, 200, worst, details


@_claim("profile-closed-form", 1e-10)
def _claim_profile_closed_form(cfg: RunConfig, rng: np.random.Generator):
    profile = SolitonProfile(1)
    grid = np.linspace(-20.0, 20.0, 200)
    jets = [profile.derivatives(t)[:2] for t in grid]
    gap_prime = _worst(abs(up - log1p(exp(t))) for t, (up, _) in zip(grid, jets))
    gap_second = _worst(abs(us - exp(t) / (1.0 + exp(t))) for t, (_, us) in zip(grid, jets))
    details = {
        "grid": [-20.0, 20.0, 200],
        "max_gap_u_prime": gap_prime,
        "max_gap_u_second": gap_second,
    }
    return SolitonPotential(profile), 200, gap_prime, details


@_claim("profile-limits", 1.0)
def _claim_profile_limits(cfg: RunConfig, rng: np.random.Generator):
    checkpoints = (50.0, 100.0, 200.0)
    models = [SolitonPotential(SolitonProfile(n)) for n in (1, 2, 3)]
    per_n = {}
    ratios = []
    for model in models:
        n, profile = model.n, model.profile
        jets = [profile.derivatives(t)[:2] for t in checkpoints]
        slope_gaps = [abs(up / t - n) for t, (up, _) in zip(checkpoints, jets)]
        second_gaps = [abs(us - n) for _, us in jets]
        # gaps below the solver-noise floor count as converged: their ups and
        # downs are roundoff, not a monotonicity signal
        floor = 1e-9
        mono_violation = np.max(np.diff(np.maximum([slope_gaps, second_gaps], floor), axis=1))
        ratios += [
            slope_gaps[-1] / (0.05 * n),
            second_gaps[-1] / 0.05,
            0.0 if mono_violation <= 1e-12 else 1.0 + mono_violation,
        ]
        per_n[f"n={n}"] = {
            "slope_gaps": slope_gaps,
            "second_gaps": second_gaps,
            "bounds": {"slope": 0.05 * n, "second": 0.05},
        }
    details = {"checkpoints": list(checkpoints), "per_n": per_n}
    return models, len(checkpoints), _worst(ratios), details


@_claim("cigar-curvature", 1.0)
def _claim_cigar_curvature(cfg: RunConfig, rng: np.random.Generator):
    bounds = {"identity": 1e-8, "mixed": 1e-8, "fd": 1e-5}
    models = [CigarProductPotential(n) for n in (1, 2, 3)]
    per_model = {}
    ratios = []
    for model in models:
        n = model.n
        pts = sample_polydisc(rng, cfg.points, n, _RADIUS)
        tensors = curvature_at(model, pts)
        idx = np.arange(n)
        off_diagonal = np.ones((n,) * 4, dtype=bool)
        off_diagonal[idx, idx, idx, idx] = False
        identity = np.abs(tensors[:, idx, idx, idx, idx].real * (1.0 + radial_coords(pts)) ** 3 - 1.0)
        mixed = np.max(np.abs(tensors[:, off_diagonal]), axis=-1, initial=0.0)
        # FD calls of five points, rows bit for bit their single-point calls: a
        # stencil holds 1 + 8n + 32n^2 metric rows per point, and 25 at once raised peak RSS ~11%
        fd = [
            np.max(np.abs(tensors[k:k + 5] - curvature_at(model, pts[k:k + 5], method="fd")), axis=(1, 2, 3, 4))
            for k in range(0, min(25, cfg.points), 5)
        ]
        part = {
            "identity": _worst(identity.ravel()),
            "mixed": _worst(mixed),
            "fd_agreement": _worst(np.concatenate(fd)),
            "symmetry": _worst(curvature_symmetry_residual(tensors)),
        }
        per_model[model.name] = part
        ratios += [
            part["identity"] / bounds["identity"],
            part["mixed"] / bounds["mixed"],
            part["fd_agreement"] / bounds["fd"],
        ]
    details = {"bounds": bounds, "per_model": per_model}
    return models, cfg.points, _worst(ratios), details


def _random_pair(rng: np.random.Generator) -> HoloCurvePair:
    def coeffs() -> np.ndarray:
        return 0.7 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))

    return HoloCurvePair(coeffs(), coeffs())


@_claim("defect-identity", 1.0)
def _claim_defect_identity(cfg: RunConfig, rng: np.random.Generator):
    phase_bound, sign_bound = 1e-12, 1e-12
    # per pair: draw the pair, then its 50 points
    maxima = [_defect_maxima(_random_pair(rng), sample_polydisc(rng, 50, 1, 1.5)[:, 0]) for _ in range(20)]
    agreement, directs = zip(*maxima)
    phase = []
    for _ in range(20):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        pair = HoloCurvePair((1.0,), (complex(np.cos(theta), np.sin(theta)),))
        phase += abs(a_obstruction(pair, sample_polydisc(rng, 10, 1, 1.5)[:, 0])).tolist()
    agree_res, phase_res, sign_res = _worst(agreement), _worst(phase), _worst(directs)
    worst = _worst([agree_res / _DEFECT_BOUND, phase_res / phase_bound, sign_res / sign_bound])
    details = {
        "bounds": {"agreement": _DEFECT_BOUND, "phase_curves": phase_bound, "sign": sign_bound},
        "agreement": agree_res,
        "phase_curves": phase_res,
        "max_direct_defect": sign_res,
        "pairs": 20,
        "points_per_pair": 50,
    }
    # the curve pairs live in the two-cigar model
    return CigarProductPotential(2), 20 * 50, worst, details


@_claim("total-geodesy", 1.0)
def _claim_total_geodesy(cfg: RunConfig, rng: np.random.Generator):
    catalog_bound, counter_bound = 1e-7, 1e-2
    models = [
        CigarProductPotential(2),
        CigarProductPotential(3),
        SolitonPotential(SolitonProfile(2)),
    ]
    per_embedding = {}
    for model in models:
        catalog = standard_catalog(model.n, seed=cfg.seed % 1000)
        starts, vels = [], []
        for emb in catalog:
            p = 0.8 * (rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k))
            q = rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k)
            starts.append(emb.embed(p))
            vels.append(emb.matrix @ q)
        residuals = total_geodesy_residual(model, catalog, starts, vels, cfg.geodesic_length)
        for i, (emb, res) in enumerate(zip(catalog, residuals)):
            per_embedding[f"{model.name}/{i}:sigma={emb.sigma}"] = float(res)
    catalog_res = _worst(per_embedding.values())
    pair = graph_counterexample_pair()
    departure = _worst(curve_geodesy_residual(models[0], pair, np.array([0.5, 0.9]), cfg.geodesic_length))
    details = {
        "bounds": {"catalog": catalog_bound, "counterexample_min": counter_bound},
        "catalog_max_residual": catalog_res,
        "counterexample_departure": departure,
        "per_embedding": per_embedding,
        "arclength": cfg.geodesic_length,
    }
    worst = _worst([catalog_res / catalog_bound, counter_bound / departure])
    return models, len(per_embedding), worst, details


@_claim("ciriza-linearity", 1.0)
def _claim_ciriza(cfg: RunConfig, rng: np.random.Generator):
    models = [CigarProductPotential(n) for n in (2, 3, 4)]
    per_embedding = {}
    ratios = []
    for model in models:
        n, dm = model.n, DarbouxMap(model)
        for i, emb in enumerate(standard_catalog(n, seed=cfg.seed % 1000)):
            report = ciriza_image_check(dm, emb, samples=50, seed=int(rng.integers(2**31)))
            per_embedding[f"cigar-n{n}/{i}:sigma={emb.sigma}"] = {
                "residual": report.max_residual,
                "rank": report.rank,
                "k": report.expected_rank,
            }
            ratios.append(report.max_residual / _LINEARITY_BOUND)
            ratios.append(0.0 if report.rank == report.expected_rank else 2.0)
    dm2 = DarbouxMap(CigarProductPotential(2))
    counter_rank = curve_image_rank(dm2, graph_counterexample_pair(), seed=int(rng.integers(2**31)))
    ratios.append(0.0 if counter_rank >= 2 else 2.0)
    details = {
        "bounds": {"residual": _LINEARITY_BOUND},
        "per_embedding": per_embedding,
        "counterexample_rank": counter_rank,
        "samples_per_embedding": 50,
    }
    return models, 50, _worst(ratios), details


@_claim("map-side-conditions", 1.0)
def _claim_side_conditions(cfg: RunConfig, rng: np.random.Generator):
    models = shipped_models()
    per_model = {}
    ratios = []
    for model in models:
        region = SampleRegion(radius=_RADIUS, count=cfg.points, seed=int(rng.integers(2**31)))
        cond0 = cond0_scan(model, region)
        directions = unit_directions(model.n, cfg.rays, rng)
        properness = properness_auto_scan(DarbouxMap(model), directions, _PROPERNESS_THRESHOLD)
        min_eig = cond0.min_metric_eigenvalue
        ratios += [
            0.0 if cond0.min_value >= 0.0 else 1.0 + abs(cond0.min_value),
            0.0 if min_eig > 0.0 else 1.0 + abs(min_eig),
            0.0 if properness.passed else 1.0,
        ]
        per_model[model.name] = {
            "min_first_deriv": cond0.min_value,
            "min_metric_eigenvalue": min_eig,
            "properness_pass": properness.passed,
            "final_log_growth": [float(v) for v in properness.final_log_values],
            "top_radius": properness.radii[-1],
        }
    details = {
        "per_model": per_model,
        "rays": cfg.rays,
        "threshold": _PROPERNESS_THRESHOLD,
    }
    return models, cfg.points, _worst(ratios), details


CLAIM_IDS: tuple[str, ...] = tuple(sorted(_CLAIMS))


def run_claim(claim: str, cfg: RunConfig) -> VerificationReport:
    """Run one claim; solver failures become failed reports, not crashes."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim id {claim!r}")
    body, tolerance = _CLAIMS[claim]
    start = time.perf_counter()
    try:
        models, samples, residual, details = body(cfg, cfg.rng_for(claim))
        model, residual = _descriptors(models), float(residual)
    except Exception as err:  # noqa: BLE001 - failures must surface as reports
        model, samples, residual = None, 0, inf
        details = {"error": f"{type(err).__name__}: {err}", "traceback": traceback.format_exc()}
    return VerificationReport(
        claim=claim,
        model=model,
        samples=samples,
        seed=cfg.seed,
        max_residual=residual,
        tolerance=tolerance,
        details=details,
        wall_time_s=time.perf_counter() - start,
    )


def run_suite(cfg: RunConfig) -> list[VerificationReport]:
    """Run every enabled claim, ordered by claim id."""
    enabled = cfg.claims if cfg.claims is not None else CLAIM_IDS
    return [run_claim(claim, cfg) for claim in sorted(enabled)]


# ---------------------------------------------------------------------------
# one-shot checks (CLI schema)
# ---------------------------------------------------------------------------


def pullback_report(
    model: PotentialModel,
    points: int = 100,
    radius: float = 5.0,
    seed: int = 20260814,
    method: str = "analytic",
) -> dict:
    """The fixed five-key JSON report for the pullback identity check, judged
    by the suite's bound for ``method``."""
    if points < 1:
        raise ValueError("points must be >= 1")
    rng = np.random.default_rng(seed)
    pts = sample_polydisc(rng, points, model.n, radius)
    residual = _pullback_worst(DarbouxMap(model), pts, method)
    return {
        "model": model.name,
        "n": model.n,
        "max_residual": residual,
        "points_checked": int(points),
        "pass": bool(residual <= _PULLBACK_BOUNDS[method]),
    }


def _defect_maxima(pair: HoloCurvePair, zs: np.ndarray) -> tuple[float, float]:
    """(max relative gap |direct - viaA| / max(1, |direct|), max direct defect)
    of ``curvature_defect`` over the points ``zs``; a NaN at any point propagates
    to both maxima (Python's ``max`` would drop it)."""
    direct, via_a = curvature_defect(pair, np.asarray(zs, dtype=complex))
    # fmax, like Python's max(1.0, x), gives 1.0 for a NaN x
    gaps = abs(direct - via_a) / np.fmax(1.0, abs(direct))
    return float(np.max(gaps, initial=0.0)), float(np.max(direct, initial=-np.inf))


# ---------------------------------------------------------------------------
# CSV data files
# ---------------------------------------------------------------------------


def resolve_out(out: str | Path, outdir: str | Path | None = None) -> Path:
    """The one output-path rule; creates the parent directory.

    A relative ``out`` lands in ``outdir`` if given, else in the directory
    named by $DARBOUXKIT_OUTDIR, else in the current directory.  An absolute
    ``out`` is used as is.
    """
    path = Path(outdir or os.environ.get(OUTDIR_ENV) or ".") / out
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: Sequence[str], rows) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return path


def write_profile_csv(
    profile: SolitonProfile, t_min: float, t_max: float, count: int, out: str | Path | None = None
) -> Path:
    """Write ``profile_table`` as CSV (t, u_prime, u_second, ode_residual);
    returns its path.  ``out`` defaults to profile-n<n>.csv and is placed by
    ``resolve_out``."""
    rows = profile_table(profile, t_min, t_max, count)
    path = resolve_out(f"profile-n{profile.n}.csv" if out is None else out)
    return _write_csv(path, ["t", "u_prime", "u_second", "ode_residual"], rows)


def write_geodesic_csv(
    model: PotentialModel, trajectory: GeodesicTrajectory, out: str | Path | None = None
) -> Path:
    """Write a ``geodesic_integrate`` trajectory of ``model`` as CSV (tau,
    re_z1, im_z1, ..., energy_drift), converged or not; returns its path.
    ``out`` defaults to geodesic-<model name>.csv and is placed by
    ``resolve_out``."""
    coords = [f"{part}_z{j}" for j in range(1, model.n + 1) for part in ("re", "im")]
    # a C-contiguous complex row viewed as floats reads re_z1, im_z1, re_z2, ...
    rows = np.column_stack([trajectory.times, trajectory.points.view(float), trajectory.drifts])
    path = resolve_out(f"geodesic-{model.name}.csv" if out is None else out)
    return _write_csv(path, ["tau", *coords, "energy_drift"], rows)
