"""Which library callables are traced, and the per-layer metrics read off them.

Layers are the package modules, in call order: ``soliton`` (profile root
solves) -> ``potentials`` -> ``curvature`` / ``darboux`` -> ``geodesics`` ->
``submanifolds`` -> ``reporting``.  ``cli`` is a thin shell over
``reporting`` and has no layer of its own.

``LAYER_METRICS`` is the single table of per-layer metrics.  Each entry names
the workloads on which the metric must read nonzero after a traced run (on
every other workload it must read exactly 0, so a missed binding site or a
wrong prediction fails loudly), and the end-to-end metric it should move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tracer import Tracer

SUITE, CIGAR, SOLITON = "suite", "cigar-fields", "soliton-fields"
ALL = frozenset({SUITE, CIGAR, SOLITON})
FIELDS = frozenset({CIGAR, SOLITON})

# branch seams of the profile solve and the radial derivative, read from the
# argument of each call: t <= -3 series, n*t <= 60 direct Newton, else log
# Newton; s < 0.1 radial series, else the chain rule through the profile
SERIES_T, LOG_BRANCH_NT, RADIAL_SERIES_S = -3.0, 60.0, 0.1

# the benchmark's own copy of the claim ids, so that metric names stay fixed
# even if the library's list changes
CLAIM_IDS = (
    "cigar-curvature",
    "cigar-pullback",
    "ciriza-linearity",
    "defect-identity",
    "map-side-conditions",
    "profile-closed-form",
    "profile-limits",
    "profile-ode",
    "soliton-pullback",
    "total-geodesy",
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    nonzero_on: frozenset | None  # None: not a coverage metric (a wall time)
    moves: str


def _calls_and_self(base: str, nonzero_on, moves: str) -> list[LayerMetric]:
    return [
        LayerMetric(f"{base}.calls", "count", "lower", nonzero_on, moves),
        LayerMetric(f"{base}.self_s", "s", "lower", nonzero_on, moves),
    ]


_SOLITON_MOVES = (
    "pass_cost on suite (total-geodesy, soliton-pullback, map-side-conditions) "
    "and on soliton-fields; reads 0 on cigar-fields"
)
_TENSOR_MOVES = "pass_cost on cigar-fields (poly ndindex fill, cigar per-coordinate loop)"
_CURV_MOVES = "pass_cost on both *-fields workloads and on suite (total-geodesy)"
_MAP_MOVES = "pass_cost on both *-fields workloads"
_SIDE_MOVES = "pass_cost on suite (map-side-conditions); reads 0 on *-fields"
_GEO_MOVES = "pass_cost on suite (total-geodesy) only; reads 0 on both *-fields"
_SUB_MOVES = "pass_cost on suite (total-geodesy); reads 0 on *-fields"

LAYER_METRICS: list[LayerMetric] = [
    LayerMetric("soliton.u_prime.calls", "count", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.u_prime.calls.series", "count", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.u_prime.calls.direct", "count", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.u_prime.calls.log", "count", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.u_prime.self_s", "s", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.FIntegral.eval.calls", "count", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.FIntegral.log_eval.calls", "count", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.f_evals_per_solve", "count", "lower", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    LayerMetric("soliton.solves_per_point", "count", "lower", frozenset({SOLITON}),
                "pass_cost on soliton-fields; reads 0 where no point pipeline runs"),
    *_calls_and_self("soliton.derivatives", frozenset({SUITE, SOLITON}), _SOLITON_MOVES),
    *_calls_and_self("potentials.derivative_tensors.cigar", frozenset({SUITE, CIGAR}), _TENSOR_MOVES),
    *_calls_and_self("potentials.derivative_tensors.soliton", frozenset({SUITE, SOLITON}),
                     "pass_cost on soliton-fields and suite"),
    *_calls_and_self("potentials.derivative_tensors.poly", frozenset({SUITE, CIGAR}), _TENSOR_MOVES),
    *_calls_and_self("potentials.SolitonPotential.radial_deriv", frozenset({SUITE, SOLITON}),
                     "pass_cost on soliton-fields and suite"),
    LayerMetric("potentials.SolitonPotential.radial_deriv.calls.series", "count", "lower",
                frozenset({SUITE, SOLITON}), "branch coverage of the s = 0.1 seam"),
    LayerMetric("potentials.SolitonPotential.radial_deriv.calls.chain", "count", "lower",
                frozenset({SUITE, SOLITON}), "branch coverage of the s = 0.1 seam"),
    *_calls_and_self("potentials.metric_at", ALL, _TENSOR_MOVES + "; pass_cost on suite"),
    *_calls_and_self("potentials.log_ray_growth", frozenset({SUITE}), _SIDE_MOVES),
    *_calls_and_self("curvature.christoffel_at", ALL, _CURV_MOVES),
    *_calls_and_self("curvature.metric_z_derivative", ALL, _CURV_MOVES),
    *_calls_and_self("curvature.curvature_at.analytic", ALL, _CURV_MOVES),
    *_calls_and_self("curvature.curvature_at.fd", frozenset({SUITE}), "pass_cost on suite (cigar-curvature)"),
    *_calls_and_self("darboux.map_point", ALL, _MAP_MOVES),
    *_calls_and_self("darboux.jacobian.analytic", ALL, _MAP_MOVES),
    *_calls_and_self("darboux.jacobian.fd", ALL, _MAP_MOVES),
    *_calls_and_self("darboux.pullback_residual", ALL, _MAP_MOVES),
    *_calls_and_self("darboux.properness_scan", frozenset({SUITE}), _SIDE_MOVES),
    LayerMetric("darboux.properness_rungs_per_scan", "count", "lower", frozenset({SUITE}), _SIDE_MOVES),
    *_calls_and_self("geodesics.geodesic_integrate", frozenset({SUITE}), _GEO_MOVES),
    LayerMetric("geodesics.rk4_steps", "count", "lower", frozenset({SUITE}), _GEO_MOVES),
    LayerMetric("geodesics.rk4_runs_per_integrate", "count", "lower", frozenset({SUITE}), _GEO_MOVES),
    LayerMetric("submanifolds.total_geodesy_residual.total_s", "s", "lower", frozenset({SUITE}), _SUB_MOVES),
    LayerMetric("submanifolds.curve_geodesy_residual.total_s", "s", "lower", frozenset({SUITE}), _SUB_MOVES),
    *_calls_and_self("submanifolds.curve_distance", frozenset({SUITE}), _SUB_MOVES),
    LayerMetric("submanifolds.ciriza_image_check.self_s", "s", "lower", frozenset({SUITE}), _SUB_MOVES),
    LayerMetric("submanifolds.curvature_defect.self_s", "s", "lower", frozenset({SUITE}), _SUB_MOVES),
    *[
        LayerMetric(f"reporting.run_claim.{claim}.s", "s", "lower", frozenset({SUITE}),
                    "pass_cost on suite; untraced wall_time_s of the claim")
        for claim in CLAIM_IDS
    ],
    LayerMetric("reporting.VerificationReport.body.self_s", "s", "lower", frozenset({SUITE}),
                "nothing: serialising the report bodies is predicted not to matter"),
    LayerMetric("fields.points_per_s", "1/s", "higher", FIELDS, "pass_cost on both *-fields; untraced"),
    LayerMetric("fields.point_p50_ms", "ms", "lower", FIELDS, "pass_cost on both *-fields; untraced"),
    LayerMetric("fields.point_p90_ms", "ms", "lower", FIELDS, "diagnostic tail; untraced"),
    LayerMetric("fields.point_p99_ms", "ms", "lower", FIELDS, "diagnostic tail; untraced"),
    LayerMetric("fields.jets_per_s", "1/s", "higher", frozenset({SOLITON}), "pass_cost on soliton-fields; untraced"),
    LayerMetric("pass.wall_s", "s", "lower", ALL,
                "pass_cost on every workload; median pass wall time less reference samples, untraced"),
    LayerMetric("machine.ref_ms", "ms", "lower", ALL,
                "nothing in the program: median reference-kernel time, the machine's speed"),
    LayerMetric("trace.spans", "count", "lower", ALL, "nothing: size of the span record"),
    LayerMetric("trace.overhead_s", "s", "lower", None,
                "nothing: traced wall minus untraced wall over the same passes"),
]


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _method_arg(args, kwargs, position: int, default: str) -> str:
    if "method" in kwargs:
        return kwargs["method"]
    return args[position] if len(args) > position else default


def install(tracer: Tracer) -> None:
    """Wrap every traced callable of the loaded ``darbouxkit`` package."""
    from darbouxkit import curvature, darboux, geodesics, potentials, reporting, soliton, submanifolds

    pkg = "darbouxkit"

    def span_method(cls, attr, name, classify=None):
        tracer.patch_method(cls, attr, tracer.span_wrapper(cls.__dict__[attr], name, classify))

    def span_function(module, attr, name, classify=None):
        fn = getattr(module, attr)
        tracer.patch_function(fn, tracer.span_wrapper(fn, name, classify), pkg)

    u_prime_id = tracer.name_id("soliton.u_prime")

    def u_prime_branch(args, kwargs):
        profile, t = args[0], float(args[1])
        if t <= SERIES_T:
            tracer.bump("series")
        elif profile.n * t <= LOG_BRANCH_NT:
            tracer.bump("direct")
        else:
            tracer.bump("log")
        return u_prime_id

    radial_id = tracer.name_id("potentials.SolitonPotential.radial_deriv")

    def radial_branch(args, kwargs):
        tracer.bump("radial.series" if float(args[1]) < RADIAL_SERIES_S else "radial.chain")
        return radial_id

    span_method(soliton.SolitonProfile, "u_prime", "soliton.u_prime", u_prime_branch)
    span_method(soliton.SolitonProfile, "derivatives", "soliton.derivatives")
    for attr in ("eval", "log_eval"):
        cls = soliton.FIntegral
        tracer.patch_method(cls, attr, tracer.count_wrapper(cls.__dict__[attr], f"FIntegral.{attr}"))

    for cls, kind in (
        (potentials.CigarProductPotential, "cigar"),
        (potentials.SolitonPotential, "soliton"),
        (potentials.PolyTestPotential, "poly"),
    ):
        span_method(cls, "derivative_tensors", f"potentials.derivative_tensors.{kind}")
        span_method(cls, "log_ray_growth", "potentials.log_ray_growth")
    span_method(potentials.SolitonPotential, "radial_deriv", "potentials.SolitonPotential.radial_deriv",
                radial_branch)
    span_function(potentials, "metric_at", "potentials.metric_at")

    span_function(curvature, "christoffel_at", "curvature.christoffel_at")
    span_function(curvature, "metric_z_derivative", "curvature.metric_z_derivative")
    curv_ids = {m: tracer.name_id(f"curvature.curvature_at.{m}") for m in ("analytic", "fd")}
    span_function(curvature, "curvature_at", "curvature.curvature_at.analytic",
                  lambda a, k: curv_ids[_method_arg(a, k, 2, "analytic")])

    jac_ids = {m: tracer.name_id(f"darboux.jacobian.{m}") for m in ("analytic", "fd")}
    span_method(darboux.DarbouxMap, "map_point", "darboux.map_point")
    span_method(darboux.DarbouxMap, "jacobian", "darboux.jacobian.analytic",
                lambda a, k: jac_ids[_method_arg(a, k, 2, "analytic")])
    span_method(darboux.DarbouxMap, "pullback_residual", "darboux.pullback_residual")
    span_method(darboux.DarbouxMap, "properness_scan", "darboux.properness_scan")
    span_function(darboux, "properness_auto_scan", "darboux.properness_auto_scan")

    span_function(geodesics, "geodesic_integrate", "geodesics.geodesic_integrate")
    fn = geodesics._rk4_run
    tracer.patch_function(fn, tracer.count_wrapper(fn, "geodesics._rk4_run"), pkg)

    for attr in (
        "total_geodesy_residual",
        "curve_geodesy_residual",
        "curve_distance",
        "ciriza_image_check",
        "curvature_defect",
    ):
        span_function(submanifolds, attr, f"submanifolds.{attr}")

    span_function(reporting, "run_claim", "reporting.run_claim")
    span_method(reporting.VerificationReport, "body", "reporting.VerificationReport.body")


# ---------------------------------------------------------------------------
# reading the metrics off a traced run
# ---------------------------------------------------------------------------


def traced_metrics(tracer: Tracer, point_ops: np.ndarray) -> dict[str, float]:
    """Every tracer-derived per-layer metric; ``point_ops`` are the op ids of
    point pipelines in the traced run."""
    summary = tracer.summarize()
    spans = tracer.span_arrays()

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        for suffix, key in ((".calls", "calls"), (".self_s", "self_s"), (".total_s", "total_s")):
            base = metric.name[: -len(suffix)]
            if metric.name.endswith(suffix) and base in summary:
                out[metric.name] = summary[base][key]
    branches = tracer.branch_counts
    for branch in ("series", "direct", "log"):
        out[f"soliton.u_prime.calls.{branch}"] = branches.get(branch, 0)
    for branch in ("series", "chain"):
        out[f"potentials.SolitonPotential.radial_deriv.calls.{branch}"] = branches.get(f"radial.{branch}", 0)
    evals = tracer.count("FIntegral.eval")
    log_evals = tracer.count("FIntegral.log_eval")
    out["soliton.FIntegral.eval.calls"] = evals
    out["soliton.FIntegral.log_eval.calls"] = log_evals
    out["soliton.f_evals_per_solve"] = ratio(
        evals + log_evals, branches.get("direct", 0) + branches.get("log", 0)
    )
    u_prime_id = tracer.names.index("soliton.u_prime")
    in_points = np.isin(spans["op"], point_ops)
    out["soliton.solves_per_point"] = ratio(
        int(np.count_nonzero(in_points & (spans["name"] == u_prime_id))), len(point_ops)
    )
    out["darboux.properness_rungs_per_scan"] = ratio(
        tracer.count_under("darboux.properness_scan", "darboux.properness_auto_scan"),
        calls("darboux.properness_auto_scan"),
    )
    out["geodesics.rk4_steps"] = (
        tracer.count_under("curvature.christoffel_at", "geodesics.geodesic_integrate") / 4
    )
    out["geodesics.rk4_runs_per_integrate"] = ratio(
        tracer.count("geodesics._rk4_run"), calls("geodesics.geodesic_integrate")
    )
    out["trace.spans"] = len(spans["name"])
    return out


def coverage_errors(workload: str, metrics: dict[str, float]) -> list[str]:
    """Metrics that read 0 where a wrapper must fire, or nonzero where 0 is predicted."""
    errors = []
    for metric in LAYER_METRICS:
        if metric.nonzero_on is None:
            continue
        value = metrics[metric.name]
        if workload in metric.nonzero_on and not value > 0:
            errors.append(f"{metric.name} = {value} on {workload}, predicted nonzero")
        if workload not in metric.nonzero_on and value != 0:
            errors.append(f"{metric.name} = {value} on {workload}, predicted 0")
    return errors
