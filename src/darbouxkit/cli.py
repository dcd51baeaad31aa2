"""Command-line front end.

Subcommands: verify-pullback, soliton-profile, geodesic, curvature, ciriza,
defect, suite.  Model arguments accept a path to a JSON descriptor file,
inline JSON, or the shorthand "kind:n" (e.g. "cigar:2", "soliton:3",
"poly:2").  Relative output paths are placed by ``reporting.resolve_out``.
All numeric output is full double-precision decimal.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
import sys
from pathlib import Path

import click
import numpy as np

from .curvature import _sectional, curvature_at, curvature_symmetry_residual
from .darboux import DarbouxMap, MapDomainError
from .geodesics import GeodesicDriftError, geodesic_integrate
from .potentials import metric_at, model_from_descriptor, sample_polydisc
from .reporting import (
    _DEFECT_BOUND,
    RunConfig,
    _defect_maxima,
    pullback_report,
    resolve_out,
    run_suite,
    write_geodesic_csv,
    write_profile_csv,
)
from .soliton import SolitonProfile
from .submanifolds import (
    HoloCurvePair,
    PhaseBlockEmbedding,
    a_obstruction,
    ciriza_image_check,
    curvature_defect,
)

__all__ = ["main"]


def _parse_complex(text: str) -> complex:
    # i is the imaginary unit only where it ends a number, so inf keeps its i
    cleaned = re.sub(r"i(?=$|[+-])", "j", text.strip().replace(" ", ""))
    try:
        return complex(cleaned)
    except ValueError as err:
        raise click.BadParameter(f"cannot parse complex number {text!r}") from err


def _parse_cvector(text: str) -> np.ndarray:
    return np.array([_parse_complex(part) for part in text.split(",")], dtype=complex)


def _load_model(value: str):
    path = Path(value)
    stripped = value.strip()
    try:
        if path.is_file():
            return model_from_descriptor(json.loads(path.read_text()))
        if stripped.startswith("{"):
            return model_from_descriptor(json.loads(stripped))
        if ":" in stripped:
            kind, _, n = stripped.partition(":")
            return model_from_descriptor({"kind": kind, "n": int(n)})
    except json.JSONDecodeError as err:
        raise click.BadParameter(f"{value}: line {err.lineno} column {err.colno}: {err.msg}") from err
    except ValueError as err:
        raise click.BadParameter(f"model {value!r}: {err}") from err
    raise click.BadParameter(
        f"model {value!r} is neither a file, inline JSON, nor 'kind:n' shorthand"
    )


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError raised inside as a usage error (exit 2), except a
    ``MapDomainError``: a valid model whose map is not global on the sample is
    a failed check (exit 1)."""
    try:
        yield
    except MapDomainError as err:
        raise click.ClickException(str(err)) from err
    except ValueError as err:
        raise click.BadParameter(str(err)) from err


def _write_json(payload: dict, out: str | None, outdir: str | None = None) -> None:
    if out is None:
        return
    path = resolve_out(out, outdir)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    click.echo(f"wrote {path}")


@click.group()
def main() -> None:
    """Global Darboux coordinates for rotation-invariant Kahler metrics."""


@main.command("verify-pullback")
@click.option("--model", "model_arg", required=True, help="descriptor file, inline JSON, or kind:n")
@click.option("--points", default=100, show_default=True, type=int)
@click.option("--radius", default=5.0, show_default=True, type=float)
@click.option("--seed", default=20260814, show_default=True, type=int)
@click.option("--method", default="analytic", type=click.Choice(["analytic", "fd"]), show_default=True)
@click.option("--out", default=None, help="write the JSON report here")
def verify_pullback_cmd(model_arg, points, radius, seed, method, out) -> None:
    """Check the symplectic pullback identity at random points (residual
    bound 1e-8 for the analytic Jacobian, 1e-5 for the FD one)."""
    model = _load_model(model_arg)
    with _usage_errors():
        report = pullback_report(model, points=points, radius=radius, seed=seed, method=method)
    click.echo(json.dumps(report, sort_keys=True, indent=2))
    _write_json(report, out)
    sys.exit(0 if report["pass"] else 1)


@main.command("soliton-profile")
@click.option("--n", default=2, show_default=True, type=int)
@click.option("--t-min", default=-10.0, show_default=True, type=float)
@click.option("--t-max", default=10.0, show_default=True, type=float)
@click.option("--count", default=200, show_default=True, type=int)
@click.option("--out", default=None, help="CSV path (default profile-n<N>.csv)")
def soliton_profile_cmd(n, t_min, t_max, count, out) -> None:
    """Tabulate the soliton profile derivatives and the ODE residual."""
    with _usage_errors():
        path = write_profile_csv(SolitonProfile(n), t_min, t_max, count, out)
    # the CSV holds repr'd floats, so its ode_residual column reads back exactly
    residuals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3)
    click.echo(f"max ode residual on [{t_min!r}, {t_max!r}]: {float(np.max(residuals))!r}")
    click.echo(f"wrote {path}")


@main.command("geodesic")
@click.option("--model", "model_arg", required=True)
@click.option("--start", required=True, help="comma-separated complex coordinates")
@click.option("--vel", required=True, help="comma-separated complex velocity")
@click.option("--length", default=10.0, show_default=True, type=float)
@click.option("--steps", default=None, type=int)
@click.option("--out", default=None, help="CSV path for the trajectory")
def geodesic_cmd(model_arg, start, vel, length, steps, out) -> None:
    """Integrate a geodesic and dump (tau, coordinates, energy drift); exit 1
    after writing if the energy drift bound was not met."""
    model = _load_model(model_arg)
    z0 = _parse_cvector(start)
    v0 = _parse_cvector(vel)
    for name, vec in (("--start", z0), ("--vel", v0)):
        if vec.shape != (model.n,):
            raise click.BadParameter(
                f"{name} has {vec.size} coordinates, model {model.name} needs {model.n}"
            )
    with _usage_errors():
        trajectory = geodesic_integrate(model, z0, v0, length, steps=steps)
    click.echo(f"wrote {write_geodesic_csv(model, trajectory, out)}")
    try:
        trajectory.converged_points()
    except GeodesicDriftError as err:
        raise click.ClickException(str(err)) from err


@main.command("curvature")
@click.option("--model", "model_arg", required=True)
@click.option("--point", required=True, help="comma-separated complex coordinates")
@click.option("--method", default="analytic", type=click.Choice(["analytic", "fd"]), show_default=True)
@click.option("--out", default=None, help="write the tensor as JSON here")
def curvature_cmd(model_arg, point, method, out) -> None:
    """Evaluate the curvature tensor at one point."""
    model = _load_model(model_arg)
    z = _parse_cvector(point)
    if len(z) != model.n or not np.all(np.isfinite(z)):
        raise click.BadParameter(f"point {point!r} is not {model.n} finite coordinates")
    # a point past the float range fails below, with its own message, not numpy's warnings
    with _usage_errors(), np.errstate(all="ignore"):
        r = curvature_at(model, z, method=method)
        # the holomorphic sectional curvature along e_1 of the tensor printed below
        sectional = _sectional(r, metric_at(model, z), np.eye(model.n)[0])
    if not (np.all(np.isfinite(r)) and np.isfinite(sectional)):
        raise click.BadParameter(f"the curvature at point {point!r} is not finite")
    payload = {
        "model": model.name,
        "n": model.n,
        "point": [str(c) for c in z],
        "method": method,
        "tensor_re": r.real.tolist(),
        "tensor_im": r.imag.tolist(),
        "symmetry_residual": curvature_symmetry_residual(r),
        "sectional_first_axis": sectional,
    }
    click.echo(
        json.dumps(
            {k: payload[k] for k in ("model", "n", "point", "method", "symmetry_residual", "sectional_first_axis")},
            sort_keys=True,
            indent=2,
        )
    )
    _write_json(payload, out)


def _parse_embedding_spec(n: int, spec: str) -> PhaseBlockEmbedding:
    if "alpha=" not in spec or not spec.startswith("sigma="):
        raise click.BadParameter("spec must look like sigma=1,1,alpha=1,i")
    sigma_part, _, alpha_part = spec.partition("alpha=")
    sigma_part = sigma_part[len("sigma="):].rstrip(",")
    phases = tuple(_parse_complex(p) for p in alpha_part.split(","))
    if len(phases) < n:
        phases = phases + (1.0 + 0.0j,) * (n - len(phases))
    try:
        return PhaseBlockEmbedding(n, tuple(int(s) for s in sigma_part.split(",")), phases)
    except ValueError as err:
        raise click.BadParameter(f"spec {spec!r}: {err}") from err


@main.command("ciriza")
@click.option("--model", "model_arg", default="cigar:2", show_default=True, help="descriptor file, inline JSON, or kind:n")
@click.option("--spec", required=True, help="sigma=<list>,alpha=<list>; sigma entry 0 means the coordinate is identically zero")
@click.option("--samples", default=50, show_default=True, type=int)
@click.option("--seed", default=202614, show_default=True, type=int)
@click.option("--out", default=None, help="write the JSON report here")
def ciriza_cmd(model_arg, spec, samples, seed, out) -> None:
    """Check that the coordinate map sends a phase-block subspace to a
    complex-linear subspace (residual bound 1e-9)."""
    model = _load_model(model_arg)
    embedding = _parse_embedding_spec(model.n, spec)
    with _usage_errors():
        report = ciriza_image_check(DarbouxMap(model), embedding, samples=samples, seed=seed)
    click.echo(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    _write_json(report.as_dict(), out)
    sys.exit(0 if report.passed else 1)


@main.command("defect")
@click.option("--f1", required=True, help="ascending coefficients from the linear term, e.g. '1' is z")
@click.option("--f2", required=True, help="e.g. '0,1' is z^2")
@click.option("--points", default=50, show_default=True, type=click.IntRange(min=1))
@click.option("--radius", default=1.5, show_default=True, type=float)
@click.option("--seed", default=202616, show_default=True, type=int)
@click.option("--at", "at_point", default=None, help="also print A and both defect routes at this complex point")
def defect_cmd(f1, f2, points, radius, seed, at_point) -> None:
    """Compare both routes to the curvature defect of a holomorphic curve
    (relative gap bound 1e-8)."""
    with _usage_errors():
        pair = HoloCurvePair(
            [_parse_complex(c) for c in f1.split(",")],
            [_parse_complex(c) for c in f2.split(",")],
        )
        zs = sample_polydisc(np.random.default_rng(seed), points, 1, radius)[:, 0]
        max_gap, max_direct = _defect_maxima(pair, zs)
    payload = {
        "f1": f1,
        "f2": f2,
        "points": points,
        "max_relative_gap": max_gap,
        "max_direct_defect": max_direct,
        "pass": bool(max_gap <= _DEFECT_BOUND),
    }
    if at_point is not None:
        z0 = _parse_complex(at_point)
        if not np.isfinite(z0):
            raise click.BadParameter(f"--at {at_point!r} is not a finite complex number")
        with _usage_errors():
            direct, via_a = curvature_defect(pair, z0)
            payload["at"] = {
                "z": str(z0),
                "a_obstruction": str(a_obstruction(pair, z0)),
                "direct": direct,
                "viaA": via_a,
            }
    click.echo(json.dumps(payload, sort_keys=True, indent=2))
    sys.exit(0 if payload["pass"] else 1)


@main.command("suite")
@click.option("--config", "config_path", default=None, help="JSON RunConfig file")
@click.option("--seed", default=None, type=int, help="override the config seed")
@click.option("--points", default=None, type=int)
@click.option("--claims", default=None, help="comma-separated subset of claim ids")
@click.option("--out", default=None, help="write the combined JSON report here")
@click.option("--outdir", default=None, help="output directory (else $DARBOUXKIT_OUTDIR)")
def suite_cmd(config_path, seed, points, claims, out, outdir) -> None:
    """Run every verification claim and exit 0 only if all pass."""
    try:
        cfg = RunConfig.from_json(config_path) if config_path else RunConfig()
        overrides = {}
        if seed is not None:
            overrides["seed"] = seed
        if points is not None:
            overrides["points"] = points
        if claims is not None:
            overrides["claims"] = tuple(c.strip() for c in claims.split(","))
        cfg = dataclasses.replace(cfg, **overrides)
    except (ValueError, OSError) as err:
        raise click.ClickException(str(err)) from err
    reports = run_suite(cfg)
    for report in reports:
        click.echo(report.summary_line())
    all_passed = all(r.passed for r in reports)
    total = sum(r.wall_time_s for r in reports)
    click.echo(f"{'ALL PASS' if all_passed else 'FAILURES PRESENT'} ({total:.1f}s)")
    payload = {
        "pass": all_passed,
        "reports": [r.as_dict() for r in reports],
    }
    _write_json(payload, out, outdir)
    sys.exit(0 if all_passed else 1)


if __name__ == "__main__":
    main()
