"""darbouxkit: explicit global Darboux coordinates for rotation-invariant
Kahler metrics on C^n, with numerical verification of every construction step.

The package builds the coordinate change w_j = sqrt(dPhi/dt_j) * z_j for
potentials Phi(|z_1|^2, ..., |z_n|^2) — products of cigar factors, radial
steady-soliton potentials, and polynomial test potentials — and checks:

* the symplectic pullback identity of the map (analytic and FD Jacobians),
* the soliton profile ODE, its closed n = 1 form, and its two-sided limits,
* positivity/properness side conditions that make the map global,
* curvature tensors (closed cigar form vs. two independent computations),
* total geodesy of the phase-block submanifold catalog plus the curvature-
  defect identity that obstructs everything else,
* linearity of mapped totally geodesic submanifolds (and a rank failure for
  the shipped non-example).

See the ``darbouxkit`` CLI (``suite`` runs everything) or ``reporting.run_suite``.
"""

import importlib

from . import curvature, darboux, potentials, soliton
from .soliton import *
from .potentials import *
from .darboux import *
from .curvature import *

__version__ = "0.1.0"

# The claim layers load on first use: evaluating a point reads none of them,
# and reporting brings json, csv and traceback along.  ``__getattr__`` looks a
# name up in its module on every access and never binds it here, so a name
# rebound in its module (as the benchmark's tracer does) reads the same
# through the package.  tests/test_package.py holds these lists to the
# modules' own ``__all__``.
_ON_FIRST_USE = {
    "geodesics": ("GeodesicTrajectory", "GeodesicDriftError", "geodesic_integrate"),
    "submanifolds": (
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
    ),
    "reporting": (
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
    ),
}
_MODULE_OF = {name: module for module, names in _ON_FIRST_USE.items() for name in names}

__all__ = [
    *soliton.__all__,
    *potentials.__all__,
    *darboux.__all__,
    *curvature.__all__,
    *_MODULE_OF,
]


def __getattr__(name: str):
    """A public name of a claim layer, or the layer itself, imported on first use."""
    module = name if name in _ON_FIRST_USE else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ON_FIRST_USE, *_MODULE_OF})
