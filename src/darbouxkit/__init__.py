"""darbouxkit: explicit global Darboux coordinates for rotation-invariant
Kahler metrics on C^n, with numerical verification of every construction step.

The package builds the coordinate change w_j = sqrt(dPhi/dt_j) * z_j for
potentials Phi(|z_1|^2, ..., |z_n|^2) — products of cigar factors, radial
shrinking-soliton potentials, and polynomial test potentials — and checks:

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

from .soliton import FIntegral, ProfileSolveError, SolitonProfile, profile_table
from .potentials import (
    CigarProductPotential,
    Cond0Report,
    PolyTestPotential,
    PotentialModel,
    SampleRegion,
    SolitonPotential,
    cigar_radial_deriv,
    cond0_scan,
    flat_potential,
    fold_test_model,
    hermitian_to_two_form,
    metric_at,
    model_from_descriptor,
    poly_test_model,
    radial_coords,
    sample_polydisc,
    shipped_models,
    soliton_potential,
    two_form_at,
)
from .darboux import (
    DarbouxMap,
    MapDomainError,
    PropernessReport,
    properness_auto_scan,
    std_symplectic,
    unit_directions,
)
from .curvature import (
    christoffel_at,
    curvature_at,
    curvature_symmetry_residual,
    holomorphic_sectional,
    metric_z_derivative,
)
from .geodesics import GeodesicDriftError, GeodesicState, GeodesicTrajectory, geodesic_integrate
from .submanifolds import (
    CirizaReport,
    CurveDistanceError,
    HoloCurvePair,
    InducedMetric1D,
    PhaseBlockEmbedding,
    a_obstruction,
    ciriza_image_check,
    curvature_defect,
    curve_distance,
    curve_geodesy_residual,
    curve_image_rank,
    graph_counterexample_pair,
    standard_catalog,
    total_geodesy_residual,
)
from .reporting import (
    CLAIM_IDS,
    OUTDIR_ENV,
    RunConfig,
    VerificationReport,
    emit_plot_data,
    pullback_report,
    resolve_out,
    run_claim,
    run_suite,
    suite_passed,
)

__version__ = "0.1.0"

__all__ = [
    "FIntegral",
    "SolitonProfile",
    "ProfileSolveError",
    "profile_table",
    "PotentialModel",
    "CigarProductPotential",
    "SolitonPotential",
    "PolyTestPotential",
    "soliton_potential",
    "flat_potential",
    "poly_test_model",
    "fold_test_model",
    "model_from_descriptor",
    "shipped_models",
    "radial_coords",
    "metric_at",
    "two_form_at",
    "hermitian_to_two_form",
    "cigar_radial_deriv",
    "sample_polydisc",
    "SampleRegion",
    "Cond0Report",
    "cond0_scan",
    "DarbouxMap",
    "MapDomainError",
    "std_symplectic",
    "unit_directions",
    "PropernessReport",
    "properness_auto_scan",
    "christoffel_at",
    "curvature_at",
    "holomorphic_sectional",
    "curvature_symmetry_residual",
    "metric_z_derivative",
    "GeodesicState",
    "GeodesicTrajectory",
    "GeodesicDriftError",
    "geodesic_integrate",
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
    "CurveDistanceError",
    "CirizaReport",
    "ciriza_image_check",
    "curve_image_rank",
    "RunConfig",
    "VerificationReport",
    "CLAIM_IDS",
    "run_claim",
    "run_suite",
    "suite_passed",
    "pullback_report",
    "emit_plot_data",
    "resolve_out",
    "OUTDIR_ENV",
]
