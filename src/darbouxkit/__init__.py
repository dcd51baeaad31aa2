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

from . import curvature, darboux, geodesics, potentials, reporting, soliton, submanifolds
from .soliton import *
from .potentials import *
from .darboux import *
from .curvature import *
from .geodesics import *
from .submanifolds import *
from .reporting import *

__version__ = "0.1.0"

__all__ = [
    *soliton.__all__,
    *potentials.__all__,
    *darboux.__all__,
    *curvature.__all__,
    *geodesics.__all__,
    *submanifolds.__all__,
    *reporting.__all__,
]
