"""Shared test configuration: deterministic hypothesis profile and fixtures."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def seam_points(rng):
    """make(n) -> (3, n) points of C^n near the origin, near |z_j|^2 = 0.25 (the
    cigar series seam) and near s = sum_j |z_j|^2 = 0.1 (the radial series
    seam), so the FD stencils around them straddle each branch switch."""

    def make(n: int) -> np.ndarray:
        t = np.array([[1e-6], [0.25], [0.1 / n]]) + rng.uniform(-1e-3, 1e-3, size=(3, n))
        return np.sqrt(np.abs(t)) * np.exp(2j * np.pi * rng.uniform(size=(3, n)))

    return make


def _coupled_poly(n: int):
    """A coupled polynomial potential with positive coefficients on C^n, so its
    map is defined everywhere; n = 2 is the shipped t1*t2 + t1 + t2."""
    from darbouxkit import PolyTestPotential, poly_test_model

    if n == 2:
        return poly_test_model()
    if n == 1:
        return PolyTestPotential(1, {(1,): 1.0, (2,): 0.5, (3,): 0.25})
    return PolyTestPotential(3, {
        (1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0,
        (1, 1, 0): 0.5, (0, 1, 1): 0.25, (1, 1, 1): 0.125, (2, 0, 1): 0.3,
    })


def _batch_models() -> dict:
    from darbouxkit import CigarProductPotential, SolitonPotential, SolitonProfile

    models = {f"cigar-n{n}": (lambda n=n: CigarProductPotential(n)) for n in (1, 2, 3, 4)}
    models.update({f"poly-n{n}": (lambda n=n: _coupled_poly(n)) for n in (1, 2, 3)})
    models.update({f"soliton-n{n}": (lambda n=n: SolitonPotential(SolitonProfile(n))) for n in (1, 2, 3)})
    return models


@pytest.fixture(params=list(_batch_models()))
def batch_model(request):
    """Every model family the batch-invariance tests cover: cigar n = 1..4,
    coupled poly and soliton n = 1..3."""
    return _batch_models()[request.param]()


@pytest.fixture
def batch_points(rng, seam_points):
    """make(n) -> (19, n) seeded points: 8 in the radius-0.2 polydisc (every
    cigar t_j < 0.25, and s < 0.1 for n <= 2), the three ``seam_points``, the
    origin, and 7 in the radius-5 polydisc."""
    from darbouxkit import sample_polydisc

    def make(n: int) -> np.ndarray:
        return np.concatenate([
            sample_polydisc(rng, 8, n, 0.2),
            seam_points(n),
            np.zeros((1, n)),
            sample_polydisc(rng, 7, n, 5.0),
        ])

    return make
