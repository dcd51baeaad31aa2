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
