"""Geodesic integrator tests: flat straight lines, energy conservation,
symmetry confinement, refinement control."""

import numpy as np
import pytest

from darbouxkit import (
    CigarProductPotential,
    GeodesicState,
    SolitonProfile,
    flat_potential,
    geodesic_integrate,
    metric_at,
    soliton_potential,
)


class TestFlatModel:
    def test_straight_lines(self, rng):
        model = flat_potential(2)
        z0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0 = v0 / np.sqrt(np.sum(np.abs(v0) ** 2))
        traj = geodesic_integrate(model, GeodesicState(z0, v0), 4.0)
        expected = z0[None, :] + traj.times[:, None] * v0[None, :]
        assert np.max(np.abs(traj.points - expected)) <= 1e-12
        assert np.max(np.abs(traj.velocities - v0[None, :])) <= 1e-13
        assert traj.drift <= 1e-15


class TestEnergyConservation:
    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
    ])
    def test_drift_bound_enforced(self, make, rng):
        model = make()
        z0 = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        e0 = float(np.real(np.einsum("jk,j,k->", metric_at(model, z0), v0, np.conj(v0))))
        v0 = v0 / np.sqrt(e0)
        traj = geodesic_integrate(model, GeodesicState(z0, v0), 10.0)
        assert traj.drift <= 1e-8
        assert traj.energies[0] == pytest.approx(1.0, rel=1e-12)

    def test_unit_speed_arclength(self, rng):
        # with unit initial energy, parameter time is arclength: the metric
        # length of the polyline matches the parameter span
        model = CigarProductPotential(1)
        z0 = np.array([0.3 + 0.1j])
        v0 = np.array([1.0 + 0.0j])
        e0 = float(np.real(metric_at(model, z0)[0, 0]) * abs(v0[0]) ** 2)
        v0 = v0 / np.sqrt(e0)
        traj = geodesic_integrate(model, GeodesicState(z0, v0), 5.0)
        seg = np.diff(traj.points, axis=0)
        mids = 0.5 * (traj.points[1:] + traj.points[:-1])
        length = sum(
            float(np.sqrt(np.real(np.einsum("jk,j,k->", metric_at(model, m), d, np.conj(d)))))
            for m, d in zip(mids, seg)
        )
        assert length == pytest.approx(5.0, rel=1e-4)


class TestSymmetryConfinement:
    def test_real_axis_is_invariant(self):
        # real start and velocity: Gamma = -conj(z)/(1+t) keeps everything real
        model = CigarProductPotential(1)
        traj = geodesic_integrate(model, GeodesicState([0.5], [1.0]), 6.0)
        assert np.max(np.abs(traj.points.imag)) <= 1e-13
        assert np.max(np.abs(traj.velocities.imag)) <= 1e-13

    def test_reversibility(self):
        model = CigarProductPotential(1)
        fwd = geodesic_integrate(model, GeodesicState([0.4], [1.0]), 3.0, steps=600)
        back = geodesic_integrate(
            model, GeodesicState(fwd.points[-1], -fwd.velocities[-1]), 3.0, steps=600
        )
        assert abs(back.points[-1][0] - 0.4) <= 1e-9


class TestControls:
    def test_trajectory_shapes(self):
        model = flat_potential(1)
        traj = geodesic_integrate(model, GeodesicState([0.0], [1.0]), 1.0, steps=10)
        assert traj.times.shape == (11,)
        assert traj.points.shape == (11, 1)
        assert traj.velocities.shape == (11, 1)
        assert traj.energies.shape == (11,)
        assert traj.steps == 10

    def test_refinement_reduces_drift(self):
        # step doubling stops at the tolerance or after four refinements
        model = CigarProductPotential(1)
        state = GeodesicState([0.9], [2.0])
        coarse = geodesic_integrate(model, state, 8.0, steps=24, drift_tol=np.inf)
        refined = geodesic_integrate(model, state, 8.0, steps=24, drift_tol=1e-10)
        assert refined.drift < coarse.drift
        assert refined.steps > coarse.steps
        assert refined.drift <= 1e-10 or refined.steps == 24 * 2**4

    def test_default_steps_meet_default_tolerance(self):
        model = CigarProductPotential(1)
        traj = geodesic_integrate(model, GeodesicState([0.9], [2.0]), 8.0)
        assert traj.drift <= 1e-8

    def test_converged_flag(self):
        model = CigarProductPotential(1)
        state = GeodesicState([0.9], [2.0])
        assert geodesic_integrate(model, state, 8.0).converged
        traj = geodesic_integrate(model, state, 8.0, steps=24, drift_tol=1e-300)
        assert not traj.converged
        assert traj.steps == 24 * 2**4

    def test_state_coercion(self):
        st = GeodesicState([1, 2], [3, 4])
        assert st.z.dtype == complex and st.v.dtype == complex
        assert st.z.shape == (2,)
