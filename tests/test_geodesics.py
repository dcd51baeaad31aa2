"""Geodesic integrator tests: flat straight lines, energy conservation,
symmetry confinement, refinement control, batches and torus momenta."""

import numpy as np
import pytest

from darbouxkit import (
    CigarProductPotential,
    GeodesicDriftError,
    GeodesicTrajectory,
    SolitonProfile,
    flat_potential,
    geodesic_integrate,
    metric_at,
    soliton_potential,
)
from darbouxkit import geodesics as geodesics_mod
from darbouxkit.potentials import metric_energy


class TestFlatModel:
    def test_straight_lines(self, rng):
        model = flat_potential(2)
        z0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0 = v0 / np.sqrt(np.sum(np.abs(v0) ** 2))
        traj = geodesic_integrate(model, z0, v0, 4.0)
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
        traj = geodesic_integrate(model, z0, v0, 10.0)
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
        traj = geodesic_integrate(model, z0, v0, 5.0)
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
        traj = geodesic_integrate(model, [0.5], [1.0], 6.0)
        assert np.max(np.abs(traj.points.imag)) <= 1e-13
        assert np.max(np.abs(traj.velocities.imag)) <= 1e-13

    def test_reversibility(self):
        model = CigarProductPotential(1)
        fwd = geodesic_integrate(model, [0.4], [1.0], 3.0, steps=600)
        back = geodesic_integrate(model, fwd.points[-1], -fwd.velocities[-1], 3.0, steps=600)
        assert abs(back.points[-1][0] - 0.4) <= 1e-9


class TestControls:
    def test_trajectory_shapes(self):
        model = flat_potential(1)
        traj = geodesic_integrate(model, [0.0], [1.0], 1.0, steps=10)
        assert traj.times.shape == (11,)
        assert traj.points.shape == (11, 1)
        assert traj.velocities.shape == (11, 1)
        assert traj.energies.shape == (11,)
        assert traj.steps == 10

    def test_refinement_reduces_drift(self, monkeypatch):
        # step doubling stops at the tolerance or after four refinements
        model = CigarProductPotential(1)
        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", np.inf)
        coarse = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", 1e-10)
        refined = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        assert refined.drift < coarse.drift
        assert refined.steps > coarse.steps
        assert refined.drift <= 1e-10 or refined.steps == 24 * 2**4

    def test_default_steps_meet_default_tolerance(self):
        model = CigarProductPotential(1)
        traj = geodesic_integrate(model, [0.9], [2.0], 8.0)
        assert traj.drift <= 1e-8

    def test_converged_flag(self, monkeypatch):
        model = CigarProductPotential(1)
        assert geodesic_integrate(model, [0.9], [2.0], 8.0).converged
        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", 1e-300)
        traj = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        assert not traj.converged
        assert traj.steps == 24 * 2**4
        with pytest.raises(GeodesicDriftError):
            traj.converged_points()

    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
    def test_bad_length_rejected(self, length):
        with pytest.raises(ValueError, match="length must be finite and positive"):
            geodesic_integrate(flat_potential(1), [0.0], [1.0], length)

    @pytest.mark.parametrize("steps", [0, -1])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            geodesic_integrate(flat_potential(1), [0.0], [1.0], 1.0, steps=steps)

    def test_nonfinite_point_or_velocity_rejected(self):
        # rejected before the first RK4 stage, so the model's not-finite error never shows
        for z, v in (([np.nan, 0.0], [1.0, 0.0]), ([0.1, 0.0], [np.nan, 0.0]), ([[0.1, 0.0]], [[1.0, np.inf]])):
            with pytest.raises(ValueError, match="start point and velocity must be finite"):
                geodesic_integrate(CigarProductPotential(2), z, v, 1.0)

    def test_overflowing_velocity_named(self):
        # finite, but its metric energy at the start overflows: the error names
        # the first such row, not an RK4 stage point far outside the float range
        z = [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]]
        v = [[1.0, 0.0], [1e200, 0.0], [0.0, 1e300]]
        named = r"metric energy is not finite for the velocity \[1\.e\+200.*\] at z=\[0\.\+0\.j 0\.\+0\.j\]$"
        with pytest.raises(ValueError, match=named):
            geodesic_integrate(CigarProductPotential(2), z, v, 1.0)

    def test_non_finite_update_raises(self, monkeypatch):
        # every stage's Christoffel symbols finite, but the accelerations sum past the float range
        def christoffel(model, z, return_metric=False):
            gamma = np.zeros(z.shape + (1, 1), dtype=complex)
            return (gamma, np.ones(z.shape + (1,), dtype=complex)) if return_metric else gamma

        monkeypatch.setattr(geodesics_mod, "christoffel_at", christoffel)
        monkeypatch.setattr(geodesics_mod, "_acceleration", lambda gamma, v: np.full(v.shape, 1e308 + 0j))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="geodesic integration blew up at step 1/4"):
                geodesic_integrate(flat_potential(1), [0.0], [1.0], 1.0, steps=4)

    def test_integer_input_is_complex(self):
        traj = geodesic_integrate(flat_potential(2), [1, 2], [3, 4], 1.0, steps=4)
        assert traj.points.dtype == complex and traj.points.shape == (5, 2)


class TestBatch:
    # cigar-n2 at drift bound 1e-10 from 24 steps: the slow geodesic converges
    # at the first level, the middle one after three doublings, and the fast
    # one never
    Z = np.array([[0.3, 0.1j], [0.5, 0.1j], [0.9, 0.2]])
    V = np.array([[0.05, 0.02], [0.4, 0.16], [2.0, 0.5j]])

    def test_members_match_their_batch_of_one(self, monkeypatch):
        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", 1e-10)
        model = CigarProductPotential(2)
        batch = geodesic_integrate(model, self.Z, self.V, 8.0, steps=24)
        assert [t.steps for t in batch] == [24, 24 * 2**4, 24 * 2**4]
        assert [t.converged for t in batch] == [True, True, False]
        for z, v, traj in zip(self.Z, self.V, batch):
            alone = geodesic_integrate(model, z, v, 8.0, steps=24)
            assert isinstance(alone, GeodesicTrajectory)
            assert (traj.steps, traj.converged, traj.drift) == (alone.steps, alone.converged, alone.drift)
            np.testing.assert_allclose(traj.points, alone.points, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(traj.times, alone.times)
        batch[0].converged_points()
        with pytest.raises(GeodesicDriftError):
            batch[2].converged_points()

    def test_order_and_empty_batch(self):
        model = CigarProductPotential(2)
        fwd = geodesic_integrate(model, self.Z[:2], self.V[:2], 2.0)
        back = geodesic_integrate(model, self.Z[1::-1], self.V[1::-1], 2.0)
        assert [t.points.tobytes() for t in fwd] == [t.points.tobytes() for t in back[::-1]]
        assert geodesic_integrate(model, np.empty((0, 2)), np.empty((0, 2)), 2.0) == []

    def test_rejects_wrong_dimensions(self):
        model = flat_potential(2)
        for z, v in (([0.0, 0.0], [[1.0, 0.0]]), (np.zeros((1, 1, 2)), np.zeros((1, 1, 2))), (0.0, 1.0)):
            with pytest.raises(ValueError, match="matching"):
                geodesic_integrate(model, z, v, 1.0)
        with pytest.raises(ValueError, match="have 1 coordinates, model cigar-n2 needs 2"):
            geodesic_integrate(CigarProductPotential(2), [0.1], [1.0], 1.0)
        with pytest.raises(ValueError, match="needs 2"):
            geodesic_integrate(CigarProductPotential(2), np.zeros((0, 3)), np.zeros((0, 3)), 1.0)

    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
    ])
    def test_energy_equals_metric_energy(self, make):
        # the energies are read off the order-3 jet of each k1 stage, whose D1
        # and D2 equal those of metric_at's order-2 jet bit for bit
        model = make()
        for traj in geodesic_integrate(model, self.Z[:2], self.V[:2], 3.0):
            np.testing.assert_array_equal(traj.energies, metric_energy(model, traj.points, traj.velocities))


class TestTorusMomenta:
    """z_j -> e^(i theta) z_j is an isometry of every shipped model, so by
    Noether J_j = Im(conj(z_j) sum_k g_{k jbar} v_k) is constant along each
    geodesic.  This checks the Christoffel symbols without the energy."""

    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
    ])
    def test_momenta_conserved(self, make, rng):
        model = make()
        launches = [
            (0.8 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
             rng.standard_normal(2) + 1j * rng.standard_normal(2))
            for _ in range(3)
        ]
        starts, vels = map(np.array, zip(*launches))
        for traj in geodesic_integrate(model, starts, vels, 10.0):
            assert traj.converged
            g = metric_at(model, traj.points)
            momenta = np.imag(np.conj(traj.points) * np.einsum("skj,sk->sj", g, traj.velocities))
            bound = 1e-8 * np.maximum(1.0, np.abs(momenta[0]))
            assert np.all(np.abs(momenta - momenta[0]) <= bound), np.max(np.abs(momenta - momenta[0]))
