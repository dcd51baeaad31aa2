"""Geodesic integrator tests: the DOP853 tableau and its order, flat straight
lines, energy conservation, symmetry confinement, refinement control, batches
and torus momenta."""

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
    poly_test_model,
    soliton_potential,
)
from darbouxkit import geodesics as geodesics_mod
from darbouxkit import potentials as potentials_mod
from darbouxkit.curvature import christoffel_at
from darbouxkit.potentials import metric_energy


class TestScheme:
    def test_tableau_matches_scipy(self):
        # src/ carries its own copy of the tableau, since it must not import scipy
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        stages = coefficients.N_STAGES
        a = np.zeros((stages, stages))
        for s, row in enumerate(geodesics_mod._A, 1):
            a[s, :s] = row
        np.testing.assert_array_equal(a, coefficients.A[:stages, :stages])
        np.testing.assert_array_equal(geodesics_mod._B, coefficients.B)
        # the error rows give the step's last evaluation weight 0, so it is not stored
        for ours, theirs in ((geodesics_mod._E5, coefficients.E5), (geodesics_mod._E3, coefficients.E3)):
            np.testing.assert_array_equal(ours, theirs[:stages])
            assert theirs[stages] == 0.0

    @pytest.mark.parametrize("row", [*geodesics_mod._A, geodesics_mod._B, geodesics_mod._E5, geodesics_mod._E3])
    @pytest.mark.parametrize("shape", [(1, 4), (3, 8), (64, 24)])
    def test_stage_sum_is_the_ordered_sum(self, row, shape, rng):
        # one reduction over the stage axis must add the weighted stages in
        # stage order, bit for bit, on the float stack and on a complex view
        h = 0.37
        k = rng.standard_normal((len(geodesics_mod._B),) + shape) + 1j * rng.standard_normal(shape)
        terms = geodesics_mod._weighted(row, h)
        for stages in (k.view(float), k[:, :, : shape[1] // 2]):
            expected = None
            for w, stage in zip(row, stages):
                if w:
                    expected = h * w * stage if expected is None else expected + h * w * stage
            assert geodesics_mod._stage_sum(terms, stages).tobytes() == expected.tobytes()
        # a stage of zero weight, or past the row, is not read: NaN or inf there
        # leaves the sum finite
        unread = [s for s in range(len(k)) if s >= len(row) or not row[s]]
        k[unread[::2]], k[unread[1::2]] = np.nan, np.inf
        for stages in (k.view(float), k[:, :, : shape[1] // 2]):
            assert np.all(np.isfinite(geodesics_mod._stage_sum(terms, stages)))

    def test_observed_order_is_eight(self, monkeypatch):
        # log2 of the endpoint error ratio at h and h/2 against a 320-step
        # run, with no refinement
        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", np.inf)
        monkeypatch.setattr(geodesics_mod, "_POSITION_TOL", np.inf)
        model = CigarProductPotential(2)
        z, v, length = [0.5, 0.1j], [0.4, 0.16], 8.0
        reference = geodesic_integrate(model, z, v, length, steps=320).points[-1]
        errors = [
            np.max(np.abs(geodesic_integrate(model, z, v, length, steps=steps).points[-1] - reference))
            for steps in (5, 10)
        ]
        assert np.log2(errors[0] / errors[1]) == pytest.approx(8.0, abs=0.25)


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
        traj = geodesic_integrate(model, z0, v0, 5.0, steps=480)  # a polyline fine enough for 1e-4
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
        monkeypatch.setattr(geodesics_mod, "_POSITION_TOL", np.inf)
        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", np.inf)
        coarse = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", 1e-10)
        refined = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        assert refined.drift < coarse.drift
        assert refined.steps > coarse.steps
        assert refined.drift <= 1e-10 or refined.steps == 24 * 2**4

    def test_refinement_reduces_position_error(self, monkeypatch):
        # at 24 steps the drift meets its bound but the position error does
        # not, so the positions alone drive the doubling
        model = CigarProductPotential(1)
        monkeypatch.setattr(geodesics_mod, "_POSITION_TOL", np.inf)
        coarse = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        monkeypatch.undo()
        refined = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        assert coarse.converged and coarse.steps == 24
        assert refined.converged and refined.steps > coarse.steps
        assert refined.position_error < coarse.position_error
        assert refined.position_error <= 1e-9 * max(1.0, np.max(np.abs(refined.points)))

    def test_default_steps_meet_default_tolerance(self):
        model = CigarProductPotential(1)
        traj = geodesic_integrate(model, [0.9], [2.0], 8.0)
        assert traj.drift <= 1e-8

    @pytest.mark.parametrize("bound", ["_DRIFT_TOL", "_POSITION_TOL"])
    def test_converged_flag(self, bound, monkeypatch):
        # either bound alone keeps a run from converging
        model = CigarProductPotential(1)
        assert geodesic_integrate(model, [0.9], [2.0], 8.0).converged
        monkeypatch.setattr(geodesics_mod, bound, 1e-300)
        traj = geodesic_integrate(model, [0.9], [2.0], 8.0, steps=24)
        assert not traj.converged
        assert traj.steps == 24 * 2**4
        with pytest.raises(GeodesicDriftError, match=r"bounds unmet at 384 steps: energy drift .*, position error "):
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
        # rejected before the first stage, so the model's not-finite error never shows
        for z, v in (([np.nan, 0.0], [1.0, 0.0]), ([0.1, 0.0], [np.nan, 0.0]), ([[0.1, 0.0]], [[1.0, np.inf]])):
            with pytest.raises(ValueError, match="start point and velocity must be finite"):
                geodesic_integrate(CigarProductPotential(2), z, v, 1.0)

    def test_overflowing_velocity_named(self):
        # finite, but its metric energy at the start overflows: the error names
        # the first such row, not a stage point far outside the float range
        z = [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]]
        v = [[1.0, 0.0], [1e200, 0.0], [0.0, 1e300]]
        named = r"metric energy is not finite for the velocity \[1\.e\+200.*\] at z=\[0\.\+0\.j 0\.\+0\.j\]$"
        with pytest.raises(ValueError, match=named):
            geodesic_integrate(CigarProductPotential(2), z, v, 1.0)

    def test_overflowing_christoffels_named(self, monkeypatch):
        # the metric energy at 1e150 is finite, its Christoffel symbols are not:
        # the start's own first stage names the row, and no other stage runs
        calls = []
        christoffel = geodesics_mod.christoffel_at
        monkeypatch.setattr(geodesics_mod, "christoffel_at", lambda *a, **k: calls.append(1) or christoffel(*a, **k))
        z = [[0.1, 0.0], [1e150, 0.0]]
        named = r"acceleration is not finite: \[nan\+nanj nan\+nanj\] at z=\[1\.e\+150\+0\.j 0\.e\+000\+0\.j\]$"
        with pytest.raises(ValueError, match=named):
            geodesic_integrate(CigarProductPotential(2), z, [[1.0, 0.0], [1.0, 0.0]], 1.0)
        assert len(calls) == 1

    def test_twelve_christoffel_calls_per_step(self, monkeypatch):
        # 12 stages a step, the first being the last step's evaluation at its
        # new point, plus the start's; the last point needs only its metric
        calls = []
        christoffel, metric = geodesics_mod.christoffel_at, geodesics_mod.metric_at
        monkeypatch.setattr(geodesics_mod, "christoffel_at", lambda *a, **k: calls.append("G") or christoffel(*a, **k))
        monkeypatch.setattr(geodesics_mod, "metric_at", lambda *a: calls.append("g") or metric(*a))
        assert geodesic_integrate(CigarProductPotential(2), [0.3, 0.1j], [0.05, 0.02], 1.0, steps=24).converged
        assert calls == ["G"] * (12 * 24) + ["g"]

    def test_start_evaluated_once_per_integration(self, monkeypatch):
        # one christoffel_at call at the start serves the energy check, the
        # acceleration check and every run, which then takes 12 * steps - 1;
        # no metric_energy call
        monkeypatch.setattr(geodesics_mod, "_POSITION_TOL", 1e-10)
        calls = []
        christoffel, run = geodesics_mod.christoffel_at, geodesics_mod._rk4_run
        monkeypatch.setattr(geodesics_mod, "christoffel_at", lambda *a, **k: calls.append("G") or christoffel(*a, **k))
        monkeypatch.setattr(geodesics_mod, "_rk4_run", lambda *a: calls.append(a[-1]) or run(*a))
        for module in (geodesics_mod, potentials_mod):
            monkeypatch.setattr(module, "metric_energy", lambda *a: pytest.fail("metric_energy called"), raising=False)
        traj = geodesic_integrate(CigarProductPotential(2), [0.5, 0.1j], [0.4, 0.16], 8.0, steps=2)
        assert (traj.steps, traj.converged) == (16, True)
        assert calls == ["G"] + [c for steps in (2, 4, 8, 16) for c in [steps] + ["G"] * (12 * steps - 1)]

    def test_non_finite_update_fails_every_level(self, monkeypatch):
        # every stage's Christoffel symbols finite, but the accelerations sum past the float range
        def christoffel(model, z, return_metric=False):
            gamma = np.zeros(z.shape + (1, 1), dtype=complex)
            return (gamma, np.ones(z.shape + (1,), dtype=complex)) if return_metric else gamma

        runs = []
        run = geodesics_mod._rk4_run
        monkeypatch.setattr(geodesics_mod, "_rk4_run", lambda *a: runs.append(a[-1]) or run(*a))
        monkeypatch.setattr(geodesics_mod, "christoffel_at", christoffel)
        monkeypatch.setattr(geodesics_mod, "_acceleration", lambda gamma, v: np.full(v.shape, 1e308 + 0j))
        named = (r"^the geodesic from z=\[0\.\+0\.j\] failed at every step count: "
                 r"step 1/64 at z=\[(-?inf|nan)\+0\.j\]: the update is not finite$")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=named):
                geodesic_integrate(flat_potential(1), [0.0], [1.0], 100.0, steps=4)
        assert runs == [4, 8, 16, 32, 64]

    def test_failed_levels_refine(self):
        # poly-n2's metric is singular in floats where t1 * t2 >> 1e16: from one
        # step, the 2, 4 and 8 step runs reach there at a stage point and fail,
        # the 1 and 16 step runs finish (unconverged), and the row keeps the last
        traj = geodesic_integrate(poly_test_model(), [2.0, 1.0], [3.0, 2j], 40.0, steps=1)
        assert (traj.steps, traj.converged) == (16, False)
        z0, v0 = np.array([[2.0, 1.0]]), np.array([[3.0, 2j]])
        gamma, g0 = christoffel_at(poly_test_model(), z0, return_metric=True)
        accel0 = geodesics_mod._acceleration(gamma, v0)
        with pytest.raises(geodesics_mod._RunFailure,
                           match=r"^step 2/2 at z=\[.*\]: singular metric at z=\[.*\]$") as failure:
            geodesics_mod._rk4_run(poly_test_model(), z0, v0, g0, accel0, 40.0, 2)
        assert type(failure.value.__cause__) is ValueError

    def test_integer_input_is_complex(self):
        traj = geodesic_integrate(flat_potential(2), [1, 2], [3, 4], 1.0, steps=4)
        assert traj.points.dtype == complex and traj.points.shape == (5, 2)


def _assert_same_run(traj: GeodesicTrajectory, alone: GeodesicTrajectory) -> None:
    assert (traj.steps, traj.converged, traj.position_error) == (alone.steps, alone.converged, alone.position_error)
    for field in ("times", "points", "velocities", "energies"):
        np.testing.assert_array_equal(getattr(traj, field), getattr(alone, field))


class TestBatch:
    # cigar-n2 at position bound 1e-10 from 2 steps: the slow geodesic
    # converges at the first level, the middle one after three doublings, and
    # the fast one never
    Z = np.array([[0.3, 0.1j], [0.5, 0.1j], [0.9, 0.2]])
    V = np.array([[0.05, 0.02], [0.4, 0.16], [2.0, 0.5j]])

    def test_members_match_their_batch_of_one(self, monkeypatch):
        monkeypatch.setattr(geodesics_mod, "_POSITION_TOL", 1e-10)
        model = CigarProductPotential(2)
        batch = geodesic_integrate(model, self.Z, self.V, 8.0, steps=2)
        assert [t.steps for t in batch] == [2, 2 * 2**3, 2 * 2**4]
        assert [t.converged for t in batch] == [True, True, False]
        for z, v, traj in zip(self.Z, self.V, batch):
            alone = geodesic_integrate(model, z, v, 8.0, steps=2)
            assert isinstance(alone, GeodesicTrajectory)
            _assert_same_run(traj, alone)
        batch[0].converged_points()
        with pytest.raises(GeodesicDriftError):
            batch[2].converged_points()

    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
        poly_test_model,
    ], ids=["cigar-n2", "soliton-n2", "poly-n2"])
    def test_rows_equal_their_batch_of_one_bit_for_bit(self, make):
        model = make()
        batch = geodesic_integrate(model, self.Z, self.V, 3.0)
        for z, v, traj in zip(self.Z, self.V, batch):
            _assert_same_run(traj, geodesic_integrate(model, z, v, 3.0))

    def test_failing_row_leaves_its_batch_mates_alone(self):
        # the first row's 2, 4 and 8 step runs fail (see test_failed_levels_refine),
        # so those levels rerun each row alone, and the slow second row
        # converges at 8 steps as it does alone
        model = poly_test_model()
        z, v = np.array([[2.0, 1.0], [0.3, 0.1j]]), np.array([[3.0, 2j], [0.03, 0.012j]])
        batch = geodesic_integrate(model, z, v, 40.0, steps=1)
        assert [(t.steps, t.converged) for t in batch] == [(16, False), (8, True)]
        for zb, vb, traj in zip(z, v, batch):
            _assert_same_run(traj, geodesic_integrate(model, zb, vb, 40.0, steps=1))

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
        # the energies are read off the order-3 jet of each step's first stage, whose D1
        # and D2 equal those of metric_at's order-2 jet bit for bit, and off
        # metric_at at the last point
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
