"""Tests for phase-block embeddings, the curve obstruction, and image linearity.

Frozen oracles for the (z, z^2) pair at z = 1:
  A = 4, induced-vs-ambient curvature defect = -0.1 by both formulas.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import darbouxkit
import numpy as np
import pytest
from hypothesis import given
from numpy.polynomial.polynomial import polyder, polyval
from hypothesis import strategies as st

from darbouxkit import (
    CigarProductPotential,
    CurveDistanceError,
    DarbouxMap,
    GeodesicDriftError,
    HoloCurvePair,
    PhaseBlockEmbedding,
    RunConfig,
    SolitonProfile,
    a_obstruction,
    ciriza_image_check,
    curvature_at,
    curvature_defect,
    curve_distance,
    curve_geodesy_residual,
    curve_image_rank,
    geodesic_integrate,
    graph_counterexample_pair,
    metric_at,
    poly_test_model,
    run_claim,
    sample_polydisc,
    soliton_potential,
    standard_catalog,
    total_geodesy_residual,
)
from darbouxkit import geodesics as geodesics_mod
from darbouxkit import reporting as reporting_mod
from darbouxkit import submanifolds as submanifolds_mod
from darbouxkit.potentials import metric_energy

unit_angle = st.floats(min_value=-np.pi, max_value=np.pi)


def unit(theta: float) -> complex:
    return complex(np.cos(theta), np.sin(theta))


class TestPhaseBlockEmbedding:
    def test_matrix_layout(self):
        emb = PhaseBlockEmbedding(3, (1, 2, 1), (1.0, 1j, -1.0))
        assert emb.k == 2
        expected = np.array([[1.0, 0.0], [0.0, 1j], [-1.0, 0.0]])
        assert np.array_equal(emb.matrix, expected)
        assert np.allclose(emb.embed([2.0, 3.0]), [2.0, 3.0j, -2.0])

    def test_distance_to_image_rows(self):
        # image of sigma = (1, 1, 0): the line through u = (a, b, 0)/sqrt(2),
        # with a, b unit phases; rows = on-image points plus a known normal part
        a, b = unit(0.3), unit(-1.2)
        emb = PhaseBlockEmbedding(3, (1, 1, 0), (a, b, 1.0))
        u = np.array([a, b, 0.0]) / np.sqrt(2.0)
        normal = np.array([a, -b, 0.0]) / np.sqrt(2.0)  # orthogonal to u
        rows = np.array([
            emb.embed([0.7 - 0.2j]),
            (2.0 + 1.0j) * u + 0.5 * normal,
            -3.0 * u + 2.0j * np.array([0.0, 0.0, 1.0]),
        ])
        assert emb.distance_to_image(rows) == pytest.approx([0.0, 0.5, 2.0], abs=1e-15)
        assert emb.distance_to_image(rows[1]) == pytest.approx(0.5, abs=1e-15)

    def test_distance_zero_on_image(self, rng):
        emb = PhaseBlockEmbedding(3, (1, 1, 0), (unit(0.4), unit(1.7), 1.0))
        params = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert emb.distance_to_image(emb.embed(params)) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseBlockEmbedding(2, (1, 3), (1.0, 1.0))  # index 2 missing
        with pytest.raises(ValueError):
            PhaseBlockEmbedding(2, (0, 0), (1.0, 1.0))  # k = 0
        with pytest.raises(ValueError):
            PhaseBlockEmbedding(2, (1, 1), (1.0, 2.0))  # non-unit phase
        with pytest.raises(ValueError):
            PhaseBlockEmbedding(2, (1,), (1.0,))  # wrong length
        for bad in (np.nan, complex(np.nan, 0.0), np.inf):
            with pytest.raises(ValueError, match="not unit modulus"):
                PhaseBlockEmbedding(2, (1, 1), (bad, 1.0))

    def test_embed_needs_k_parameters(self):
        with pytest.raises(ValueError, match="expected 2 parameters"):
            PhaseBlockEmbedding(3, (1, 2, 1), (1.0, 1j, -1.0)).embed([1.0])

    def test_standard_catalog_contents(self):
        cat1 = standard_catalog(1)
        assert len(cat1) == 1 and cat1[0].k == 1
        cat3 = standard_catalog(3)
        assert [e.k for e in cat3] == [1, 1, 2, 2]
        for e in cat3:
            assert set(e.sigma) - {0} == set(range(1, e.k + 1))
        # deterministic for a fixed seed
        again = standard_catalog(3)
        assert all(
            a.sigma == b.sigma and a.phases == b.phases for a, b in zip(cat3, again)
        )


class TestTotalGeodesy:
    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
    ])
    def test_catalog_confinement(self, make, rng):
        model = make()
        for emb in standard_catalog(2):
            p = 0.8 * (rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k))
            q = rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k)
            res = total_geodesy_residual(model, emb, emb.embed(p), emb.matrix @ q, 10.0)
            assert res <= 1e-7

    def test_phase_invariance(self, rng):
        # multiplying a block phase by a unit number maps the subspace to a
        # congruent one; confinement persists
        model = CigarProductPotential(2)
        base = standard_catalog(2)[1]
        emb = PhaseBlockEmbedding(2, base.sigma, (base.phases[0] * unit(0.9), base.phases[1]))
        p = 0.5 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
        q = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        res = total_geodesy_residual(model, emb, emb.embed(p), emb.matrix @ q, 8.0)
        assert res <= 1e-8

    def test_batch_equals_single_calls(self, rng):
        model = CigarProductPotential(3)
        catalog = standard_catalog(3)
        starts, vels = [], []
        for emb in catalog:
            starts.append(emb.embed(0.8 * (rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k))))
            vels.append(emb.matrix @ (rng.standard_normal(emb.k) + 1j * rng.standard_normal(emb.k)))
        batch = total_geodesy_residual(model, catalog, starts, vels, 4.0)
        assert batch.shape == (len(catalog),)
        singles = [total_geodesy_residual(model, e, z, v, 4.0) for e, z, v in zip(catalog, starts, vels)]
        assert batch.tolist() == singles
        with pytest.raises(ValueError):
            total_geodesy_residual(model, catalog, starts[:-1], vels[:-1], 4.0)
        with pytest.raises(ValueError):  # one velocity off its subspace
            total_geodesy_residual(model, catalog, starts, vels[::-1], 4.0)

    def test_reads_only_the_frame_matrix(self, rng):
        # any object carrying the (n, k) frame as ``matrix`` gives the embeddings' residuals
        model = CigarProductPotential(2)
        catalog = standard_catalog(2)
        starts = [e.embed(0.8 * (rng.standard_normal(e.k) + 1j * rng.standard_normal(e.k))) for e in catalog]
        vels = [e.matrix @ (rng.standard_normal(e.k) + 1j * rng.standard_normal(e.k)) for e in catalog]
        frames = [types.SimpleNamespace(matrix=e.matrix) for e in catalog]
        expected = total_geodesy_residual(model, catalog, starts, vels, 2.0)
        got = total_geodesy_residual(model, frames, starts, vels, 2.0)
        assert got.tobytes() == expected.tobytes()
        single = total_geodesy_residual(model, frames[0], starts[0], vels[0], 2.0)
        assert single == expected[0]

    def test_curve_batch_equals_single_calls(self):
        model = CigarProductPotential(2)
        pair = graph_counterexample_pair()
        batch = curve_geodesy_residual(model, pair, np.array([0.5, 0.9]), 3.0)
        assert batch.tolist() == [curve_geodesy_residual(model, pair, w0, 3.0) for w0 in (0.5, 0.9)]

    def test_rejects_off_image_start(self):
        model = CigarProductPotential(2)
        emb = standard_catalog(2)[0]  # first-axis embedding
        with pytest.raises(ValueError):
            total_geodesy_residual(model, emb, [0.3, 0.4], [1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            total_geodesy_residual(model, emb, [0.3, 0.0], [0.0, 1.0], 1.0)

    def test_zero_launch_velocity_rejected(self):
        # raised before any sqrt of the zero energy, so no RuntimeWarning either
        model = CigarProductPotential(2)
        emb = standard_catalog(2)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no positive metric energy"):
                total_geodesy_residual(model, emb, emb.embed([0.4 + 0.1j]), np.zeros(2), 1.0)
            flat_at_zero = HoloCurvePair((0.0, 1.0), (0.0, 0.0, 1.0))  # (z^2, z^3)
            with pytest.raises(ValueError, match="no positive metric energy"):
                curve_geodesy_residual(model, flat_at_zero, 0.0, 1.0)

    def test_unmet_drift_bound_raises(self, monkeypatch):
        def coarse(model, z, v, length):
            return geodesic_integrate(model, z, v, length, steps=8)

        monkeypatch.setattr(geodesics_mod, "_DRIFT_TOL", 1e-300)
        monkeypatch.setattr(submanifolds_mod, "geodesic_integrate", coarse)
        model = CigarProductPotential(2)
        emb = standard_catalog(2)[1]
        with pytest.raises(GeodesicDriftError):
            total_geodesy_residual(model, emb, emb.embed([0.4 + 0.1j]), emb.matrix @ [1.0], 1.0)
        with pytest.raises(GeodesicDriftError):
            curve_geodesy_residual(model, graph_counterexample_pair(), 0.5, 4.0)

    def test_nan_distance_past_first_sample_propagates(self, monkeypatch):
        calls = []

        def distance(pair, points):
            calls.append(points)
            out = np.ones(len(points))
            out[1] = np.nan
            return out

        monkeypatch.setattr(submanifolds_mod, "curve_distance", distance)
        model = CigarProductPotential(2)
        assert np.isnan(curve_geodesy_residual(model, graph_counterexample_pair(), 0.5, 1.0))
        assert len(calls) == 1  # one call per trajectory

    def test_reads_every_step_point(self, monkeypatch):
        # at length 10 the 40 default steps put a sample every quarter of arclength
        seen, runs = [], []
        integrate = submanifolds_mod.geodesic_integrate

        def recording(*args):
            runs.append(integrate(*args))
            return runs[-1]

        monkeypatch.setattr(submanifolds_mod, "geodesic_integrate", recording)
        monkeypatch.setattr(submanifolds_mod, "curve_distance", lambda pair, p: seen.append(p) or np.zeros(len(p)))
        curve_geodesy_residual(CigarProductPotential(2), graph_counterexample_pair(), 0.5, 10.0)
        (trajectory,) = runs[0]
        np.testing.assert_array_equal(trajectory.times, 0.25 * np.arange(41))
        (points,) = seen  # one call over the whole trajectory
        np.testing.assert_array_equal(points, trajectory.points)

    @pytest.mark.parametrize("seed", [RunConfig().seed, 1])
    def test_suite_residuals_match_a_dense_run(self, seed, monkeypatch):
        # the suite's residual is a max over the 41 points of a 40-step run; a
        # 480-step run samples every 1/48 of arclength and reads the same
        # roundoff, for every catalog embedding of the total-geodesy claim
        launches = []
        residual = reporting_mod.total_geodesy_residual

        def recording(model, catalog, starts, vels, length):
            launches.append((model, catalog, np.array(starts), np.array(vels), length))
            return residual(model, catalog, starts, vels, length)

        monkeypatch.setattr(reporting_mod, "total_geodesy_residual", recording)
        per_embedding = run_claim("total-geodesy", RunConfig(seed=seed)).details["per_embedding"]
        sparse, dense = list(per_embedding.values()), []
        for model, catalog, starts, vels, length in launches:
            vels = vels / np.sqrt(metric_energy(model, starts, vels))[:, None]
            for emb, traj in zip(catalog, geodesic_integrate(model, starts, vels, length, steps=480)):
                dense.append(float(np.max(submanifolds_mod._span_distances(emb.matrix, traj.converged_points()))))
        assert len(sparse) == len(dense) == 10
        np.testing.assert_allclose(sparse, dense, rtol=0.0, atol=5e-11)

    def test_counterexample_departs(self):
        model = CigarProductPotential(2)
        pair = graph_counterexample_pair()
        departures = [curve_geodesy_residual(model, pair, w0, 10.0) for w0 in (0.5, 0.9)]
        assert max(departures) > 1e-2


class TestObstruction:
    def test_graph_pair_oracle(self):
        pair = graph_counterexample_pair()
        assert a_obstruction(pair, 1.0) == pytest.approx(4.0, abs=1e-14)
        direct, via = curvature_defect(pair, 1.0)
        assert direct == pytest.approx(-0.1, rel=1e-12)
        assert via == pytest.approx(-0.1, rel=1e-12)

    @given(theta=unit_angle)
    def test_diagonal_lines_unobstructed(self, theta):
        pair = HoloCurvePair((unit(theta),), (1.0,))
        for z in (0.3, 0.7 + 0.2j, -1.1 + 0.4j):
            assert abs(a_obstruction(pair, z)) <= 1e-13

    def test_axis_curve_unobstructed(self):
        # second component identically zero: f2' = f2'' = 0 kills every term
        pair = HoloCurvePair((1.0, 0.5, -0.2), (0.0,))
        assert abs(a_obstruction(pair, 0.8 + 0.3j)) <= 1e-15

    @given(
        c1=st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        c2=st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False),
        z=st.complex_numbers(min_magnitude=0.05, max_magnitude=1.2, allow_nan=False, allow_infinity=False),
    )
    def test_defect_formulas_agree(self, c1, c2, z):
        pair = HoloCurvePair((1.0, c1), (0.5, c2))
        direct, via = curvature_defect(pair, z)
        scale = max(1.0, abs(direct))
        assert abs(direct - via) / scale <= 1e-9

    @given(
        c2=st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        z=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    )
    def test_defect_never_positive(self, c2, z):
        pair = HoloCurvePair((1.0,), (0.3, c2))
        direct, _ = curvature_defect(pair, z)
        assert direct <= 1e-12

    def test_defect_reads_one_jet(self, monkeypatch):
        original = HoloCurvePair.jet
        calls = []

        def jet(self, z):
            calls.append(z)
            return original(self, z)

        monkeypatch.setattr(HoloCurvePair, "jet", jet)
        curvature_defect(graph_counterexample_pair(), 0.6 + 0.3j)
        assert len(calls) == 1

    @pytest.mark.parametrize("z", (1e20, 1e40 + 1e40j, 1e200))
    def test_overflow_raises_naming_z(self, z):
        # at 1e20 the two routes once agreed on a wrong (2.996e-95, -0.0)
        named = rf"^the curvature defect at z = {re.escape(str(z))} overflows: "
        with pytest.raises(ValueError, match=named):
            curvature_defect(graph_counterexample_pair(), z)

    def test_nan_z_gives_nan_pair(self):
        # a NaN is the caller's verdict to read (criterion 06 skips ValueError points)
        direct, via = curvature_defect(graph_counterexample_pair(), complex(np.nan, 0.5))
        assert math.isnan(direct) and math.isnan(via)

    def test_identical_components_zero_defect(self):
        pair = HoloCurvePair((1.0,), (1.0,))
        direct, via = curvature_defect(pair, 0.7 + 0.2j)
        assert abs(direct) <= 1e-13
        assert abs(via) <= 1e-13


def _induced_curvature(jet: np.ndarray) -> np.ndarray:
    """Reference: curvature R = -g_zzbar + |g_z|^2 / g of the two-cigar metric
    pulled back along a curve, g = sum_m |f_m'|^2 / (1 + |f_m|^2), with z / zbar
    derivatives derived by hand from the curve's (..., 3, 2) jets."""
    g, g_z, g_zzbar = 0.0, 0.0 + 0.0j, 0.0 + 0.0j
    for a, da, dda in np.moveaxis(jet, (-1, -2), (0, 1)):
        b, db, ddb = np.conj(a), np.conj(da), np.conj(dda)
        h = 1.0 / (1.0 + a * b)
        g += (da * db * h).real
        g_z += dda * db * h - da**2 * db * b * h**2
        g_zzbar += (
            dda * ddb * h
            - (dda * a * db**2 + da**2 * b * ddb + da**2 * db**2) * h**2
            + 2.0 * da**2 * db**2 * a * b * h**3
        )
    return -g_zzbar.real + abs(g_z) ** 2 / g


def _hand_defect(jet: np.ndarray) -> np.ndarray:
    """Reference: the induced curvature minus the two-cigar ambient term
    R(f', f'bar, f', f'bar) = sum_m |f_m'|^4 / (1 + |f_m|^2)^3."""
    (f1, f2), (df1, df2), _ = np.moveaxis(jet, (-2, -1), (0, 1))
    ambient = abs(df1) ** 4 / (1.0 + abs(f1) ** 2) ** 3 + abs(df2) ** 4 / (1.0 + abs(f2) ** 2) ** 3
    return _induced_curvature(jet) - ambient


def _fd_induced_curvature(model, pair: HoloCurvePair, w: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """R_C = -g_C (1/4) Laplacian(log g_C) of the induced metric
    g_C = g(f', f'bar), from Richardson-extrapolated five-point Laplacians
    (steps h and h/2) of ``metric_at`` along the curve."""
    sizes = np.array([h, h / 2.0])
    steps = np.array([1.0, -1.0, 1j, -1j])[:, None] * sizes  # [direction, size]
    jet = pair.jet(w[:, None] + np.concatenate([[0.0], steps.ravel()]))
    df = jet[..., 1, :]
    g_c = np.sum(df * np.sum(metric_at(model, jet[..., 0, :]) * np.conj(df)[..., None, :], axis=-1), axis=-1).real
    log_g = np.log(g_c)
    ring = log_g[:, 1:].reshape(-1, 4, 2).sum(axis=1)  # [point, size]
    laplacian = (ring - 4.0 * log_g[:, :1]) / sizes**2
    return -g_c[:, 0] * 0.25 * (4.0 * laplacian[:, 1] - laplacian[:, 0]) / 3.0


class TestInducedMetric:
    def test_curvature_finite(self, rng):
        pair = graph_counterexample_pair()
        for _ in range(5):
            z = complex(*rng.uniform(-1.0, 1.0, size=2))
            assert np.isfinite(_induced_curvature(pair.jet(z)))

    def test_flat_direction_curvature(self):
        # curve (z, 0) inherits a single cigar factor with g = 1/(1+t):
        # tensor component R = 1/(1+t)^3, normalized value R/g^2 = 1/(1+t)
        pair = HoloCurvePair((1.0,), (0.0,))
        for z in (0.0, 0.5, 1.0 + 0.5j):
            t = abs(z) ** 2
            assert _induced_curvature(pair.jet(z)) == pytest.approx(1.0 / (1.0 + t) ** 3, rel=1e-11)


class TestGaussDefect:
    """The direct defect is the Gauss equation on the model's Gamma and g."""

    def test_matches_the_hand_derived_two_cigar_defect(self, rng):
        for _ in range(20):
            pair = _random_cubic_pair(rng)
            zs = 1.5 * (rng.standard_normal(25) + 1j * rng.standard_normal(25))
            direct, _ = curvature_defect(pair, zs)
            assert np.all(abs(direct - _hand_defect(pair.jet(zs))) <= 1e-12 * np.fmax(1.0, abs(direct)))

    @pytest.mark.parametrize("make", [
        lambda: CigarProductPotential(2),
        lambda: soliton_potential(SolitonProfile(2)),
        poly_test_model,
    ], ids=["cigar-n2", "soliton-n2", "poly-n2"])
    def test_equals_induced_minus_ambient_curvature(self, make, rng):
        # R_C from differences of metric_at along the curve, R_M from curvature_at:
        # no Gamma and no second fundamental form on this route
        model = make()
        for _ in range(10):
            pair = _random_cubic_pair(rng)
            w = sample_polydisc(rng, 10, 1, 1.0)[:, 0]
            jet = pair.jet(w)
            df = jet[:, 1]
            r = curvature_at(model, jet[:, 0])
            ambient = np.sum(r * (df[:, :, None, None, None] * np.conj(df)[:, None, :, None, None]
                                  * df[:, None, None, :, None] * np.conj(df)[:, None, None, None, :]),
                             axis=(1, 2, 3, 4)).real
            induced = _fd_induced_curvature(model, pair, w)
            gauss = submanifolds_mod._gauss_defect(model, jet, w)
            assert np.all(abs(induced - ambient - gauss) <= 1e-7 * np.fmax(abs(induced), abs(ambient)))

    @pytest.mark.parametrize("make, geodesic", [
        (lambda: soliton_potential(SolitonProfile(2)), True),
        (lambda: CigarProductPotential(2), False),
        (poly_test_model, False),
    ], ids=["soliton-n2", "cigar-n2", "poly-n2"])
    def test_line_is_totally_geodesic_only_on_the_u2_invariant_soliton(self, make, geodesic, rng):
        # the complex line (z, 2z) is fixed by a unitary reflection of the
        # U(2)-invariant soliton, which the cigar product and the poly model lack
        w = np.linspace(0.3, 1.5, 13) * np.exp(2j * np.pi * rng.uniform(size=13))
        defect = submanifolds_mod._gauss_defect(make(), HoloCurvePair((1.0,), (2.0,)).jet(w), w)
        if geodesic:
            assert np.max(abs(defect)) <= 1e-14
        else:
            assert np.max(defect) < -1e-3


class TestCurveGeodesyModel:
    def test_needs_the_two_cigar_model(self):
        with pytest.raises(ValueError, match="curve geodesy runs in the two-cigar model"):
            curve_geodesy_residual(CigarProductPotential(3), graph_counterexample_pair(), 0.5, 1.0)


class TestCurveDistance:
    def test_zero_on_curve(self):
        pair = graph_counterexample_pair()
        for w in (0.3, 0.8 + 0.1j):
            assert curve_distance(pair, pair.jet(w)[0]) <= 1e-8

    def test_positive_off_curve(self):
        pair = graph_counterexample_pair()
        off = pair.jet(0.5)[0] + np.array([0.0, 0.25])
        assert curve_distance(pair, off) > 0.05

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_objective_past_first_start_propagates(self, monkeypatch):
        pair = graph_counterexample_pair()
        point = pair.jet(0.5)[0] + np.array([0.0, 0.25])
        second_start = np.sqrt(complex(point[1]))
        original = HoloCurvePair.jet
        starts = []

        def jet(self, w):
            out = original(self, w)
            hit = np.asarray(w) == second_start
            if np.any(hit):
                starts.append(np.asarray(w)[hit].tolist())
                out[hit] = np.nan
            return out

        monkeypatch.setattr(HoloCurvePair, "jet", jet)
        assert np.isnan(curve_distance(pair, point))
        assert starts == [[second_start]]

    def test_complex_line_oracle(self, rng):
        # w -> (w, beta w) is the line spanned by v = (1, beta): distance |p - proj_v p|
        for _ in range(20):
            beta = complex(*rng.standard_normal(2))
            p = 3.0 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            v = np.array([1.0, beta])
            expected = np.linalg.norm(p - np.vdot(v, p) / np.vdot(v, v) * v)
            got = curve_distance(HoloCurvePair((1.0,), (beta,)), p)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(submanifolds_mod, "_NEWTON_CAP", 1)
        pair = graph_counterexample_pair()
        with pytest.raises(CurveDistanceError):
            curve_distance(pair, pair.jet(0.5)[0] + np.array([0.0, 0.25]))

    def test_package_import_leaves_scipy_unloaded(self):
        # neither `import darbouxkit`, a curve_distance solve nor the properness
        # claim may load any scipy module
        src = str(Path(darbouxkit.__file__).resolve().parents[1])
        code = (
            "import sys, darbouxkit\n"
            "def loaded():\n"
            "    print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "loaded()\n"
            "darbouxkit.curve_distance(darbouxkit.graph_counterexample_pair(), [0.5, 0.5])\n"
            "loaded()\n"
            "assert darbouxkit.run_claim('map-side-conditions', darbouxkit.RunConfig()).passed\n"
            "loaded()"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.split() == ["False", "False", "False"]


def _reference_energy(pair, point, w, kinds):
    """The scalar Newton from one start, the reference for ``curve_distance``'s
    lockstep rows; ``kinds`` collects the steps it takes.  E sums the squares
    of the parts as the lockstep does, and w, dw, b and g are 1-element
    arrays, so their products run numpy's array kernels as the lockstep's do."""
    w, dw, e = np.array([w], dtype=complex), np.zeros(1, dtype=complex), np.inf
    for _ in range(submanifolds_mod._NEWTON_CAP):
        f, df, ddf = pair.jet(w + dw)[0]
        r = f - point
        e_trial = np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag)
        if e_trial > e:
            dw = dw / 2.0
            kinds.add("halving")
        else:
            w, e = w + dw, e_trial
            a = np.vdot(df, df).real
            b, g = np.array([np.vdot(ddf, r)]), np.array([np.vdot(df, r)])
            abs_b = abs(b[0])
            if a > abs_b:
                dw = (b * np.conj(g) - a * g) / (a * a - abs_b * abs_b)
                kinds.add("newton")
            else:
                dw = -g / a
                kinds.add("gauss-newton")
            if not abs((g * dw)[0]) > np.finfo(float).eps * e:
                return e
        if not abs(dw[0]) > submanifolds_mod._STEP_RTOL * max(1.0, abs(w[0])):
            return e
    raise CurveDistanceError("reference start capped")


def _reference_distance(pair, point, kinds):
    root = np.sqrt(complex(point[1]))
    values = [_reference_energy(pair, point, w0, kinds) for w0 in (complex(point[0]), root, -root)]
    return float(np.sqrt(np.maximum(np.min(values), 0.0)))


def _random_cubic_pair(rng):
    return HoloCurvePair(*(rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)))


# batch sizes on both sides of the vector widths numpy's complex kernels use
_KERNEL_SIZES = [1, 3, 4, 5, 8, 9, 16, 17, 41, 123]


class TestArrayKernels:
    """A row of every array call equals the call on that row alone, bit for bit."""

    @pytest.mark.parametrize("size", _KERNEL_SIZES)
    def test_jet_rows(self, size, rng):
        c1, c2 = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        pair = HoloCurvePair(c1, c2)
        ws = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        jets = pair.jet(ws)
        assert jets.shape == (size, 3, 2)
        for w, row in zip(ws, jets):
            assert row.tobytes() == pair.jet(w).tobytes() == pair.jet(np.array([w]))[0].tobytes()
            assert row.tobytes() == _polynomial_jet(c1, c2, w).tobytes()
        assert pair.jet(ws.reshape(1, size)).tobytes() == jets.tobytes()
        assert pair.jet(ws[::3]).tobytes() == jets[::3].tobytes()

    def test_jet_at_non_finite_w_matches_polynomial_reference(self):
        # f1'' is a constant row, whose value at an infinite w is NaN, as polyval's
        c1, c2 = (1.0, 0.5 - 2j), (0.0, 1.0, -0.3j)
        pair = HoloCurvePair(c1, c2)
        ws = np.array([complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0), 1e200 + 1e200j])
        with np.errstate(invalid="ignore", over="ignore"):
            for w, row in zip(ws, pair.jet(ws)):
                assert row.tobytes() == pair.jet(w).tobytes() == _polynomial_jet(c1, c2, w).tobytes()

    @pytest.mark.parametrize("size", _KERNEL_SIZES)
    def test_curve_distance_rows(self, size, rng):
        pair = graph_counterexample_pair()
        points = 1.5 * (rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2)))
        batch = curve_distance(pair, points)
        assert batch.shape == (size,)
        assert curve_distance(pair, points[::3]).tobytes() == batch[::3].tobytes()
        for point, row in zip(points, batch):
            assert row == curve_distance(pair, point) == curve_distance(pair, point[None])[0]
            # the scalar reference, whose bits test_lockstep_takes_every_step_kind pins
            ref = _reference_distance(pair, point, set())
            assert abs(row - ref) <= 4.0 * np.spacing(ref)

    def test_lockstep_takes_every_step_kind(self):
        # 41 points put Newton, Gauss-Newton and halving steps in one lockstep,
        # and every row still equals the scalar iteration's value
        rng = np.random.default_rng(41)
        pair = graph_counterexample_pair()
        points = 1.5 * (rng.standard_normal((41, 2)) + 1j * rng.standard_normal((41, 2)))
        kinds = set()
        expected = [_reference_distance(pair, point, kinds) for point in points]
        assert kinds == {"newton", "gauss-newton", "halving"}
        assert curve_distance(pair, points).tolist() == expected

    def test_capped_start_raises_as_its_point_alone(self, monkeypatch):
        monkeypatch.setattr(submanifolds_mod, "_NEWTON_CAP", 2)
        pair = graph_counterexample_pair()
        points = np.array([[0.5, 0.75], [1.0, 2.0], [0.2j, -0.5]])
        with pytest.raises(CurveDistanceError) as alone:
            curve_distance(pair, points[0])
        with pytest.raises(CurveDistanceError) as batch:
            curve_distance(pair, points)
        assert str(batch.value) == str(alone.value)

    def test_nan_point_stays_in_its_row(self):
        pair = graph_counterexample_pair()
        points = np.array([[0.5, 0.5], [np.nan, 0.3], [0.2 + 1j, np.nan], [1.0, 2.0]], dtype=complex)
        batch = curve_distance(pair, points)
        assert np.isnan(batch[1]) and np.isnan(batch[2])
        assert [batch[0], batch[3]] == [curve_distance(pair, points[0]), curve_distance(pair, points[3])]

    @pytest.mark.parametrize("size", sorted([2, *_KERNEL_SIZES]))
    def test_defect_and_obstruction_rows(self, size, rng):
        pair = _random_cubic_pair(rng)
        zs = 1.5 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        direct, via_a = curvature_defect(pair, zs)
        obstruction = a_obstruction(pair, zs)
        assert direct.shape == via_a.shape == obstruction.shape == (size,)
        for z, d, v, a in zip(zs, direct, via_a, obstruction):
            assert (d, v) == curvature_defect(pair, z)
            assert a == a_obstruction(pair, z)
        # the routes agree to the bound of the defect claims
        assert np.all(abs(direct - via_a) <= 1e-8 * np.fmax(1.0, abs(direct)))

    def test_nan_z_stays_in_its_row(self):
        pair = graph_counterexample_pair()
        direct, via_a = curvature_defect(pair, np.array([0.5, np.nan, 1.0]))
        assert np.isnan(direct[1]) and np.isnan(via_a[1])
        assert (direct[2], via_a[2]) == curvature_defect(pair, 1.0)

    def test_batched_overflow_names_the_point_as_it_alone_does(self):
        pair = graph_counterexample_pair()
        zs = np.array([0.5, 1e200, 1e20])
        with pytest.raises(ValueError, match=r"^the curvature defect at z = 1e\+200 overflows: ") as alone:
            curvature_defect(pair, zs[1])
        with pytest.raises(ValueError) as batch:
            curvature_defect(pair, zs)
        assert str(batch.value) == str(alone.value)

    def test_batched_degenerate_point_is_named_as_it_alone_does(self):
        # f' = (2z, 3z^2) vanishes at z = 0 alone
        pair = HoloCurvePair((0, 1), (0, 0, 1))
        zs = np.array([0.5, 0.0, 0.7, 0.0])
        named = r"^degenerate induced metric \(both derivatives vanish\) at z = 0\.0$"
        with pytest.raises(ValueError, match=named) as alone:
            curvature_defect(pair, zs[1])
        with pytest.raises(ValueError) as batch:
            curvature_defect(pair, zs)
        assert str(batch.value) == str(alone.value)


class TestCirizaProperty:
    @pytest.mark.parametrize("n", (2, 3))
    def test_catalog_images_linear(self, n):
        dm = DarbouxMap(CigarProductPotential(n))
        for emb in standard_catalog(n):
            rep = ciriza_image_check(dm, emb)
            assert rep.passed, (emb.sigma, rep.max_residual, rep.rank)
            assert rep.max_residual <= 1e-9
            assert rep.rank == emb.k

    def test_soliton_catalog(self):
        dm = DarbouxMap(soliton_potential(SolitonProfile(2)))
        for emb in standard_catalog(2):
            rep = ciriza_image_check(dm, emb)
            assert rep.passed

    def test_counterexample_rank(self):
        dm = DarbouxMap(CigarProductPotential(2))
        assert curve_image_rank(dm, graph_counterexample_pair()) == 2

    def test_rank_of_zero_rows_is_zero(self):
        assert submanifolds_mod._complex_rank(np.zeros((3, 2), dtype=complex)) == 0

    def test_dimension_mismatch(self):
        dm = DarbouxMap(CigarProductPotential(3))
        with pytest.raises(ValueError):
            ciriza_image_check(dm, standard_catalog(2)[0])

    def test_no_samples_rejected(self):
        dm = DarbouxMap(CigarProductPotential(2))
        with pytest.raises(ValueError, match="samples"):
            ciriza_image_check(dm, standard_catalog(2)[0], samples=0)

    @pytest.mark.parametrize(
        "model", [CigarProductPotential(2), soliton_potential(SolitonProfile(2))], ids=lambda m: m.name
    )
    def test_one_map_point_call_per_image_loop(self, model, monkeypatch):
        dm = DarbouxMap(model)
        batches = []
        map_point = DarbouxMap.map_point

        def recording(self, z):
            w = map_point(self, z)
            batches.append((np.array(z), w))
            return w

        monkeypatch.setattr(DarbouxMap, "map_point", recording)
        ciriza_image_check(dm, standard_catalog(2)[0], samples=7)
        curve_image_rank(dm, graph_counterexample_pair())
        monkeypatch.undo()
        assert [z.shape for z, _ in batches] == [(7, 2), (50, 2)]
        for z, w in batches:  # each row equals its batch-of-one call
            assert np.array([dm.map_point(row) for row in z]).tobytes() == w.tobytes()

    def test_report_dict(self):
        dm = DarbouxMap(CigarProductPotential(2))
        rep = ciriza_image_check(dm, standard_catalog(2)[0], samples=5)
        d = rep.as_dict()
        assert d["pass"] is True
        assert d["samples"] == 5
        assert d["tolerance"] == 1e-9

    def test_verdict_uses_the_fixed_bound(self):
        # the bound is the suite's 1e-9; no argument or field can move it
        rep = ciriza_image_check(DarbouxMap(CigarProductPotential(2)), standard_catalog(2)[0], samples=5)
        assert rep.passed
        assert not dataclasses.replace(rep, max_residual=2e-9).passed
        assert dataclasses.replace(rep, max_residual=1e-9).passed
        assert "tolerance" not in {f.name for f in dataclasses.fields(rep)}


class TestHoloCurvePair:
    @pytest.mark.parametrize("coeffs", [((np.nan,), (0.0, 1.0)), ((1.0,), (0.0, np.inf)),
                                        ((1.0,), (complex(0.0, np.nan),))])
    def test_nonfinite_coefficients_rejected(self, coeffs):
        with pytest.raises(ValueError, match="curve coefficients must be finite"):
            HoloCurvePair(*coeffs)

    def test_point_and_tangent(self):
        pair = HoloCurvePair((1.0, 2.0), (0.0, 1.0))
        # f1 = z + 2z^2, f2 = z^2
        assert np.allclose(pair.jet(1.0)[:2], [[3.0, 1.0], [5.0, 2.0]])

    def test_jet_matches_polynomial_reference_bitwise(self, rng):
        for degrees in ((1, 1), (1, 2), (3, 2), (4, 1)):
            for _ in range(10):
                c1, c2 = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in degrees)
                pair = HoloCurvePair(c1, c2)
                for z in (complex(*rng.standard_normal(2)), float(rng.standard_normal())):
                    assert pair.jet(z).tobytes() == _polynomial_jet(c1, c2, z).tobytes()

    def test_rows_equal_polyder_rows(self):
        # the k c_k derivative rows must be numpy's polyder rows bit for bit,
        # including the single 0 row of a derivative past the degree
        rng = np.random.default_rng(24)
        pairs = [((1.0,), (0.0, 1.0)), ((), ()), ((2j,), ())]
        pairs += [tuple(rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3, d)
                        + 1j * rng.standard_normal(d) for d in rng.integers(0, 6, 2))
                  for _ in range(200)]
        for c1, c2 in pairs:
            coeffs = [np.array([0.0, *np.asarray(c, dtype=complex)]) for c in (c1, c2)]
            rows = HoloCurvePair(c1, c2)._rows
            assert len(rows) == 3 and all(len(row) == 2 for row in rows)
            for m, row in enumerate(rows):
                for r, c in zip(row, coeffs):
                    assert np.array(r, dtype=complex).tobytes() == polyder(c, m).astype(complex).tobytes()

    def test_jet_equals_polyval_bitwise(self):
        # the jet's Horner kernel must reproduce numpy's polyval on a complex array
        rng = np.random.default_rng(18)
        pairs = [((1.0,), (0.0, 1.0))]  # the graph pair (z, z^2)
        pairs += [tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
                  for _ in range(40)]  # random cubic pairs
        for c1, c2 in pairs:
            pair = HoloCurvePair(c1, c2)
            coeffs = [np.array([0.0, *np.asarray(c, dtype=complex)]) for c in (c1, c2)]
            zs = [complex(*rng.standard_normal(2)), np.complex128(complex(*rng.standard_normal(2))),
                  np.float64(rng.standard_normal()), -float(rng.uniform()), 0.0, -0.0]
            for z in zs:
                w = np.asarray([z], dtype=complex)
                expected = [[polyval(w, polyder(c, m))[0] for c in coeffs] for m in range(3)]
                assert pair.jet(z).tobytes() == np.array(expected, dtype=complex).tobytes()


def _polynomial_jet(coeffs1, coeffs2, z):
    """Rows f, f', f'' of a HoloCurvePair at z from np.polynomial.Polynomial
    objects, evaluated on the 1-element array [z]."""
    polys = [np.polynomial.Polynomial([0.0, *np.asarray(c, dtype=complex)]) for c in (coeffs1, coeffs2)]
    w = np.asarray([z], dtype=complex)
    return np.array([[f.deriv(m)(w)[0] if m else f(w)[0] for f in polys] for m in range(3)], dtype=complex)
