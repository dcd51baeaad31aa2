"""Profile solver tests against independently derived closed-form values.

Frozen oracles used below (derived by hand / high-precision arithmetic):
  F_1(x) = e^x - 1                      => F_1(1) = e - 1
  F_2(x) = e^x (x - 1) + 1              => F_2(1) = 1
  F_3(x) = e^x (x^2 - 2x + 2) - 2       => F_3(1) = e - 2
  n=1:    u'(t) = log(1 + e^t), u''(t) = e^t/(1+e^t),
          so u'(0) = log 2, u''(0) = 1/2, u'''(0) = 1/4.
  n=2 series: u'(t) = e^t - e^{2t}/3 + (11/72) e^{3t} + O(e^{4t}).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxkit import (
    CigarProductPotential,
    FIntegral,
    PolyTestPotential,
    ProfileSolveError,
    SolitonPotential,
    SolitonProfile,
    profile_table,
)
from darbouxkit import soliton

NS = (1, 2, 3, 5)
SEAM_NS = (1, 2, 3, 4)
# every constructor that takes the dimension n
CONSTRUCTORS = (FIntegral, SolitonProfile, CigarProductPotential, PolyTestPotential)


class TestFIntegral:
    @pytest.mark.parametrize(
        "n,x,expected",
        [
            (1, 1.0, math.e - 1.0),
            (2, 1.0, 1.0),
            (3, 1.0, math.e - 2.0),
            (1, 0.0, 0.0),
            (2, 0.0, 0.0),
        ],
    )
    def test_closed_form_values(self, n, x, expected):
        assert FIntegral(n).eval(x) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("n", NS)
    def test_matches_quadrature(self, n):
        from scipy.integrate import quad

        f = FIntegral(n)
        for x in (0.05, 0.3, 0.5001, 1.7, 6.0):
            ref, err = quad(lambda s: s ** (n - 1) * math.exp(s), 0.0, x)
            assert f.eval(x) == pytest.approx(ref, rel=1e-12, abs=2 * err)

    @pytest.mark.parametrize("n", NS)
    def test_series_closed_form_crossover(self, n):
        # the two evaluation branches must agree where they meet
        f = FIntegral(n)
        for x in (0.4999, 0.5, 0.5001):
            assert f._series(x) == pytest.approx(f.eval(x), rel=1e-13)

    @pytest.mark.parametrize("n", NS)
    def test_log_eval_consistent(self, n):
        f = FIntegral(n)
        for x in (2.0, 30.0, 400.0):
            assert f.log_eval(x) == pytest.approx(math.log(f.eval(x)), rel=1e-13)
        # far beyond overflow: log F_n(x) ~ x + (n-1) log x
        big = 1e5
        assert f.log_eval(big) == pytest.approx(big + (n - 1) * math.log(big), rel=1e-8)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="x >= 0"):
            FIntegral(2).eval(-1.0)

    def test_log_form_needs_a_positive_tail(self):
        # F_2(x) = e^x (x - 1) + 1: the tail x - 1 is negative below 1
        with pytest.raises(ValueError, match="log form needs a larger argument, got x=0.5"):
            FIntegral(2).log_eval(0.5)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_closed_form_cutoff(self, n):
        # the closed form takes over where its cancellation against (n-1)! is mild:
        # at 0.5 up to n = 5, later above, and it agrees with the series there
        f = FIntegral(n)
        cutoff = soliton._closed_form(n)[0]
        assert (cutoff == 0.5) == (n <= 5)
        for x in (cutoff, cutoff + 1e-3):
            assert f.eval(x) == pytest.approx(f._series(x), rel=2e-12)

    @given(st.floats(min_value=1e-6, max_value=0.499))
    def test_series_positive_below_cutoff(self, x):
        # integrand is positive, so F must be positive and increasing
        f = FIntegral(2)
        assert 0.0 < f.eval(x) < f.eval(0.5)


class TestProfileOracles:
    def test_n1_values_at_zero(self):
        p = SolitonProfile(1)
        assert p.u_prime(0.0) == pytest.approx(math.log(2.0), abs=1e-14)
        assert p.u_second(0.0) == pytest.approx(0.5, abs=1e-13)
        assert p.derivatives(0.0)[2] == pytest.approx(0.25, abs=1e-12)

    def test_n1_closed_form_on_grid(self):
        p = SolitonProfile(1)
        for t in np.linspace(-20.0, 20.0, 101):
            expected = np.logaddexp(0.0, t)  # log(1 + e^t)
            assert p.u_prime(t) == pytest.approx(expected, rel=1e-12, abs=1e-13)
            assert p.u_second(t) == pytest.approx(
                math.exp(t - expected), rel=1e-11, abs=1e-13
            )

    def test_n2_series_coefficients(self):
        b = soliton._series_coefficients(2)
        assert b[1] == pytest.approx(1.0, abs=0.0)
        assert b[2] == pytest.approx(-1.0 / 3.0, rel=1e-14)
        assert b[3] == pytest.approx(11.0 / 72.0, rel=1e-13)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_leading_series_coefficient_is_one(self, n):
        assert soliton._series_coefficients(n)[1] == pytest.approx(1.0, abs=1e-15)

    def test_deep_negative_t_asymptotics(self):
        # u'(t) ~ e^t as t -> -inf for every n
        for n in (1, 2, 3):
            p = SolitonProfile(n)
            assert p.u_prime(-30.0) == pytest.approx(math.exp(-30.0), rel=1e-6)

    def test_derivatives_tuple_matches_parts(self):
        p = SolitonProfile(2)
        for t in (-7.0, 0.3, 4.0):
            d = p.derivatives(t)
            assert d[:2] == (p.u_prime(t), p.u_second(t))


class TestProfileResiduals:
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_ode_residual_on_grid(self, n):
        p = SolitonProfile(n)
        worst = max(abs(p.ode_residual(t)) for t in np.linspace(-10.0, 10.0, 200))
        assert worst <= 1e-9

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("t", (-400.0, -25.0, -3.0001, -2.9999, 0.0, 19.99, 20.01, 400.0))
    def test_residuals_at_branch_seams(self, n, t):
        # grid straddles the series/Newton and Newton/log-branch switchovers
        p = SolitonProfile(n)
        assert abs(p.ode_residual(t)) <= 1e-9
        assert abs(p.inversion_residual(t)) <= 1e-9

    @given(st.integers(min_value=1, max_value=4), st.floats(min_value=-50.0, max_value=50.0))
    def test_ode_residual_property(self, n, t):
        assert abs(SolitonProfile(n).ode_residual(t)) <= 1e-8

    @given(st.integers(min_value=1, max_value=3), st.floats(min_value=-30.0, max_value=30.0))
    def test_profile_monotone_convex_data(self, n, t):
        # u' and u'' are positive; u' is increasing (u'' > 0)
        p = SolitonProfile(n)
        assert p.u_prime(t) > 0.0
        assert p.u_second(t) > 0.0

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_limits_at_large_t(self, n):
        p = SolitonProfile(n)
        t = 200.0
        assert abs(p.u_prime(t) / t - n) <= 0.05 * n
        assert abs(p.u_second(t) - n) <= 0.05

    def test_branch_continuity(self):
        # u' values from adjacent branches agree across each seam
        for n in (1, 2, 3):
            p = SolitonProfile(n)
            for seam in (-3.0, 60.0 / n):
                lo, hi = p.u_prime(seam - 1e-9), p.u_prime(seam + 1e-9)
                assert hi == pytest.approx(lo, rel=1e-8)


class TestSolveErrors:
    @pytest.mark.parametrize("n", SEAM_NS)
    def test_nan_evaluation_raises(self, n, monkeypatch):
        monkeypatch.setattr(FIntegral, "eval", lambda self, x: float("nan"))
        with pytest.raises(ProfileSolveError):
            SolitonProfile(n).u_prime(0.5)

    @pytest.mark.parametrize("n", SEAM_NS)
    def test_nan_log_evaluation_raises(self, n, monkeypatch):
        monkeypatch.setattr(FIntegral, "log_eval", lambda self, x: float("nan"))
        with pytest.raises(ProfileSolveError):
            SolitonProfile(n).u_prime(100.0)

    def test_non_positive_jet_has_infinite_residual(self):
        p = SolitonProfile(2)
        assert p._ode_residual(0.0, -1.0, 1.0) == math.inf
        assert p._ode_residual(0.0, 1.0, 0.0) == math.inf

    def test_bisection_takes_over_from_overshooting_steps(self, monkeypatch):
        # 1000 F_n makes every Newton step 1000 times too long; the bracket's
        # bisection still brings the solve to the root of log(1000 F_n) = n t - log n
        true_eval = FIntegral.eval
        monkeypatch.setattr(FIntegral, "eval", lambda self, x: 1e3 * true_eval(self, x))
        x = SolitonProfile(2)._newton(0.5)
        monkeypatch.undo()
        assert 1e3 * FIntegral(2).eval(x) == pytest.approx(math.exp(1.0) / 2.0, rel=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        # one Newton iteration cannot meet _NEWTON_TOL here; the last iterate
        # must not come back as an answer
        monkeypatch.setattr(soliton, "_MAX_NEWTON_ITER", 1)
        with pytest.raises(ProfileSolveError):
            SolitonProfile(2).u_prime(0.5)


class TestEveryDimension:
    """The solve holds for every n, not only the n <= 3 the claims use."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_u_prime_solves_on_the_scanned_grids(self, n):
        # the F_n series/closed-form seam crossed t in [-0.621, -0.479] for
        # n = 6 and [-3, 3] for n = 6..16; the direct/log seam at n t = 60
        # left n = 16 without a positive log-form tail up to n t = 71.2
        p = SolitonProfile(n)
        grid = [*np.linspace(-0.621, -0.479, 143), *np.linspace(-3.0, 3.0, 6001),
                *np.linspace(60.0 / n, 71.2 / n, 113)[1:]]
        values = [p.u_prime(t) for t in grid]
        assert all(v > 0.0 for v in values)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_log_form_starts_where_its_tail_is_positive(self, n):
        start = max(soliton._LOG_BRANCH_NT, soliton._log_form_nt(n))
        assert (start == soliton._LOG_BRANCH_NT) == (n <= 13)
        target = start - math.log(n)
        lower_bracket = target - (n - 1) * math.log(target + 1.0)
        assert math.isfinite(FIntegral(n).log_eval(lower_bracket))


class TestBranchSeams:
    """Both branches of each profile seam evaluated at the same point.

    Measured: series vs Newton u' <= 1.5e-16 relative at t = -3, the full jet
    <= 3.4e-15, direct vs log Newton at n t = 60 identical.  ``_newton`` picks
    its form from ``_LOG_BRANCH_NT``, so moving that constant forces either
    form at the same t.
    """

    @pytest.mark.parametrize("n", SEAM_NS)
    def test_series_vs_newton_u_prime(self, n):
        p = SolitonProfile(n)
        series = p.u_prime(-3.0)
        newton = p._newton(-3.0)
        assert abs(series - newton) <= 2e-15 * series

    @pytest.mark.parametrize("n", SEAM_NS)
    def test_series_vs_recursion_jet(self, n):
        p = SolitonProfile(n)
        series = p.derivatives(-3.0)
        recursion = p._recursion_jet(-3.0, p._newton(-3.0))
        for a, b in zip(series, recursion):
            assert abs(a - b) <= 5e-14 * abs(a)

    @pytest.mark.parametrize("n", SEAM_NS)
    def test_direct_vs_log_newton(self, n, monkeypatch):
        p = SolitonProfile(n)
        t = 60.0 / n
        monkeypatch.setattr(soliton, "_LOG_BRANCH_NT", math.inf)
        direct = p._newton(t)
        monkeypatch.setattr(soliton, "_LOG_BRANCH_NT", -math.inf)
        log_form = p._newton(t)
        assert abs(direct - log_form) <= 1e-15 * direct

    @pytest.mark.parametrize("n", SEAM_NS)
    def test_log_seam_evaluations(self, n, monkeypatch):
        # n t = 60 exactly solves with F_n itself, the next float above with
        # log F_n only: the seam the benchmark's branch counter assumes
        evals = _count_calls(monkeypatch, FIntegral, "eval")
        log_evals = _count_calls(monkeypatch, FIntegral, "log_eval")
        p = SolitonProfile(n)
        t = 60.0 / n
        assert n * t == soliton._LOG_BRANCH_NT
        p.u_prime(t)
        assert evals and not log_evals
        evals.clear()
        above = math.nextafter(t, math.inf)
        assert n * above > soliton._LOG_BRANCH_NT
        p.u_prime(above)
        assert log_evals and not evals


def _count_calls(monkeypatch, cls, attr) -> list:
    calls = []
    original = getattr(cls, attr)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, attr, counted)
    return calls


class TestSolveCost:
    @pytest.mark.parametrize("n", SEAM_NS)
    def test_one_solve_per_jet(self, n, monkeypatch):
        solves = _count_calls(monkeypatch, SolitonProfile, "u_prime")
        p = SolitonProfile(n)
        for t in (-5.0, 0.5, 100.0 / n):  # series, direct and log branches
            solves.clear()
            p.derivatives(t)
            assert len(solves) == 1, t

    @pytest.mark.parametrize("n", SEAM_NS)
    def test_fourth_order_tensors_cost_one_solve(self, n, monkeypatch):
        solves = _count_calls(monkeypatch, SolitonProfile, "u_prime")
        model = SolitonPotential(SolitonProfile(n))
        for s in (0.1001, 0.7, 30.0):  # chain branch, s >= 0.1
            solves.clear()
            model.derivative_tensors(np.full(n, s / n), 4)
            assert len(solves) == 1, s

    @pytest.mark.parametrize("n", SEAM_NS)
    def test_newton_evaluations_per_solve(self, n, monkeypatch):
        evals = _count_calls(monkeypatch, FIntegral, "eval")
        log_evals = _count_calls(monkeypatch, FIntegral, "log_eval")
        p = SolitonProfile(n)
        for t in np.linspace(-3.0, 400.0, 2000):
            evals.clear()
            log_evals.clear()
            p.u_prime(t)
            assert len(evals) + len(log_evals) <= 8, t


class TestProfileTable:
    def test_shape_and_columns(self):
        tbl = profile_table(SolitonProfile(2), -5.0, 5.0, 11)
        assert tbl.shape == (11, 4)
        assert tbl[0, 0] == -5.0 and tbl[-1, 0] == 5.0
        p = SolitonProfile(2)
        assert tbl[5, 1] == pytest.approx(p.u_prime(0.0))
        assert tbl[5, 2] == pytest.approx(p.u_second(0.0))
        assert np.max(np.abs(tbl[:, 3])) <= 1e-12

    @pytest.mark.parametrize("bounds", [(np.nan, 1.0), (-1.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="t_min and t_max must be finite"):
            profile_table(SolitonProfile(2), *bounds, 5)


class TestValidation:
    def test_fields_are_pinned(self):
        # the root solve has one fixed stopping rule; a solver knob must not come back
        assert [f.name for f in dataclasses.fields(SolitonProfile)] == ["n"]

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            SolitonProfile(0)
        with pytest.raises(ValueError):
            FIntegral(-1)

    @pytest.mark.parametrize("make", CONSTRUCTORS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("n", [True, 2.7, 2.0, 0], ids=repr)
    def test_non_integer_or_small_n_rejected(self, make, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            make(n)

    @pytest.mark.parametrize("make", CONSTRUCTORS, ids=lambda c: c.__name__)
    def test_numpy_integer_n_accepted(self, make):
        built = make(np.int64(2))
        assert type(built.n) is int and built.n == 2
