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
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyadd, polyval

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
        # at x = 0.5 F_2's tail polynomial x - 1 is negative: log_eval must not
        # take log p(x) apart from c e^(-x)
        f = FIntegral(n)
        for x in (0.5, 2.0, 30.0, 400.0):
            assert f.log_eval(x) == pytest.approx(math.log(f.eval(x)), rel=1e-13)
        # far beyond overflow: log F_n(x) ~ x + (n-1) log x
        big = 1e5
        assert f.log_eval(big) == pytest.approx(big + (n - 1) * math.log(big), rel=1e-8)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="x >= 0"):
            FIntegral(2).eval(-1.0)

    def test_log_form_needs_a_positive_tail(self, monkeypatch):
        # F_2(x) = e^x (x - 1) + 1: the tail polynomial x - 1 is negative below 1,
        # so the log form takes the log of the whole tail p(x) + c e^(-x) = F_2(x) e^(-x)
        f = FIntegral(2)
        assert soliton._closed_form(2)[0] == 0.5
        assert f.log_eval(0.5) == pytest.approx(math.log(f.eval(0.5)), rel=1e-13)
        # a tail that is not positive is refused by name, not handed to log
        monkeypatch.setattr(soliton, "_closed_form", lambda n: (0.5, (-1.0, 1.0), 0.0))
        with pytest.raises(ValueError, match=r"log form of F_2 has p\(x\) \+ c e\^\(-x\) = -0\.5 at x=0\.5"):
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

    @pytest.mark.parametrize("n, x", [(60, 37.0), (100, 52.2), (100, 70.0)])
    def test_series_converges_past_eighty_terms(self, n, x):
        # n = 60 needs 103 terms here, n = 100 up to 156, past where x^(n+k) leaves
        # the float range; a cap of 80 terms left 4e-10 and 2e-4 relative
        from scipy.integrate import quad

        assert x < soliton._closed_form(n)[0]
        ref, _ = quad(lambda s: s ** (n - 1) * math.exp(s), 0.0, x, epsrel=1e-13)
        assert FIntegral(n)._series(x) == pytest.approx(ref, rel=1e-13)
        assert FIntegral(n).eval(x) == FIntegral(n)._series(x)

    def test_series_past_its_cap_raises(self, monkeypatch):
        monkeypatch.setattr(soliton, "_F_SERIES_TERMS", 10)
        with pytest.raises(ProfileSolveError, match=r"F_3 power series did not converge in 10 terms at x=5\.0$"):
            FIntegral(3)._series(5.0)

    @pytest.mark.parametrize("n, cause", [(133, ZeroDivisionError), (150, OverflowError)])
    def test_series_past_the_float_range_raises(self, n, cause):
        # F_n(120) > 1e308 for both; from n = 133 on eval answers by the series
        # alone: at n = 133 the exact 2^900 rescale drives k! to 0, at n = 150
        # x^n itself overflows
        with pytest.raises(ProfileSolveError, match=rf"^F_{n} power series leaves the float range at x=120\.0$") as err:
            FIntegral(n).eval(120.0)
        assert isinstance(err.value.__cause__, cause)

    def test_overflowing_sum_raises(self):
        # x^150 / 150 and every later term stay finite at x = 74.23, but their
        # sum passes 1e308: eval and log_eval returned inf
        f = FIntegral(150)
        for evaluate in (f.eval, f.log_eval):
            with pytest.raises(ProfileSolveError, match=r"^F_150 power series leaves the float range at x=74\.23$"):
                evaluate(74.23)
        assert math.isfinite(f.eval(70.0)) and f.eval(70.0) == f._series(70.0)

    @given(st.floats(min_value=1e-6, max_value=0.499))
    def test_series_positive_below_cutoff(self, x):
        # integrand is positive, so F must be positive and increasing
        f = FIntegral(2)
        assert 0.0 < f.eval(x) < f.eval(0.5)


# the values of n = 1..16 before F_n's evaluation left numpy.polynomial
CLOSED_FORM_CUTOFFS = {
    1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5, 5: 0.5, 6: 0.78125, 7: 1.109375, 8: 1.46875,
    9: 1.890625, 10: 2.328125, 11: 2.796875, 12: 3.296875, 13: 3.828125,
    14: 4.359375, 15: 4.921875, 16: 5.484375,
}


def _polyadd_closed_form(n):
    """``soliton._closed_form(n)`` built with numpy.polynomial: the tail
    polynomial by polyadd, the cutoff search by polyval."""
    p = np.array([1.0])
    for k in range(1, n):
        mono = np.zeros(k + 1)
        mono[k] = 1.0
        p = polyadd(mono, -float(k) * p)
    c = (-1.0) ** n * math.factorial(n - 1)
    cutoff = soliton._F_SERIES_CUTOFF
    while math.exp(cutoff) * polyval(cutoff, np.abs(p)) + abs(c) > (
        soliton._F_CLOSED_COND * FIntegral(n)._series(cutoff)
    ):
        cutoff += 1.0 / 64.0
    return cutoff, tuple(float(v) for v in p), c


def _same_bits(a, b) -> bool:
    return float(a).hex() == float(b).hex()


class TestFloatKernel:
    """F_n's Horner kernel on Python floats against numpy's polyval."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_closed_form_tables_equal_polyadd_recurrence(self, n):
        assert soliton._closed_form(n) == _polyadd_closed_form(n)
        assert soliton._closed_form(n)[0] == CLOSED_FORM_CUTOFFS[n]

    def test_closed_form_past_the_float_range(self):
        # from n = 133 on, e^x sum_j |p_j| x^j overflows before the closed form
        # is well conditioned: no cutoff, and F_n is its power series everywhere;
        # from n = 172 on (n - 1)! itself is past the float range (it raised
        # an untyped OverflowError)
        assert math.isfinite(soliton._closed_form(132)[0])
        for n in (133, 150, 171, 172, 200):
            assert soliton._closed_form(n)[0] == math.inf
            f = FIntegral(n)
            for x in (0.7, 1.0, 10.0, 30.0):
                assert _same_bits(f.eval(x), f._series(x))
                assert _same_bits(f.log_eval(x), math.log(f._series(x)))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_kernel_equals_polyval_bitwise(self, n):
        rng = np.random.default_rng(n)
        cutoff, p, c = soliton._closed_form(n)
        abs_p = tuple(abs(v) for v in p)
        below = [float(x) for x in rng.uniform(0.0, cutoff, 50)] + [0.0, math.nextafter(cutoff, 0.0)]
        above = [float(x) for x in rng.uniform(cutoff, cutoff + 30.0, 50)] + [cutoff]
        for x in below + above + [float(x) for x in rng.uniform(cutoff, 700.0, 100)] + [700.0]:
            assert _same_bits(soliton._horner(p, x), polyval(x, p)), x
            assert _same_bits(soliton._horner(abs_p, x), polyval(x, np.abs(p))), x
        f = FIntegral(n)
        for x in below:
            assert _same_bits(f.eval(x), f._series(x)), x
        for x in above:
            assert _same_bits(f.eval(x), math.exp(x) * polyval(x, p) + c), x

    @pytest.mark.parametrize("n", range(1, 17))
    def test_log_form_equals_polyval_bitwise(self, n):
        # log F_n is the log of the series below the cutoff, and
        # x + log(p(x) + c e^(-x)) from it on, up to where e^(-x) underflows
        rng = np.random.default_rng(100 + n)
        cutoff, p, c = soliton._closed_form(n)
        f = FIntegral(n)
        below = [float(x) for x in rng.uniform(0.0, cutoff, 50)] + [1e-3, math.nextafter(cutoff, 0.0)]
        for x in below:
            assert _same_bits(f.log_eval(x), math.log(f._series(x))), x
        above = [float(x) for x in rng.uniform(cutoff, 800.0, 200)] + [cutoff, 699.9, 700.0, 746.0, 1e5]
        for x in above:
            assert _same_bits(f.log_eval(x), x + math.log(polyval(x, p) + c * math.exp(-x))), x


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
        # grid straddles the series/Newton seam at t = -3 and the switch of
        # inversion_residual to its log measure at n t = 60 (t = 20 for n = 3)
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
        # u' values from the series and Newton branches agree across t = -3
        for n in (1, 2, 3):
            p = SolitonProfile(n)
            lo, hi = p.u_prime(-3.0 - 1e-9), p.u_prime(-3.0 + 1e-9)
            assert hi == pytest.approx(lo, rel=1e-8)

    @pytest.mark.parametrize("n", (26, 30, 60))
    def test_inversion_residual_past_the_log_switch(self, n):
        # from n t = 60 on the residual is measured in log space while u' can
        # still lie below F_n's closed-form cutoff (14.6 at n = 30, 37.4 at
        # n = 60); the log form once raised ValueError there
        p = SolitonProfile(n)
        for t in np.linspace(60.0 / n, 100.0 / n, 201):
            res = p.inversion_residual(t)
            assert math.isfinite(res) and res <= 1e-9, t


class TestSolveErrors:
    @pytest.mark.parametrize("n", SEAM_NS)
    def test_nan_evaluation_raises(self, n, monkeypatch):
        # u'(-2.5) < 0.5, so every iterate takes log_eval's series side, the
        # log of FIntegral.eval
        monkeypatch.setattr(FIntegral, "eval", lambda self, x: float("nan"))
        with pytest.raises(ProfileSolveError):
            SolitonProfile(n).u_prime(-2.5)

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
        true_log_eval = FIntegral.log_eval
        monkeypatch.setattr(FIntegral, "log_eval", lambda self, x: math.log(1e3) + true_log_eval(self, x))
        x = SolitonProfile(2)._newton(0.5)
        monkeypatch.undo()
        assert 1e3 * FIntegral(2).eval(x) == pytest.approx(math.exp(1.0) / 2.0, rel=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        # one Newton iteration cannot meet _NEWTON_TOL here; the last iterate
        # must not come back as an answer.  The profile is built first: the
        # cap is read per solve, not frozen at construction
        p = SolitonProfile(2)
        p.u_prime(0.5)
        monkeypatch.setattr(soliton, "_MAX_NEWTON_ITER", 1)
        with pytest.raises(ProfileSolveError):
            p.u_prime(0.5)


class TestEveryDimension:
    """The solve holds for every n, not only the n <= 3 the claims use."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_u_prime_solves_on_the_scanned_grids(self, n):
        # the F_n series/closed-form seam crossed t in [-0.621, -0.479] for
        # n = 6 and [-3, 3] for n = 6..16; a former direct/log seam at n t = 60
        # left n = 16 without a positive log-form tail up to n t = 71.2
        p = SolitonProfile(n)
        grid = [*np.linspace(-0.621, -0.479, 143), *np.linspace(-3.0, 3.0, 6001),
                *np.linspace(60.0 / n, 71.2 / n, 113)[1:]]
        values = [p.u_prime(t) for t in grid]
        assert all(v > 0.0 for v in values)

    @pytest.mark.parametrize("n", (104, 108, 112, 116, 117, 120, 125, 130, 132))
    def test_large_n_solves_on_the_scanned_grid(self, n):
        # a former direct/log hand-off overflowed for n = 104..116 (1, 3, 7
        # and 10 typed failures on this grid); from n = 117 the closed form's
        # p(x) ~ x^(n-1) and the slope's x^(n-1) left the float range (from
        # t = 10 at n = 117, t = 7.25 at n = 132), and both are now taken in
        # logs there
        p = SolitonProfile(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (float(t) for t in np.linspace(-10.0, 10.0, 201)):
                jet = p.derivatives(t)
                assert all(math.isfinite(v) for v in jet) and jet[0] > 0.0 and jet[1] > 0.0, t

    @pytest.mark.parametrize("n, t", [(139, 5.2), (141, 5.8), (157, 4.6), (164, 4.4), (170, 4.2)])
    def test_large_n_raises_or_meets_the_series_oracle(self, n, t):
        # the closed log form once answered here, where it is ill-conditioned
        # (F_n's cutoff is inf from n = 133 on), and returned roots off by up
        # to 103 in log F_n; the oracle sums F_n's series in log space
        from scipy.special import gammaln, logsumexp

        try:
            x = SolitonProfile(n).u_prime(t)
        except ProfileSolveError:
            return
        k = np.arange(4000.0)
        log_f = logsumexp((n + k) * math.log(x) - gammaln(k + 1.0) - np.log(n + k))
        assert abs(log_f - (n * t - math.log(n))) <= 1e-9

    @pytest.mark.parametrize("n", (119, 150, 171))
    def test_large_n_solves_or_raises_naming_n_and_t(self, n):
        # n = 119 solves every t here (p(x) and the slope's x^(n-1), which
        # overflow from n = 117 on, are taken in logs there); F_n's power
        # series, which answers at every x from n = 133 on, leaves the float
        # range from x = 72.5 at n = 150, and n! itself at n = 171
        assert _solved_or_named(n, np.linspace(-3.5, 6.67, 200)) >= 50

    @pytest.mark.parametrize("n", (172, 200))
    def test_past_the_factorial_range_solves_or_raises_naming_n_and_t(self, n):
        # (n - 1)! leaves the float range from n = 172 on, where every iterate
        # at or above 0.5 failed (94 of these 201 t solved); F_n's series
        # answers there now (142 and 136 solve)
        assert _solved_or_named(n, np.linspace(-10.0, 10.0, 201)) > 94


def _solved_or_named(n: int, grid) -> int:
    """How many t of ``grid`` the n profile solves, with warnings as errors;
    every other t must raise a ``ProfileSolveError`` naming n and t."""
    p = SolitonProfile(n)
    solved = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (float(t) for t in grid):
            try:
                jet = p.derivatives(t)
            except ProfileSolveError as exc:
                assert f"at t={t!r} (n={n})" in str(exc)
            else:
                assert all(math.isfinite(v) for v in jet) and jet[0] > 0.0 and jet[1] > 0.0, t
                solved += 1
    return solved


class TestBranchSeams:
    """Both branches of each profile seam evaluated at the same point: the
    series and Newton at t = -3, and the two sides of ``FIntegral.log_eval``
    (the log of F_n's series, and the closed log form) at F_n's cutoff.

    Measured: series vs Newton u' <= 1.5e-16 relative at t = -3, the full jet
    <= 3.4e-15; the two log F_n <= 2.9e-13 relative (n = 7).
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

    @pytest.mark.parametrize("n", (*range(1, 17), 30, 60, 100, 132))
    def test_log_eval_series_vs_closed_log_form(self, n):
        f = FIntegral(n)
        cutoff = soliton._closed_form(n)[0]
        below = math.nextafter(cutoff, 0.0)
        assert _same_bits(f.log_eval(below), math.log(f._series(below)))
        for x in (cutoff, math.nextafter(cutoff, math.inf)):
            series = math.log(f._series(x))
            assert abs(f.log_eval(x) - series) <= 1e-12 * abs(series), x


    @pytest.mark.parametrize("n", (117, 120, 132))
    def test_log_eval_across_the_tail_overflow(self, n):
        # p(x) ~ x^(n-1) overflows from n = 117 near x = 455; past that x,
        # log_eval factors x^(n-1) out of p (it once returned inf there)
        from scipy.special import gammaln, logsumexp

        f = FIntegral(n)
        cutoff, p, c = soliton._closed_form(n)
        lo, hi = cutoff, 1e4
        while math.nextafter(lo, math.inf) < hi:  # the first x where p(x) overflows
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if soliton._horner(p, mid) == math.inf else (mid, hi)
        shift = (n - 1) * math.log(lo)
        factored = lo + shift + math.log(soliton._horner(p[::-1], 1.0 / lo) + c * math.exp(-lo - shift))
        assert abs(f.log_eval(lo) - factored) <= 1e-14 * factored  # both forms at the last finite p(x)
        k = np.arange(4000.0)
        for x in (lo, hi, 1.5 * hi):  # 4000 series terms reach x ~ 2000
            oracle = logsumexp((n + k) * math.log(x) - gammaln(k + 1.0) - np.log(n + k))
            assert abs(f.log_eval(x) - oracle) <= 1e-13 * oracle, x

    @pytest.mark.parametrize("n", (117, 125))
    def test_solve_across_the_slope_overflow(self, n):
        # phi^(n-1) overflows past phi = 454.4 at n = 117; the slope is then
        # taken as exp((n - 1) log phi + phi - log F_n(phi)), and the solve
        # once raised there (from t = 10 at n = 117)
        p = SolitonProfile(n)
        phi = math.exp(math.log(np.finfo(float).max) / (n - 1))
        with pytest.raises(OverflowError):
            (1.001 * phi) ** (n - 1)
        below = 0.999 * phi  # both slope forms where phi^(n-1) is finite
        value = p._f.log_eval(below)
        direct = below ** (n - 1) * math.exp(below - value)
        assert abs(math.exp((n - 1) * math.log(below) + below - value) - direct) <= 1e-12 * direct
        t_seam = (p._f.log_eval(phi) + math.log(n)) / n  # where u'(t) = phi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in np.linspace(t_seam - 0.05, t_seam + 0.05, 11):
                up = p.u_prime(float(t))
                assert p.ode_residual(float(t)) <= 1e-12
                assert abs(p._f.log_eval(up) - (n * t - math.log(n))) <= 1e-12 * n * t


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
        for t in (-5.0, 0.5, 100.0 / n):  # series branch, then Newton near and far out
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
        # one log_eval per iteration; F_n itself only inside log_eval, at most
        # once per call
        evals = _count_calls(monkeypatch, FIntegral, "eval")
        log_evals = _count_calls(monkeypatch, FIntegral, "log_eval")
        p = SolitonProfile(n)
        for t in np.linspace(-3.0, 400.0, 2000):
            evals.clear()
            log_evals.clear()
            p.u_prime(t)
            assert len(log_evals) <= 8, t
            assert len(evals) <= len(log_evals) and set(evals) <= set(log_evals), t


def reference_series_sum(n: int, s: float, weight_power: int) -> float:
    """The profile series as it was before its Python-float tables: Horner
    over the numpy ``_series_coefficients`` array, indexed term by term."""
    b = soliton._series_coefficients(n)
    acc = 0.0
    for k in range(len(b) - 1, 0, -1):
        acc = acc * s + float(k) ** weight_power * b[k]
    return acc * s


def reference_derivatives(profile: SolitonProfile, t: float) -> tuple:
    """``SolitonProfile.derivatives`` with the reference series."""
    t = float(t)
    if t <= soliton._SERIES_T:
        s = math.exp(t)
        return tuple(reference_series_sum(profile.n, s, p) for p in range(4))
    return profile._recursion_jet(t, profile._newton(t))


# rows of signed Stirling numbers of the first kind: C_q s^q = sum_m row[m] u^(m+1)
STIRLING_ROWS = {1: (1.0,), 2: (-1.0, 1.0), 3: (2.0, -3.0, 1.0), 4: (-6.0, 11.0, -6.0, 1.0)}


def reference_radial_deriv(model: SolitonPotential, s: float, order: int) -> tuple:
    """``SolitonPotential.radial_deriv`` as it was: the series double loop over
    the numpy b_k, and generator sums over ``STIRLING_ROWS`` on the reference jet."""
    from darbouxkit import potentials

    if s < potentials._RADIAL_SERIES_S:
        b = soliton._series_coefficients(model.n)
        acc = [0.0] * order
        for k in range(1, len(b)):
            weight = 1.0
            for q in range(1, min(k, order) + 1):
                acc[q - 1] += weight * b[k] * s ** (k - q)
                weight *= k - q
        return tuple(acc)
    derivs = reference_derivatives(model.profile, math.log(s))
    sums = [sum(c * d for c, d in zip(STIRLING_ROWS[q], derivs)) for q in range(1, order + 1)]
    try:
        return tuple(v / s**q for q, v in enumerate(sums, 1))
    except OverflowError:
        return tuple(v * s**-q for q, v in enumerate(sums, 1))


def _profile_seams(n: int) -> dict:
    """The t of each profile seam: the series at t = -3, and F_n's
    series/closed-form seam where u'(t) = ``_closed_form(n)[0]``, i.e.
    e^(n t) / n = F_n(cutoff)."""
    cutoff = soliton._closed_form(n)[0]
    return {
        "series": soliton._SERIES_T,
        "closed": math.log(n * FIntegral(n).eval(cutoff)) / n,
    }


def _around(x: float, width: float) -> list:
    return [*np.linspace(x - width, x + width, 41), x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]


class TestTablesMatchReferences:
    """The float tables of the series branches and the chain sums give the
    reference loops' values bit for bit, across every profile and radial seam."""

    @pytest.mark.parametrize("n", (*SEAM_NS, 14, 16))
    def test_jet_and_residual_bitwise(self, n):
        p = SolitonProfile(n)
        seams = _profile_seams(n)
        cutoff = soliton._closed_form(n)[0]
        assert p.u_prime(seams["closed"] - 1e-3) < cutoff < p.u_prime(seams["closed"] + 1e-3)
        grid = [*np.linspace(-8.0, 8.0, 400), *np.geomspace(8.0, 400.0, 20)]
        for t0 in seams.values():
            grid += _around(t0, 1e-3)
        for t in (float(t) for t in grid):
            jet, ref = p.derivatives(t), reference_derivatives(p, t)
            assert all(_same_bits(a, b) for a, b in zip(jet, ref)), t
            assert _same_bits(p.ode_residual(t), p._ode_residual(t, *ref[:2])), t

    @pytest.mark.parametrize("n", (*SEAM_NS, 14, 16))
    def test_radial_deriv_bitwise(self, n):
        model = SolitonPotential(SolitonProfile(n))
        grid = [0.0, 1e300, *np.geomspace(1e-4, 1e4, 300), *_around(0.1, 1e-4)]
        grid += [math.exp(t) for t in _profile_seams(n).values() if t > math.log(0.1)]
        for s in (float(s) for s in grid):
            for order in (1, 4):
                got, ref = model.radial_deriv(s, order), reference_radial_deriv(model, s, order)
                assert len(got) == len(ref) == order
                assert all(_same_bits(a, b) for a, b in zip(got, ref)), (s, order)

    def test_tables_are_python_floats(self):
        # the float tables exist to take numpy scalars out of the series loops
        for p in range(4):
            assert all(type(v) is float for v in soliton._series_weights(3, p))
        assert type(SolitonProfile(3).derivatives(-5.0)[0]) is float
        assert type(SolitonPotential(SolitonProfile(3)).radial_deriv(0.05, 4)[3]) is float


class TestDataclassBehaviour:
    """The per-profile solve state is not a field: equality, hashing, repr
    and ``dataclasses.replace`` see n alone."""

    def test_profile_equality_hash_repr(self):
        p, q = SolitonProfile(2), SolitonProfile(2)
        p.u_prime(0.5)  # a used profile equals a fresh one
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1
        assert p != SolitonProfile(3)
        assert repr(p) == "SolitonProfile(n=2)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n = 3

    def test_replace_rebuilds_the_solve_state(self):
        p = dataclasses.replace(SolitonProfile(2), n=16)
        assert p == SolitonProfile(16) and p._f == FIntegral(16)
        t = 62.0 / 16
        assert _same_bits(p.u_prime(t), SolitonProfile(16).u_prime(t))

    def test_fintegral_equality_hash_repr_after_use(self):
        f = FIntegral(7)
        f.eval(3.0)  # caches the closed form on the instance
        assert f == FIntegral(7) and hash(f) == hash(FIntegral(7))
        assert repr(f) == "FIntegral(n=7)"
        assert f != FIntegral(8)


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
