"""Radial profile of the rotationally invariant gradient Kahler-Ricci soliton on C^n.

Everything is phrased through the scalar profile u(t), t = log ||z||^2, whose
potential is Phi(z) = u(log ||z||^2).  The profile is pinned down by

* the profile equation   (u')^(n-1) * u'' * e^(u') = e^(n t),
* positivity             u' > 0  and  u'' > 0,
* the normalisation      u'(t) ~ e^t  as  t -> -infinity.

One integration turns the equation into  F_n(u'(t)) = e^(nt) / n  with
F_n(x) = int_0^x s^(n-1) e^s ds, so each profile value is a one-dimensional
root solve.  Two branches keep the solve stable on the whole line:

* t <= -3:  power series in s = e^t, u'(log s) = sum_k b_k s^k, with the b_k
            obtained by order-by-order inversion of F_n(phi(s)) = s^n / n
            (cancellation-free near the origin);
* t > -3:   Newton on log F_n(x) = n t - log n, one ``FIntegral.log_eval``
            per iteration: the log of F_n's power series below its
            closed-form cutoff, and x + log(p(x) + c e^(-x)) above it, which
            forms no e^x and so holds far beyond the overflow range of F_n.

``_newton(t)`` is seeded from the asymptotic inverses of F_n, safeguarded by
a bracket, and raises ``ProfileSolveError`` instead of returning an
unconverged iterate, or where F_n leaves the float range (for |t| <= 10
from n = 133 on).  The closed form's tail polynomial p runs one
Horner kernel on Python floats, ``_horner``, in numpy's polyval order:
polyval's values bit for bit, without its per-call array overhead.  Each t
costs one solve: ``derivatives`` gets u'' ... u'''' from u' through the
profile equation (Cao 1996), or from the same series on the series branch.

Nothing that depends on n alone is rebuilt per solve: a ``SolitonProfile``
builds its ``FIntegral`` at construction, an ``FIntegral`` reads
``_closed_form(n)`` on its first closed-form evaluation, and the series
branch runs the same Horner kernel over ``_series_weights(n, p)``, the k^p b_k
as Python floats (the radial series of ``SolitonPotential`` reads p = 0, the
b_k).  ``_MAX_NEWTON_ITER`` stays a module constant read per solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import exp, expm1, factorial, inf, isfinite, log

import numpy as np

__all__ = ["FIntegral", "ProfileSolveError", "SolitonProfile", "profile_table"]

_F_SERIES_CUTOFF = 0.5   # F_n power series below, closed form above (at least)
_F_CLOSED_COND = 1e4     # largest condition number of F_n's closed form in use
_F_SERIES_TERMS = 400    # cap of the F_n power series (182 terms at n = 120's cutoff)
_F_SERIES_RESCALE = 2.0**900  # scale of the series' running power and factorial
_SERIES_T = -3.0         # profile series branch for t at or below this
_LOG_BRANCH_NT = 60.0    # inversion_residual measures in log space once n*t exceeds this
_N_SERIES_TERMS = 24
_MAX_NEWTON_ITER = 100  # cap of the profile root solve
_NEWTON_TOL = 1e-13     # the root solve stops once |step| <= this * u'


def _horner(p: tuple[float, ...], x: float) -> float:
    """p(x) for ascending coefficients p, by Horner on Python floats in
    ``numpy.polynomial.polynomial.polyval``'s operation order, so every value
    is polyval's bit for bit without its per-call array overhead."""
    acc = p[-1] + x * 0.0
    for c in reversed(p[:-1]):
        acc = c + acc * x
    return acc


@functools.lru_cache(maxsize=None)
def _closed_form(n: int) -> tuple[float, tuple[float, ...], float]:
    """(cutoff, p, c): F_n(x) = e^x p(x) + c with c = (-1)^n (n-1)!, taken at
    x >= cutoff and the power series below.

    p, in ascending coefficients, comes from the recurrence
    p_k(x) = x^k - k p_{k-1}(x), p_0 = 1, the integrated-by-parts tail of F.
    The closed form cancels where F_n is small against (n-1)!, so the cutoff
    is the first x = 0.5 + k/64 where its condition number
    (e^x sum_j |p_j| x^j + (n-1)!) / F_n(x) is at most ``_F_CLOSED_COND``:
    0.5 for n <= 5, 0.78 for n = 6 and 5.5 for n = 16.  Below it the rounding
    of the closed form would exceed the profile solve's step rule.  Where
    e^x sum_j |p_j| x^j (n >= 133) or (n-1)! (n >= 172) leaves the float
    range first, the cutoff is inf: the series answers everywhere.
    """
    p = (1.0,)
    for k in range(1, n):
        p = (*(-float(k) * v for v in p), 1.0)
    try:
        c = (-1.0) ** n * factorial(n - 1)
    except OverflowError:
        return inf, p, (-1.0) ** n * inf
    abs_p = tuple(abs(v) for v in p)
    cutoff = _F_SERIES_CUTOFF
    while True:
        bound = exp(cutoff) * _horner(abs_p, cutoff) + abs(c)
        if not isfinite(bound):
            return inf, p, c
        if bound <= _F_CLOSED_COND * FIntegral(n)._series(cutoff):
            return cutoff, p, c
        cutoff += 1.0 / 64.0


@functools.lru_cache(maxsize=None)
def _series_coefficients(n: int) -> np.ndarray:
    """Coefficients b with u'(log s) = sum_{k>=1} b_k s^k near s = 0, b_1 = 1.

    Determined order by order from F_n(phi(s)) = s^n / n: the s^(n+r)
    coefficient of the composition is linear in b_{r+1} with unit weight, so
    each new coefficient cancels the residual left by the previous ones.
    """
    b = np.zeros(_N_SERIES_TERMS + 1)
    b[1] = 1.0
    for r in range(1, _N_SERIES_TERMS):
        length = n + r + 1
        phi = np.zeros(min(r + 2, length))
        upto = min(r + 1, length - 1)
        phi[1 : upto + 1] = b[1 : upto + 1]  # candidate with b_{r+1} = 0
        coeff = 0.0
        cur = np.array([1.0])
        for j in range(1, length):
            cur = np.convolve(cur, phi)[:length]
            if j >= n and n + r < len(cur):
                m = j - n
                coeff += cur[n + r] / (factorial(m) * (n + m))
        b[r + 1] = -coeff
    b.flags.writeable = False
    return b


@functools.lru_cache(maxsize=None)
def _series_weights(n: int, p: int) -> tuple[float, ...]:
    """(k^p b_k for k = 1, 2, ...) on Python floats: the series terms of u'
    (p = 0, the b_k themselves) up to u'''' (p = 3)."""
    b = _series_coefficients(n)
    return tuple(float(float(k) ** p * b[k]) for k in range(1, len(b)))


def _dimension(n) -> int:
    """n as an int if it is an int or numpy integer >= 1; ValueError otherwise,
    for a bool or a float too."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


class ProfileSolveError(ArithmeticError):
    """The profile root solve met a non-finite or unevaluable F_n value (an
    overflow at large n) or did not reach its fixed relative step bound
    ``_NEWTON_TOL`` within the iteration cap; a solve's message names n and t."""


@dataclass(frozen=True)
class FIntegral:
    """F_n(x) = int_0^x s^(n-1) e^s ds for integer n >= 1.

    Strictly increasing from F_n(0) = 0, with F_n(x) ~ x^n / n near zero.
    """

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _dimension(self.n))

    @functools.cached_property
    def _closed(self) -> tuple[float, tuple[float, ...], float]:
        """``_closed_form(n)``, read on the first evaluation that needs it."""
        return _closed_form(self.n)

    def eval(self, x: float) -> float:
        if x < 0.0:
            raise ValueError("F is only evaluated on x >= 0")
        if x < _F_SERIES_CUTOFF:
            return self._series(x)
        cutoff, p, c = self._closed
        if x < cutoff:
            return self._series(x)
        return exp(x) * _horner(p, x) + c

    def log_eval(self, x: float) -> float:
        """log F_n(x): the log of ``eval`` below the closed form's cutoff, and
        x + log(p(x) + c e^(-x)) = log(e^x p(x) + c) above it, without e^x
        (or x^(n-1), factored out of p where p(x) overflows)."""
        if x >= _F_SERIES_CUTOFF:
            cutoff, p, c = self._closed
            if x >= cutoff:
                shift = 0.0
                tail = _horner(p, x) + c * exp(-x)
                if tail == inf:  # p(x) ~ x^(n-1) overflows (n >= 117, near x = 455)
                    shift = (self.n - 1) * log(x)
                    tail = _horner(p[::-1], 1.0 / x) + c * exp(-x - shift)
                if not tail > 0.0:
                    raise ValueError(f"log form of F_{self.n} has p(x) + c e^(-x) = {tail!r} at x={x!r}")
                return x + shift + log(tail)
        return log(self.eval(x))

    def _series(self, x: float) -> float:
        """sum_k x^(n+k) / (k! (n+k)); ``ProfileSolveError`` if it has not
        converged after ``_F_SERIES_TERMS`` terms, or where F_n(x) leaves the
        float range (x^n or the sum overflows, or the rescaled k! underflows
        to 0)."""
        n = self.n
        acc = 0.0
        try:
            power = x**n
            kfact = 1.0
            for k in range(_F_SERIES_TERMS):
                term = power / (kfact * (n + k))
                acc += term
                if term < 1e-18 * acc + 1e-320:
                    if acc == inf:
                        raise OverflowError
                    return acc
                power *= x
                kfact *= k + 1
                if power > _F_SERIES_RESCALE:
                    # an exact power-of-two rescale keeps both finite: k! alone overflows
                    # from k = 171 on, where its term would read as 0, as if converged
                    power /= _F_SERIES_RESCALE
                    kfact /= _F_SERIES_RESCALE
        except (OverflowError, ZeroDivisionError) as exc:
            raise ProfileSolveError(f"F_{n} power series leaves the float range at x={x!r}") from exc
        raise ProfileSolveError(f"F_{n} power series did not converge in {_F_SERIES_TERMS} terms at x={x!r}")


@dataclass(frozen=True)
class SolitonProfile:
    """Evaluator for the profile u and its first four derivatives."""

    n: int

    def __post_init__(self) -> None:
        n = _dimension(self.n)
        object.__setattr__(self, "n", n)
        # read by every root solve; not a field, so ==, hash and repr see n alone
        object.__setattr__(self, "_f", FIntegral(n))

    # -- derivative evaluators -------------------------------------------------

    def u_prime(self, t: float) -> float:
        t = float(t)
        if t <= _SERIES_T:
            return self._series_sum(exp(t), weight_power=0)
        return self._newton(t)

    def u_second(self, t: float) -> float:
        return self.derivatives(t)[1]

    def derivatives(self, t: float) -> tuple[float, float, float, float]:
        """The jet (u', u'', u''', u'''') at t from a single root solve."""
        t = float(t)
        up = self.u_prime(t)
        if t <= _SERIES_T:
            s = exp(t)
            return (up, self._series_sum(s, 1), self._series_sum(s, 2), self._series_sum(s, 3))
        return self._recursion_jet(t, up)

    def ode_residual(self, t: float) -> float:
        """Relative residual of (u')^(n-1) u'' e^(u') against e^(nt)."""
        t = float(t)
        up, us = self.derivatives(t)[:2]
        return self._ode_residual(t, up, us)

    def inversion_residual(self, t: float) -> float:
        """|F_n(u'(t)) - e^(nt)/n| relative to max(1, e^(nt)/n), measured in
        log space, |expm1(log F_n(u') - (n t - log n))|, once n t exceeds
        ``_LOG_BRANCH_NT`` (the only reader of that constant)."""
        f = self._f
        up = self.u_prime(t)
        nt = self.n * t
        if nt > _LOG_BRANCH_NT:
            return abs(expm1(f.log_eval(up) - (nt - log(self.n))))
        target = exp(nt) / self.n
        return abs(f.eval(up) - target) / max(1.0, target)

    # -- internals -------------------------------------------------------------

    def _recursion_jet(self, t: float, up: float) -> tuple[float, float, float, float]:
        # log u'' = n t - u' - (n-1) log u' is the profile equation; the
        # higher orders differentiate it
        n = self.n
        us = exp(n * t - up - (n - 1) * log(up))
        ut = us * (n - us - (n - 1) * us / up)
        uf = ut * ut / us - us * ut - (n - 1) * us * (ut / up - (us / up) ** 2)
        return (up, us, ut, uf)

    def _ode_residual(self, t: float, up: float, us: float) -> float:
        nt = self.n * t
        if up <= 0.0 or us <= 0.0:
            return float("inf")
        if abs(nt) > 600.0:
            log_lhs = (self.n - 1) * log(up) + log(us) + up
            return abs(expm1(log_lhs - nt))
        return abs(up ** (self.n - 1) * us * exp(up) - exp(nt)) / exp(nt)

    def _series_sum(self, s: float, weight_power: int) -> float:
        """sum_k k^p b_k s^k by Horner; p = 0,1,2,3 gives u', u'', u''', u''''."""
        return _horner(_series_weights(self.n, weight_power), s) * s

    def _newton(self, t: float) -> float:
        """Root x = u'(t) of log F_n(x) = n t - log n, bracketed below by 0,
        with one ``FIntegral.log_eval`` per iteration and the slope
        x^(n-1) e^(x - log F_n(x)), taken in logs where x^(n-1) overflows.

        F_n integrates the log-concave x^(n-1) e^x, so log F_n is concave: a
        Newton step never overshoots the root from below, and after the first
        step the iterates rise monotonically to it.  The seed is the larger
        of the two asymptotic inverses, e^t (F_n ~ x^n / n at small x) and
        L - (n-1) log L (log F_n ~ x + (n-1) log x at large x).  A step that
        leaves the bracket is replaced by bisection (rtsafe, Numerical Recipes
        section 9.4).
        """
        n = self.n
        f = self._f
        target = n * t - log(n)
        lo, hi = 0.0, inf
        phi = max(exp(min(t, 0.0)), target - (n - 1) * log(max(target, 1.0)))
        for _ in range(_MAX_NEWTON_ITER):
            try:
                value = f.log_eval(phi)
                try:
                    slope = phi ** (n - 1) * exp(phi - value)
                except OverflowError:  # phi^(n-1) is past the float range (n >= 117)
                    slope = exp((n - 1) * log(phi) + phi - value)
            except (ArithmeticError, ValueError) as exc:
                # an overflow, a failed F_n series or a non-positive F_n or tail (large n)
                raise ProfileSolveError(
                    f"log F_{n}({phi!r}) failed ({exc}) while solving at t={t!r} (n={n})"
                ) from exc
            resid = value - target
            if not (isfinite(resid) and slope > 0.0):
                raise ProfileSolveError(
                    f"log F_{n}({phi!r}) = {value!r} with slope {slope!r} while solving at t={t!r} (n={n})"
                )
            if resid > 0.0:
                hi = phi
            else:
                lo = phi
            nxt = phi - resid / slope
            if abs(nxt - phi) <= _NEWTON_TOL * phi:
                return nxt
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            phi = nxt
        raise ProfileSolveError(
            f"no convergence to a relative step of {_NEWTON_TOL} in {_MAX_NEWTON_ITER} "
            f"iterations at t={t!r} (n={n}); last iterate {phi!r}"
        )

def profile_table(
    profile: SolitonProfile, t_min: float, t_max: float, count: int
) -> np.ndarray:
    """Columns (t, u', u'', ode_residual) on a uniform grid, one row per t."""
    if count < 2:
        raise ValueError("count must be at least 2")
    if not (isfinite(t_min) and isfinite(t_max)):
        raise ValueError(f"t_min and t_max must be finite, got {t_min!r} and {t_max!r}")
    ts = np.linspace(t_min, t_max, count)
    rows = np.empty((count, 4))
    for i, t in enumerate(ts):
        up, us = profile.derivatives(t)[:2]
        rows[i] = (t, up, us, profile._ode_residual(float(t), up, us))
    return rows
