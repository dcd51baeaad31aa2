"""Radial profile of the rotationally invariant gradient Kahler-Ricci soliton on C^n.

Everything is phrased through the scalar profile u(t), t = log ||z||^2, whose
potential is Phi(z) = u(log ||z||^2).  The profile is pinned down by

* the profile equation   (u')^(n-1) * u'' * e^(u') = e^(n t),
* positivity             u' > 0  and  u'' > 0,
* the normalisation      u'(t) ~ e^t  as  t -> -infinity.

One integration turns the equation into  F_n(u'(t)) = e^(nt) / n  with
F_n(x) = int_0^x s^(n-1) e^s ds, so each profile value is a one-dimensional
root solve.  Three branches keep the solve stable on the whole line:

* t <= -3:        power series in s = e^t, u'(log s) = sum_k b_k s^k, with
                  the b_k obtained by order-by-order inversion of
                  F_n(phi(s)) = s^n / n (cancellation-free near the origin);
* moderate t:     Newton on log F_n(x) = n t - log n, with log F_n taken
                  as log(F_n);
* n*t > 60:       the same Newton with log F_n formed without e^x, which
                  works far beyond the overflow range of the direct form.

Both Newton branches share one loop: seeded from the asymptotic inverses of
F_n, safeguarded by a bracket, and raising ``ProfileSolveError`` instead of
returning an unconverged iterate.  Each t costs one solve: ``derivatives``
gets u'' ... u'''' from u' through the profile equation (Cao 1996), or from
the same series on the series branch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import exp, expm1, factorial, isfinite, log, log1p

import numpy as np

__all__ = ["FIntegral", "ProfileSolveError", "SolitonProfile", "profile_table"]

_F_SERIES_CUTOFF = 0.5   # F_n power series below, closed form above
_SERIES_T = -3.0         # profile series branch for t at or below this
_LOG_BRANCH_NT = 60.0    # switch to the log-space solve once n*t exceeds this
_N_SERIES_TERMS = 24
_MAX_NEWTON_ITER = 100  # cap of the profile root solve


@functools.lru_cache(maxsize=None)
def _tail_polynomial(n: int) -> tuple[float, ...]:
    """Ascending coefficients p with F_n(x) = e^x p(x) + (-1)^n (n-1)!.

    Built from the recurrence p_k(x) = x^k - k p_{k-1}(x), p_0 = 1, which is
    the integrated-by-parts tail of F.
    """
    p = np.array([1.0])
    for k in range(1, n):
        mono = np.zeros(k + 1)
        mono[k] = 1.0
        p = np.polynomial.polynomial.polyadd(mono, -float(k) * p)
    return tuple(float(c) for c in p)


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


class ProfileSolveError(ArithmeticError):
    """The profile root solve met a non-finite F_n value or did not reach
    ``newton_tol`` within the iteration cap."""


@dataclass(frozen=True)
class FIntegral:
    """F_n(x) = int_0^x s^(n-1) e^s ds for integer n >= 1.

    Strictly increasing from F_n(0) = 0, with F_n(x) ~ x^n / n near zero.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    def eval(self, x: float) -> float:
        if x < 0.0:
            raise ValueError("F is only evaluated on x >= 0")
        if x < _F_SERIES_CUTOFF:
            return self._series(x)
        tail = np.polynomial.polynomial.polyval(x, _tail_polynomial(self.n))
        return exp(x) * tail + (-1.0) ** self.n * factorial(self.n - 1)

    def derivative(self, x: float) -> float:
        return x ** (self.n - 1) * exp(x)

    def log_eval(self, x: float) -> float:
        """log F_n(x) without forming e^x; requires the tail polynomial > 0."""
        tail = np.polynomial.polynomial.polyval(x, _tail_polynomial(self.n))
        if tail <= 0.0:
            raise ValueError(f"log form needs a larger argument, got x={x}")
        const = (-1.0) ** self.n * factorial(self.n - 1)
        corr = const * exp(-x) / tail if x < 700.0 else 0.0
        return x + log(tail) + log1p(corr)

    def _series(self, x: float) -> float:
        n = self.n
        acc = 0.0
        power = x**n
        kfact = 1.0
        for k in range(80):
            term = power / (kfact * (n + k))
            acc += term
            if term < 1e-18 * acc + 1e-320:
                break
            power *= x
            kfact *= k + 1
        return acc


@dataclass(frozen=True)
class SolitonProfile:
    """Evaluator for the profile u and its first four derivatives.

    ``newton_tol`` bounds the relative step at which the root solves stop.
    """

    n: int
    newton_tol: float = 1e-13

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 < self.newton_tol < 1e-3:
            raise ValueError("newton_tol must lie in (0, 1e-3)")

    # -- derivative evaluators -------------------------------------------------

    def u_prime(self, t: float) -> float:
        t = float(t)
        if t <= _SERIES_T:
            return self._series_sum(exp(t), weight_power=0)
        if self.n * t <= _LOG_BRANCH_NT:
            return self._solve_direct(t)
        return self._solve_log(t)

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
        """|F_n(u'(t)) - e^(nt)/n| relative to max(1, e^(nt)/n), log form for huge t."""
        f = FIntegral(self.n)
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
        b = _series_coefficients(self.n)
        acc = 0.0
        for k in range(len(b) - 1, 0, -1):
            acc = acc * s + float(k) ** weight_power * b[k]
        return acc * s

    def _solve_direct(self, t: float) -> float:
        f = FIntegral(self.n)

        def log_f(x: float) -> tuple[float, float]:
            value = f.eval(x)
            return log(value), f.derivative(x) / value

        return self._newton(t, log_f, lo=0.0)

    def _solve_log(self, t: float) -> float:
        f = FIntegral(self.n)
        n = self.n

        def log_f(x: float) -> tuple[float, float]:
            value = f.log_eval(x)
            return value, x ** (n - 1) * exp(x - value)

        # log F_n(x) <= x + (n-1) log x and the root lies below target + 1,
        # so it lies above this bound (which keeps log_eval's tail positive)
        target = n * t - log(n)
        return self._newton(t, log_f, lo=target - (n - 1) * log(target + 1.0))

    def _newton(self, t: float, log_f, lo: float) -> float:
        """Root x = u'(t) of log F_n(x) = n t - log n, given ``log_f(x)`` =
        (log F_n(x), its slope) from one F_n evaluation and a lower bound.

        F_n integrates the log-concave x^(n-1) e^x, so log F_n is concave: a
        Newton step never overshoots the root from below, and after the first
        step the iterates rise monotonically to it.  The seed is the larger
        of the two asymptotic inverses, e^t (F_n ~ x^n / n at small x) and
        L - (n-1) log L (log F_n ~ x + (n-1) log x at large x).  A step that
        leaves the bracket is replaced by bisection (rtsafe, Numerical Recipes
        section 9.4).
        """
        n = self.n
        target = n * t - log(n)
        hi = float("inf")
        phi = max(exp(min(t, 0.0)), target - (n - 1) * log(max(target, 1.0)))
        for _ in range(_MAX_NEWTON_ITER):
            value, slope = log_f(phi)
            resid = value - target
            if not (isfinite(resid) and slope > 0.0):
                raise ProfileSolveError(
                    f"log F_{n}({phi!r}) = {value!r} with slope {slope!r} while solving at t={t!r}"
                )
            if resid > 0.0:
                hi = phi
            else:
                lo = phi
            nxt = phi - resid / slope
            if abs(nxt - phi) <= self.newton_tol * phi:
                return nxt
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            phi = nxt
        raise ProfileSolveError(
            f"no convergence to newton_tol={self.newton_tol} in {_MAX_NEWTON_ITER} "
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
