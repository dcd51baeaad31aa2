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
* moderate t:     bracketed Newton directly on F_n;
* n*t > 60:       Newton on log F_n, which never forms e^(nt) and therefore
                  works far beyond the overflow range of the direct form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import exp, expm1, factorial, log, log1p

import numpy as np

__all__ = ["FIntegral", "SolitonProfile", "profile_table"]

_F_SERIES_CUTOFF = 0.5   # F_n power series below, closed form above
_SERIES_T = -3.0         # profile series branch for t at or below this
_LOG_BRANCH_NT = 60.0    # switch to the log-space solve once n*t exceeds this
_N_SERIES_TERMS = 24


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
def _series_coefficients(n: int, terms: int = _N_SERIES_TERMS) -> np.ndarray:
    """Coefficients b with u'(log s) = sum_{k>=1} b_k s^k near s = 0, b_1 = 1.

    Determined order by order from F_n(phi(s)) = s^n / n: the s^(n+r)
    coefficient of the composition is linear in b_{r+1} with unit weight, so
    each new coefficient cancels the residual left by the previous ones.
    """
    b = np.zeros(terms + 1)
    b[1] = 1.0
    for r in range(1, terms):
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

    def log_derivative(self, x: float) -> float:
        """d/dx log F_n(x) = x^(n-1) e^x / F_n(x), in overflow-safe form."""
        tail = np.polynomial.polynomial.polyval(x, _tail_polynomial(self.n))
        const = (-1.0) ** self.n * factorial(self.n - 1)
        denom = tail + (const * exp(-x) if x < 700.0 else 0.0)
        return x ** (self.n - 1) / denom

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

    ``newton_tol`` bounds the relative step at which the root solves stop;
    ``a0`` is the free additive constant of u itself (derivatives do not see
    it, the potential value does).
    """

    n: int
    newton_tol: float = 1e-13
    a0: float = 0.0

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
        t = float(t)
        if t <= _SERIES_T:
            return self._series_sum(exp(t), weight_power=1)
        up = self.u_prime(t)
        return exp(self.n * t - up - (self.n - 1) * log(up))

    def u_third(self, t: float) -> float:
        t = float(t)
        if t <= _SERIES_T:
            return self._series_sum(exp(t), weight_power=2)
        up = self.u_prime(t)
        us = self.u_second(t)
        return us * (self.n - us - (self.n - 1) * us / up)

    def u_fourth(self, t: float) -> float:
        t = float(t)
        if t <= _SERIES_T:
            return self._series_sum(exp(t), weight_power=3)
        up = self.u_prime(t)
        us = self.u_second(t)
        ut = self.u_third(t)
        return ut * ut / us - us * ut - (self.n - 1) * us * (ut / up - (us / up) ** 2)

    def derivatives(self, t: float) -> tuple[float, float, float, float]:
        return (self.u_prime(t), self.u_second(t), self.u_third(t), self.u_fourth(t))

    def ode_residual(self, t: float) -> float:
        """Relative residual of (u')^(n-1) u'' e^(u') against e^(nt)."""
        t = float(t)
        up = self.u_prime(t)
        us = self.u_second(t)
        nt = self.n * t
        if up <= 0.0 or us <= 0.0:
            return float("inf")
        if abs(nt) > 600.0:
            log_lhs = (self.n - 1) * log(up) + log(us) + up
            return abs(expm1(log_lhs - nt))
        return abs(up ** (self.n - 1) * us * exp(up) - exp(nt)) / exp(nt)

    def series_coefficients(self) -> np.ndarray:
        return _series_coefficients(self.n)

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

    def _series_sum(self, s: float, weight_power: int) -> float:
        """sum_k k^p b_k s^k by Horner; p = 0,1,2,3 gives u', u'', u''', u''''."""
        b = _series_coefficients(self.n)
        acc = 0.0
        for k in range(len(b) - 1, 0, -1):
            acc = acc * s + float(k) ** weight_power * b[k]
        return acc * s

    def _solve_direct(self, t: float) -> float:
        f = FIntegral(self.n)
        target = exp(self.n * t) / self.n
        lo, hi = 0.0, self.n * max(t, 0.0) + 10.0
        phi = exp(t) if t <= 0.0 else max(self.n * t - log(self.n), 0.5)
        for _ in range(200):
            resid = f.eval(phi) - target
            if resid > 0.0:
                hi = min(hi, phi)
            else:
                lo = max(lo, phi)
            nxt = phi - resid / f.derivative(phi)
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - phi) <= self.newton_tol * max(1.0, abs(phi)):
                return nxt
            phi = nxt
        return phi

    def _solve_log(self, t: float) -> float:
        f = FIntegral(self.n)
        target = self.n * t - log(self.n)
        lo, hi = 1.0, target + 10.0
        phi = max(target - (self.n - 1) * log(max(target, 2.0)), 1.0)
        for _ in range(200):
            resid = f.log_eval(phi) - target
            if resid > 0.0:
                hi = min(hi, phi)
            else:
                lo = max(lo, phi)
            nxt = phi - resid / f.log_derivative(phi)
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
            if abs(nxt - phi) <= self.newton_tol * max(1.0, abs(phi)):
                return nxt
            phi = nxt
        return phi


def profile_table(
    profile: SolitonProfile, t_min: float, t_max: float, count: int
) -> np.ndarray:
    """Columns (t, u', u'', ode_residual) on a uniform grid, one row per t."""
    if count < 2:
        raise ValueError("count must be at least 2")
    ts = np.linspace(t_min, t_max, count)
    rows = np.empty((count, 4))
    for i, t in enumerate(ts):
        rows[i] = (t, profile.u_prime(t), profile.u_second(t), profile.ode_residual(t))
    return rows
