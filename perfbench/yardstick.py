"""A reference kernel sampled on a timer, to express run time in machine-speed units.

On a shared 2-core VM the speed of one core swings by up to ~1.8x and stays
in one state for seconds to tens of seconds; CPU time moves with wall time, so
it is not time stolen from the process, and neither clock repeats across
runs.  ``Yardstick`` runs a fixed reference kernel from a SIGALRM handler
every ``INTERVAL_S`` seconds while a workload is measured.  The kernel is the
benchmark's own frozen copy of the shape of the library's work (per-coordinate
series loops, tensor fills, a Hermitian metric, its inverse and the
Christoffel/curvature contractions, and a scalar bracketed Newton solve on a
polynomial-times-exponential) and imports nothing from ``darbouxkit``: a
slow or fast phase of the machine moves it and the workload together (not
always by the same factor), while a change to the library moves only the
workload.  A pass's cost in "ref" units is its wall time, less the kernel
samples taken inside it, divided by the median kernel time over the same
pass.
"""

from __future__ import annotations

import signal
import statistics
import time
from math import exp, factorial, log1p

import numpy as np

INTERVAL_S = 0.05
_Z = np.array([0.7 + 0.2j, -0.3 + 0.9j, 0.4 - 0.5j])
_TAIL = (2.0, -2.0, 1.0)  # e^x (x^2 - 2x + 2) - 2 = int_0^x s^2 e^s ds


def _series(t: float, p: int) -> float:
    acc, weight, power = 0.0, float(factorial(p)), 1.0
    for m in range(40):
        acc += (-1.0) ** (m + p) * weight * power / (m + p + 1)
        power *= t
        weight *= (m + p + 1) / (m + 1)
    return acc


def _newton(target: float) -> float:
    lo, hi, x = 0.0, 50.0, 1.0
    for _ in range(60):
        resid = exp(x) * np.polynomial.polynomial.polyval(x, _TAIL) - 2.0 - target
        lo, hi = (lo, min(hi, x)) if resid > 0.0 else (max(lo, x), hi)
        nxt = x - resid / (x * x * exp(x))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-13 * max(1.0, x):
            return nxt
        x = nxt
    return x


def reference_kernel() -> float:
    """Fixed work of about 0.6 ms on an idle server core; never changes."""
    acc = sum(_newton(target) for target in (0.05, 3.0, 40.0, 900.0))
    z, n = _Z, len(_Z)
    t = z.real**2 + z.imag**2
    tensors = []
    for q in range(1, 4):
        tensor = np.zeros((n,) * q)
        tensor[tuple(np.arange(n) for _ in range(q))] = [_series(0.2 * tj, q - 1) + log1p(tj) for tj in t]
        tensors.append(tensor)
    d1, d2, d3 = tensors
    g = np.diag(d1).astype(complex) + np.outer(np.conj(z), z) * d2
    g = 0.5 * (g + g.conj().T)
    zb = np.conj(z)
    d = np.einsum("i,l,j,ilj->ilj", zb, z, zb, d3.astype(complex))
    ginv = np.conj(np.linalg.inv(g))
    gamma = np.einsum("ml,ilj->mij", ginv, d)
    r = np.einsum("pq,iqk,jpl->ijkl", ginv, d, np.conj(d))
    return acc + float(np.abs(gamma).sum() + np.abs(r).sum())


class Yardstick:
    """Context manager that samples ``reference_kernel`` every ``INTERVAL_S``."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self) -> "Yardstick":
        for _ in range(20):
            reference_kernel()  # warm numpy's dispatch caches
        self._sample(None, None)  # so that even a short measurement has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def samples_within(self, start: float, end: float) -> list[float]:
        """Durations of the samples that began in [start, end)."""
        return [s for t, s in zip(self.starts, self.seconds) if start <= t < end]

    def cost(self, start: float, seconds: float) -> tuple[float, float]:
        """(work seconds, cost in ref units) of a span timed as ``seconds``.

        A span too short to hold a sample is normalised by the median of
        all samples.
        """
        inside = self.samples_within(start, start + seconds)
        work = seconds - sum(inside)
        return work, work / statistics.median(inside or self.seconds)
