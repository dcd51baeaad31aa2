"""Rotation-invariant Kahler potentials on C^n and their pointwise metric data.

A model is a smooth function Phi(t_1, ..., t_n) of the radial coordinates
t_j = |z_j|^2 together with its t-derivatives up to fourth order, which it
evaluates in one place: ``derivative_tensors(t, order)``, the point's jet.
t may carry leading batch axes, (..., n); each tensor then has shape
(..., n, ..., n), and row by row it equals the jet of that point alone.
The associated Kahler form is omega_Phi = (i/2) d dbar Phi, whose Hermitian
matrix in complex coordinates is

    g_{j kbar} = delta_{jk} Phi_j + conj(z_j) z_k Phi_{jk},

with Phi_j = dPhi/dt_j and Phi_{jk} the second t-derivatives.  The flat
potential Phi = sum t_j gives the identity metric and the standard form.

Shipped families:

* ``CigarProductPotential`` — separable sum of cigar factors, per-coordinate
  first derivative log(1 + t)/t;
* ``SolitonPotential``      — radial potential u(log sum t_j) wrapping a
  ``SolitonProfile`` (the n = 1 case coincides with the cigar);
* ``PolyTestPotential``     — polynomial in t (plumbing-test family; the
  default coupled instance is t1*t2 + t1 + t2), its jet read from one
  exponent table built at construction.

Real tangent vectors use the interleaved ordering (x_1, y_1, ..., x_n, y_n),
which makes the standard two-form block-diagonal with [[0, 1], [-1, 0]].
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import factorial, isfinite, log, perm, prod
from typing import Mapping, Sequence

import numpy as np

from .soliton import SolitonProfile, _dimension, _horner, _radial_weights

__all__ = [
    "PotentialModel",
    "CigarProductPotential",
    "SolitonPotential",
    "PolyTestPotential",
    "soliton_potential",
    "flat_potential",
    "poly_test_model",
    "fold_test_model",
    "model_from_descriptor",
    "shipped_models",
    "radial_coords",
    "metric_at",
    "hermitian_to_two_form",
    "sample_polydisc",
    "SampleRegion",
    "Cond0Report",
    "cond0_scan",
]

_CIGAR_SERIES_T = 0.25    # per-coordinate series/closed-form switch
_RADIAL_SERIES_S = 0.1    # radial chain-rule/series switch


def _check_domain(
    z: np.ndarray, values: np.ndarray, bad: np.ndarray, what: str, error: type[ValueError] = ValueError
) -> None:
    """Raise ``error`` naming the first point of z (shape (..., n)) where ``bad``
    (shape (..., n)) holds: "{what} {that point's row of values} at z={the point}"."""
    if np.logical_or.reduce(bad, axis=None):
        n = z.shape[-1]
        k = np.flatnonzero(np.any(bad.reshape(-1, n), axis=-1))[0]
        raise error(f"{what} {values.reshape(-1, n)[k]} at z={z.reshape(-1, n)[k]}")


def _check_jet_finite(z: np.ndarray, d1: np.ndarray, bad: np.ndarray) -> None:
    """``metric_from_jet``'s ValueError for the first point of z where ``bad``
    holds: "potential derivatives are not finite: first derivative {its row of
    d1} at z=...", or, where that point is finite but some |z_j|^2 overflows,
    "radial coordinate |z_j|^2 overflows: t=... at z=..."."""
    if np.logical_or.reduce(bad, axis=None):
        n = z.shape[-1]
        k = np.flatnonzero(np.any(bad.reshape(-1, n), axis=-1))[0]
        z, d1 = z.reshape(-1, n)[k], d1.reshape(-1, n)[k]
        with np.errstate(over="ignore"):
            t = radial_coords(z)
        if np.isfinite(z).all() and np.isinf(t).any():
            raise ValueError(f"radial coordinate |z_j|^2 overflows: t={t} at z={z}")
        raise ValueError(f"potential derivatives are not finite: first derivative {d1} at z={z}")


def _jet_order(order: int) -> int:
    """``order`` if ``derivative_tensors`` answers it (1 to 4), else ValueError."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be 1, 2, 3 or 4, got {order!r}")
    return order


def radial_coords(z: Sequence[complex]) -> np.ndarray:
    """t_j = |z_j|^2 = x_j^2 + y_j^2, componentwise."""
    z = np.asarray(z, dtype=complex)
    return z.real**2 + z.imag**2


# ---------------------------------------------------------------------------
# per-coordinate cigar derivatives
# ---------------------------------------------------------------------------


# _CIGAR_SERIES[m, p]: coefficient of t^m in the p-th derivative of the series
# phi'(t) = sum_k (-1)^k t^k / (k+1); 48 terms reach 1e-20 relative below the seam
_CIGAR_SERIES = np.array(
    [[(-1.0) ** (m + p) * perm(m + p, p) / (m + p + 1) for p in range(4)] for m in range(48)]
)
_CIGAR_POWERS = np.arange(len(_CIGAR_SERIES))[:, None]
_CIGAR_SIGNED_FACTORIALS = [(-1.0) ** p * factorial(p) for p in range(4)]
_CIGAR_SERIES_BLOCK = 256  # series rows evaluated at once


def _cigar_diagonals(t: np.ndarray, order: int) -> list[np.ndarray]:
    """[d^q phi / dt^q at every entry of t for q = 1..order], phi'(t) = log(1+t)/t.

    Above t = 0.25 the closed form, written as
    (-1)^p p! t^-(p+1) (log(1+t) - sum_{j<=p} x^j / j) with x = t / (1+t)
    and built up order by order, so a low order costs few array operations;
    below it the series, one table of powers times ``_CIGAR_SERIES`` summed
    term by term (a matmul would round differently with the batch size).
    """
    series = t < _CIGAR_SERIES_T
    any_series = np.logical_or.reduce(series, axis=None)
    tc = np.where(series, 1.0, t) if any_series else t
    inv_t = 1.0 / tc
    bracket = np.log1p(tc)
    power = inv_t  # t^-(p+1)
    out = [bracket * power]
    if order > 1:
        x = tc / (1.0 + tc)
        x_p = x
        for p in range(1, order):
            bracket = bracket - x_p / p
            power = power * inv_t
            out.append(_CIGAR_SIGNED_FACTORIALS[p] * power * bracket)
            x_p = x_p * x
    if any_series:
        ts = t[series]
        if ts.min() < 0.0:
            raise ValueError("radial coordinate must be nonnegative")
        # every order sums all four columns, so D1 rounds alike at orders 1..4;
        # in blocks of rows, so the (rows, 48, 4) table stays small; a row's
        # sum is the same in any block
        values = np.empty((len(ts), 4))
        for i in range(0, len(ts), _CIGAR_SERIES_BLOCK):
            block = ts[i:i + _CIGAR_SERIES_BLOCK, None, None]
            values[i:i + _CIGAR_SERIES_BLOCK] = np.add.reduce(np.power(block, _CIGAR_POWERS) * _CIGAR_SERIES, axis=1)
        for p, diagonal in enumerate(out):
            diagonal[series] = values[:, p]
    return out


def _logsumexp(x: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log |sum_i signs_i e^(x_i)| and the sign of the sum, over the last axis of x.

    The terms are shifted by the row's maximum (by 0 where that is not
    finite), so none overflows; each row is summed alone, so a row of a batch
    equals its call alone.  A row that is all -inf, or cancels to 0, gives
    (-inf, 0).
    """
    shift = np.max(x, axis=-1, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        total = np.add.reduce(signs * np.exp(x - shift), axis=-1)
        return np.log(np.abs(total)) + shift[..., 0], np.sign(total)


def _log_ray_coords(log_r: np.ndarray, direction: Sequence[complex]) -> np.ndarray:
    """(..., radii, n) table of log t_j at z = r * direction, one row per log r,
    for a direction of shape (n,) or directions of shape (D, n); -inf where
    direction_j = 0."""
    d = np.asarray(direction, dtype=complex)
    with np.errstate(divide="ignore"):
        return 2.0 * (np.asarray(log_r, dtype=float)[:, None] + np.log(np.abs(d))[..., None, :])


# ---------------------------------------------------------------------------
# model interface
# ---------------------------------------------------------------------------


class PotentialModel(ABC):
    """Potential Phi(t_1..t_n) with t-derivatives to order four.

    Subclasses provide the jet ``derivative_tensors`` (the one per-point
    derivative evaluator) and an overflow-safe
    log-domain evaluator of the ray functional S(r) = sum_j Phi_j t_j.
    """

    n: int
    kind: str

    @property
    def name(self) -> str:
        return f"{self.kind}-n{self.n}"

    @abstractmethod
    def derivative_tensors(self, t: Sequence[float], order: int) -> tuple[np.ndarray, ...]:
        """The point's jet (D1, ..., D_order): D_q[..., j1..jq] = d^q Phi / dt_{j1}..dt_{jq}
        at t of shape (..., n), one jet per leading index."""

    @abstractmethod
    def log_ray_growth(self, log_r: np.ndarray, direction: Sequence[complex]) -> np.ndarray:
        """log of S = sum_j Phi_j t_j at z = r * direction, safe for huge r.

        ``log_r`` is a 1-D array of R log radii.  A direction of shape (n,)
        gives one log S per radius, shape (R,); directions of shape (D, n)
        give one row per direction, shape (D, R).  Each value equals the call
        on that radius and direction alone.
        """

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n}


class CigarProductPotential(PotentialModel):
    """Separable product-of-cigars potential: Phi(t) = sum_j phi(t_j)."""

    kind = "cigar"

    def __init__(self, n: int):
        self.n = _dimension(n)
        # flat stride of the diagonal of an (n,) * q tensor, at index q
        self._diagonal_steps = [sum(self.n**k for k in range(q)) for q in range(5)]

    def derivative_tensors(self, t, order):
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):  # inf * 0 at an infinite t: NaN, for metric_from_jet to name z
            diagonals = _cigar_diagonals(t, _jet_order(order))
        out = [diagonals[0]]
        for q in range(2, order + 1):
            tensor = np.zeros(t.shape + (self.n,) * (q - 1))  # C order, so reshape gives a view
            tensor.reshape(t.shape[:-1] + (self.n**q,))[..., :: self._diagonal_steps[q]] = diagonals[q - 1]
            out.append(tensor)
        return tuple(out)

    def log_ray_growth(self, log_r, direction):
        summands = np.logaddexp(0.0, _log_ray_coords(log_r, direction))  # log(1 + t_j)
        with np.errstate(divide="ignore"):  # a zero direction sums to 0
            return np.log(np.add.reduce(summands, axis=-1))


class SolitonPotential(PotentialModel):
    """Radial potential Phi(t) = u(log s), s = sum t_j, from a soliton profile.

    All t-derivatives of order q coincide and equal
    C_q(s) = (sum of signed Stirling combinations of u', ..., u^(q)) / s^q;
    near s = 0 the same quantity is the cancellation-free series
    sum_k (k-1)(k-2)...(k-q+1) b_k s^(k-q) in the profile's expansion
    coefficients b_k.
    """

    kind = "soliton"

    def __init__(self, profile: SolitonProfile):
        self.profile = profile
        self.n = profile.n
        # order q + 1 is C_(q+1) (slot q of the last axis) spread over (n,) * (q + 1)
        self._slots = [(Ellipsis, q) + (None,) * (q + 1) for q in range(4)]

    def radial_deriv(self, s: float, order: int) -> tuple[float, ...]:
        """(C_1, ..., C_order) at s = sum t_j, C_q = d^q Phi / (any q radial coordinates)."""
        if s < 0.0:
            raise ValueError("s must be nonnegative")
        if s < _RADIAL_SERIES_S:
            return tuple([_horner(_radial_weights(self.n, q), s) for q in range(1, order + 1)])
        # signed Stirling numbers of the first kind: C_q s^q = sum_m s(q, m) u^(m)
        u1, u2, u3, u4 = self.profile.derivatives(log(s))
        sums = (u1, -u1 + u2, 2.0 * u1 - 3.0 * u2 + u3, -6.0 * u1 + 11.0 * u2 - 6.0 * u3 + u4)[:order]
        try:
            return tuple([v / s**q for q, v in enumerate(sums, 1)])
        except OverflowError:  # s**q is past the float range: C_q underflows instead
            return tuple([v * s**-q for q, v in enumerate(sums, 1)])

    def derivative_tensors(self, t, order):
        # radial_deriv stays scalar (its branch and root solve are per s), so
        # a batch loops over the flattened s = sum_j t_j
        order = _jet_order(order)
        s = np.add.reduce(np.asarray(t, dtype=float), axis=-1)
        # an s past the float range has no jet: NaN there, for metric_from_jet
        # to name the point
        nan_row = (np.nan,) * order
        c = np.array([self.radial_deriv(si, order) if si < np.inf else nan_row for si in s.ravel().tolist()])
        c = c.reshape(s.shape + (order,))
        # filled by assignment: np.broadcast_to views cost more to build and to read
        jet = tuple(np.empty(s.shape + (self.n,) * q) for q in range(1, order + 1))
        for q, d in enumerate(jet):
            d[...] = c[self._slots[q]]
        return jet

    def log_ray_growth(self, log_r, direction):
        # the model is U(n)-invariant: s = r^2 |d|^2, so log s = 2 (log r + log |d|)
        with np.errstate(divide="ignore"):  # a zero direction gives log s = -inf
            log_d = np.log(np.linalg.norm(np.asarray(direction, dtype=complex), axis=-1))
        log_s = 2.0 * (np.asarray(log_r, dtype=float) + log_d[..., None])
        # one solve per distinct log s: unit rays share their s at each radius.
        # u'(t) ~ e^t, so log S ~ t below -700; u_prime stays scalar (per-t
        # branch and solve)
        ts, where = np.unique(log_s, return_inverse=True)
        values = np.array([t if t < -700.0 else log(self.profile.u_prime(t)) for t in ts.tolist()])
        return values[where].reshape(log_s.shape)


def soliton_potential(profile: SolitonProfile) -> SolitonPotential:
    """Wrap a profile as a radial PotentialModel on C^n, n = profile.n."""
    return SolitonPotential(profile)


class PolyTestPotential(PotentialModel):
    """Polynomial potential Phi(t) = sum_a c_a * t^a (plumbing-test family).

    ``monomials`` maps exponent multi-indices to real coefficients.  The
    default instance is the coupled polynomial t1*t2 + t1 + t2.
    """

    def __init__(
        self,
        n: int,
        monomials: Mapping[Sequence[int], float] | None = None,
        label: str = "poly",
    ):
        self.n = _dimension(n)
        self.kind = label
        if monomials is None:
            if n != 2:
                raise ValueError("the default coupled polynomial needs n = 2")
            monomials = {(1, 1): 1.0, (1, 0): 1.0, (0, 1): 1.0}
        self.monomials: dict[tuple[int, ...], float] = {}
        for a, c in monomials.items():
            a = tuple(int(q) for q in a)
            if len(a) != self.n or any(q < 0 for q in a):
                raise ValueError(f"bad exponent multi-index {a!r}")
            if c != 0.0:
                self.monomials[a] = float(c)
        # One exponent table for orders 1..4: row i is an index tuple (order by
        # order, each in the flattened tensor's order) with multiplicity m, and
        # monomial c_a t^a enters it with weight c_a * prod_j a_j! / (a_j - m_j)!
        # (0 when some a_j < m_j) and exponents max(a - m, 0), stored as
        # positions in the list of powers t_j^e that ``_evaluate`` builds.
        exps = np.array(list(self.monomials), dtype=int).reshape(-1, self.n)
        self._exponents = range(int(exps.max(initial=0)) + 1)
        rows = [idx for q in range(1, 5) for idx in itertools.product(range(self.n), repeat=q)]
        # order q occupies rows _order_start[q - 1] : _order_start[q]
        self._order_start = list(itertools.accumulate((self.n**q for q in range(1, 5)), initial=0))
        self._weights = np.zeros((len(rows), len(exps)))
        self._powers = np.zeros((len(rows), len(exps), self.n), dtype=int)
        for i, idx in enumerate(rows):
            m = [idx.count(j) for j in range(self.n)]
            self._powers[i] = np.maximum(exps - m, 0) + len(self._exponents) * np.arange(self.n)
            for k, (a, c) in enumerate(self.monomials.items()):
                self._weights[i, k] = c * prod(perm(aj, mj) for aj, mj in zip(a, m))

    def _evaluate(self, t, rows: int) -> np.ndarray:
        """The first ``rows`` table rows at t: sum_a weight * prod_j t_j^exponent."""
        # t_j ** e by scalar pow, not numpy's vectorised power, which rounds
        # differently in the last bit on some CPUs
        t = np.asarray(t, dtype=float)
        values = t.ravel().tolist()
        if not all(map(isfinite, values)):
            # NaN ** 0 and inf ** 0 are 1, so rows without a power of t would
            # read finite there: NaN rows instead, for metric_from_jet to name
            # the point
            finite = np.isfinite(t)
            out = self._evaluate(np.where(finite, t, 0.0), rows)
            out[~np.logical_and.reduce(finite, axis=-1)] = np.nan
            return out
        try:
            t_powers = np.array([tj**e for tj in values for e in self._exponents])
        except OverflowError:
            # a power past the float range: that point's rows are inf, for
            # metric_from_jet to name the point
            if t.ndim == 1:
                return np.full(rows, np.inf)
            rows_at = [self._evaluate(tp, rows) for tp in t.reshape(-1, self.n)]
            return np.reshape(rows_at, t.shape[:-1] + (rows,))
        t_powers = t_powers.reshape(t.shape[:-1] + (self.n * len(self._exponents),))
        terms = np.multiply.reduce(t_powers[..., self._powers[:rows]], axis=-1)
        return np.add.reduce(self._weights[:rows] * terms, axis=-1)

    def descriptor(self) -> dict:
        return {
            "kind": "poly",
            "n": self.n,
            "label": self.kind,
            "monomials": {",".join(map(str, a)): c for a, c in sorted(self.monomials.items())},
        }

    def derivative_tensors(self, t, order):
        start = self._order_start
        flat = self._evaluate(t, start[_jet_order(order)])
        shape = flat.shape[:-1]
        return tuple(
            flat[..., start[q - 1]:start[q]].reshape(shape + (self.n,) * q) for q in range(1, order + 1)
        )

    def log_ray_growth(self, log_r, direction):
        log_t = _log_ray_coords(log_r, direction)
        monomials, signs = [], []
        for a, c in self.monomials.items():
            degree = sum(a)
            if degree == 0:
                continue
            exps = np.asarray(a, dtype=float)
            mask = exps > 0  # skip zero exponents: 0 * log(0) must not poison the sum
            monomials.append((log(abs(c) * degree), exps[mask], mask))
            signs.append(1.0 if c > 0 else -1.0)
        if not monomials:
            return np.full(log_t.shape[:-1], -np.inf)
        terms = np.stack([w + np.add.reduce(log_t[..., mask] * e, axis=-1) for w, e, mask in monomials], axis=-1)
        total, sign = _logsumexp(terms, np.array(signs))
        return np.where(sign > 0, total, -np.inf)


def flat_potential(n: int) -> PolyTestPotential:
    """Phi = sum_j t_j: identity metric, identity coordinate map."""
    monomials = {tuple(1 if i == j else 0 for i in range(n)): 1.0 for j in range(n)}
    return PolyTestPotential(n, monomials, label="flat")


def poly_test_model() -> PolyTestPotential:
    """The shipped coupled polynomial t1*t2 + t1 + t2 on C^2."""
    return PolyTestPotential(2)


def fold_test_model() -> PolyTestPotential:
    """Phi = t - t^2/2 on C: violates the positivity condition past t = 1.

    Its coordinate map folds the disc |z| < 1 (the radii t and 1 - t collide)
    and S(r) = r^2 (1 - r^2) is not proper, so it exercises the domain-error
    and properness-failure paths.
    """
    return PolyTestPotential(1, {(1,): 1.0, (2,): -0.5}, label="fold")


def _field(cast, value, name: str):
    """``cast(value)`` of a JSON number (an integer if ``cast`` is int), else ValueError."""
    kinds = (int, np.integer) if cast is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "an integer" if cast is int else "a number"
        raise ValueError(f"model descriptor field {name!r} must be {expected}, got {value!r}")
    return cast(value)


# the keys each descriptor kind accepts
_DESCRIPTOR_KEYS = {
    "cigar": {"kind", "n"},
    "soliton": {"kind", "n", "newton_tol", "a0"},
    "poly": {"kind", "n", "label", "monomials"},
}


def model_from_descriptor(desc: Mapping) -> PotentialModel:
    """Build a model from a JSON-style descriptor {"kind": ..., "n": ..., ...}.

    Kinds: "cigar", "soliton", "poly" (optional "monomials" mapping
    "a1,a2,..." -> coefficient, and "label"; labels "flat" and "fold" select
    the corresponding stock polynomials).  A soliton reads only ``n``: the
    "newton_tol" and "a0" keys of older descriptors are ignored, since the
    profile solve has one fixed stopping rule.
    A key outside the kind's own set, a wrong-typed field (a boolean number,
    a non-string label), a non-integer ``n`` or the fold label with n != 1
    raises ValueError.
    """
    if not isinstance(desc, Mapping):
        raise ValueError("model descriptor must be a mapping")
    try:
        kind = desc["kind"]
    except KeyError:
        raise ValueError("model descriptor missing 'kind'") from None
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_KEYS:
        raise ValueError(f"unknown model kind {kind!r}")
    unknown = sorted(map(repr, set(desc) - _DESCRIPTOR_KEYS[kind]))
    if unknown:
        raise ValueError(f"unknown keys in a {kind} model descriptor: {', '.join(unknown)}")
    if kind == "cigar":
        return CigarProductPotential(_field(int, desc.get("n", 1), "n"))
    if kind == "soliton":
        return SolitonPotential(SolitonProfile(_field(int, desc.get("n", 1), "n")))
    if kind == "poly":
        n = _field(int, desc.get("n", 2), "n")
        label = desc.get("label", "poly")
        if not isinstance(label, str):
            raise ValueError(f"model descriptor field 'label' must be a string, got {label!r}")
        if "monomials" in desc:
            if not isinstance(desc["monomials"], Mapping):
                raise ValueError("model descriptor field 'monomials' must map 'a1,a2,...' to numbers")
            monomials = {
                tuple(int(q) for q in key.split(",")): _field(float, c, "monomials")
                for key, c in desc["monomials"].items()
            }
            return PolyTestPotential(n, monomials, label=label)
        if label == "flat":
            return flat_potential(n)
        if label == "fold":
            if n != 1:
                raise ValueError(f"the fold polynomial lives on C^1, not n = {n}")
            return fold_test_model()
        return PolyTestPotential(n)


def shipped_models() -> list[PotentialModel]:
    """Every stock model exercised by the verification suite."""
    models: list[PotentialModel] = [CigarProductPotential(n) for n in (1, 2, 3, 4)]
    models += [SolitonPotential(SolitonProfile(n)) for n in (1, 2, 3)]
    models.append(poly_test_model())
    return models


# ---------------------------------------------------------------------------
# pointwise metric data
# ---------------------------------------------------------------------------


def metric_at(model: PotentialModel, z: Sequence[complex]) -> np.ndarray:
    """Hermitian matrix G[j,k] = delta_jk Phi_j + conj(z_j) z_k Phi_jk.

    z may carry leading batch axes, (..., n) -> (..., n, n).
    """
    return metric_from_jet(z, model.derivative_tensors(radial_coords(z), 2))


def metric_from_jet(z: Sequence[complex], jet: Sequence[np.ndarray]) -> np.ndarray:
    """``metric_at`` assembled from a ``derivative_tensors`` jet of order >= 2 at z."""
    z = np.asarray(z, dtype=complex)
    d1, d2 = jet[:2]
    all_finite = np.logical_and.reduce
    if not (all_finite(np.isfinite(d1), axis=None) and all_finite(np.isfinite(d2), axis=None)):
        _check_jet_finite(z, d1, ~(np.isfinite(d1) & np.isfinite(d2).all(axis=-1)))
    g = np.zeros(d2.shape, dtype=complex)  # C order, so reshape gives a view
    n = z.shape[-1]
    g.reshape(g.shape[:-2] + (n * n,))[..., :: n + 1] = d1
    g += np.conj(z)[..., :, None] * z[..., None, :] * d2
    # fused-multiply-add kernels leave ~1e-17 asymmetry in the outer product;
    # averaging with the adjoint restores exact Hermitian symmetry
    return 0.5 * (g + np.conj(g.swapaxes(-1, -2)))


def metric_energy(model: PotentialModel, z: Sequence[complex], v: Sequence[complex]) -> float | np.ndarray:
    """g(v, vbar) = sum_jk G[j,k] v_j conj(v_k) at z; a float, or an array over
    the leading batch axes of z and v."""
    energy = _energy(metric_at(model, z), np.asarray(v, dtype=complex))
    return float(energy) if energy.ndim == 0 else energy


def _energy(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re sum_jk g[..., j, k] v[..., j] conj(v[..., k]) over the leading axes."""
    # summed term by term: einsum's reduction order depends on the batch size
    return np.real(np.sum(g * v[..., :, None] * np.conj(v)[..., None, :], axis=(-2, -1)))


def hermitian_to_two_form(g: np.ndarray) -> np.ndarray:
    """Real antisymmetric 2n x 2n matrix of omega(X, Y) = -Im h(X, Y).

    Interleaved real ordering (x_1, y_1, ...): per complex index pair (j, k)
    the 2x2 block is [[-Im g, Re g], [-Re g, -Im g]].  g may carry leading
    batch axes, (..., n, n) -> (..., 2n, 2n).
    """
    n = g.shape[-1]
    out = np.empty(g.shape[:-2] + (2 * n, 2 * n))
    re, neg_im = g.real, -g.imag
    out[..., 0::2, 0::2] = neg_im
    out[..., 0::2, 1::2] = re
    out[..., 1::2, 0::2] = -re
    out[..., 1::2, 1::2] = neg_im
    return out


# ---------------------------------------------------------------------------
# sampling and the positivity scan
# ---------------------------------------------------------------------------


def sample_polydisc(
    rng: np.random.Generator, count: int, n: int, radius: float
) -> np.ndarray:
    """(count, n) complex array, uniform per coordinate over the radius disc.

    Every sampled disc or polydisc in the package comes from here, so one rng
    stream always yields the same points: all radii are drawn, then all angles.
    A non-finite or negative radius raises ValueError.
    """
    if not 0.0 <= radius < np.inf:
        raise ValueError(f"sampling radius must be finite and nonnegative, got {radius}")
    radii = radius * np.sqrt(rng.uniform(size=(count, n)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(count, n))
    return radii * np.exp(1j * angles)


@dataclass(frozen=True)
class SampleRegion:
    """Polydisc sampling spec: ``count`` points, each |z_j| <= radius."""

    radius: float = 5.0
    count: int = 100
    seed: int = 20260814

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < np.inf or self.count < 1:
            raise ValueError("radius must be finite and positive, and count >= 1")

    def sample(self, n: int) -> np.ndarray:
        """(count, n) complex array, uniform per coordinate over the disc, with
        the origin as its first point."""
        pts = sample_polydisc(np.random.default_rng(self.seed), self.count, n, self.radius)
        pts[0] = 0.0
        return pts


@dataclass(frozen=True)
class Cond0Report:
    """Minimum of each first derivative Phi_j over the sampled region."""

    min_first_derivs: tuple[float, ...]
    min_metric_eigenvalue: float

    @property
    def min_value(self) -> float:
        return float(np.min(self.min_first_derivs))  # NaN-propagating, unlike min()

    @property
    def passed(self) -> bool:
        return self.min_value >= 0.0


def cond0_scan(model: PotentialModel, region: SampleRegion) -> Cond0Report:
    """Scan the positivity side condition Phi_j >= 0 over a sampled polydisc.

    Also records the smallest metric eigenvalue seen, since positive
    definiteness of G is the companion requirement.  Both read one order-2
    jet of the whole sample.
    """
    pts = region.sample(model.n)
    jet = model.derivative_tensors(radial_coords(pts), 2)
    eig_mins = np.linalg.eigvalsh(metric_from_jet(pts, jet))[:, 0]
    # numpy reductions propagate a NaN from any point; Python's min drops it
    return Cond0Report(
        min_first_derivs=tuple(float(v) for v in np.min(jet[0], axis=0)),
        min_metric_eigenvalue=float(np.min(eig_mins)),
    )
