"""Warping profiles, slice mean curvature, and the mollified step.

A cylinder ``[0, t] x N`` carries the warped metric ``du^2 + rho(u)^2 dsigma^2``.
Everything downstream needs ``rho`` together with a few derivatives, the mean
curvature ``H = -rho'/rho`` of the slices, and the C-infinity step from which
the neck gluing builds its cutoffs.  Derivatives are kept exact by working
with jets: the orders 0..d of a function at an array of points, stacked on a
new first axis.  The exponential and constant profiles are both
``c * exp(r * u)`` (rate 0 for the constant), so a profile evaluates its own
jet by one closed form, :func:`exp_jet`, or from its spline; :func:`leibniz`
multiplies two jets by the product rule, and the mollified step
differentiates its ``exp(-1/x)`` gluing in closed form.  Code that combines
jets, such as the neck coefficients in :mod:`diraclab.metrics`, is written as
plain functions of ``(u, d)``; there the mollified step's jets come from a
per-sweep store, ``metrics._StepJets``.

A sampled profile's spline is scipy's ``make_interp_spline`` interpolant,
built in :mod:`diraclab._spline` after de Boor, *A Practical Guide to
Splines* (1978), chapters IX-XIII: not-a-knot knots (the data sites for odd
order, the midpoints for even order), coefficients from one banded solve,
and jets by Horner's rule on the Taylor form of each piece.  A point reads
the piece with t_i <= u < t_{i+1}, the last piece is closed, and points
beyond the knots extrapolate the end pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._spline import Spline
from .errors import (MIN_SPLINE_ORDER, InvalidProfileError, ResolutionError,
                     UsageError, number_array, require_fields, require_int,
                     require_positive)

__all__ = [
    "exp_jet", "leibniz", "MollifiedStep", "step_jet",
    "WarpingProfile", "mean_curvature", "mean_curvature_prime", "resolve_m",
]


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def exp_jet(c: float, r: float, u, d: int) -> np.ndarray:
    """Jet of orders 0..d of ``c * exp(r * u)``, in closed form.  Rate 0 is
    the constant ``c``: no exp pass, and rows 1..d are 0.0 at every u, for
    any c (an infinite one too)."""
    d = require_int(d, "derivative order", 0)
    u = np.asarray(u, dtype=float)
    e = np.exp(r * u) if r else np.ones(u.shape)
    out = np.empty((d + 1,) + e.shape)
    for j in range(d + 1):
        out[j] = c * r**j * e if r or j == 0 else 0.0
    return out


def leibniz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet of the product of two jets of the same order (the product rule)."""
    out = np.zeros_like(a)
    for k in range(len(a)):
        for j in range(k + 1):
            out[k] += math.comb(k, j) * a[j] * b[k - j]
    return out


# -- mollified step ---------------------------------------------------------

@lru_cache(maxsize=None)
def _exp_poly(d: int) -> np.ndarray:
    """Coefficients (highest first) of P_d, where (e^{-1/x})^{(d)} = P_d(1/x) e^{-1/x}.

    P_0 = 1 and P_{d+1}(y) = y^2 (P_d(y) - P_d'(y)).
    """
    if d == 0:
        return np.array([1.0])
    p = _exp_poly(d - 1)
    return np.append(np.polysub(p, np.polyder(p)), [0.0, 0.0])


def _step_deriv(x: np.ndarray, d: int) -> np.ndarray:
    """Orders 0..d of s = h / (h + h~), h = e^{-1/x}, h~(x) = h(1 - x), on 0 < x < 1.

    The Leibniz rule for s g = h, g = h + h~, divided by g gives
    s^{(k)} = h^{(k)}/g - sum_{j<k} C(k, j) s^{(j)} g^{(k-j)}/g with
    h^{(k)}/g = P_k(1/x) s and h~^{(k)}/g = (-1)^k P_k(1/(1-x)) h~/g; every
    ratio stays finite where one exponential underflows.  The sum cancels
    when s is near 1, so x > 1/2 is evaluated through s(x) = 1 - s(1 - x).
    """
    flip = x > 0.5
    x = np.where(flip, 1.0 - x, x)
    h, h_rev = np.exp(-1.0 / x), np.exp(-1.0 / (1.0 - x))
    s, s_rev = h / (h + h_rev), h_rev / (h + h_rev)
    h_k = [np.polyval(_exp_poly(k), 1.0 / x) * s for k in range(d + 1)]
    g_k = [a + (-1) ** k * np.polyval(_exp_poly(k), 1.0 / (1.0 - x)) * s_rev
           for k, a in enumerate(h_k)]
    derivs = []
    for k in range(d + 1):
        derivs.append(h_k[k] - sum(math.comb(k, j) * derivs[j] * g_k[k - j]
                                   for j in range(k)))
    return np.stack([np.where(flip, (-1) ** (k + 1) * derivs[k] + (k == 0), derivs[k])
                     for k in range(d + 1)])


class MollifiedStep:
    """The standard C-infinity step: 0 for x <= 0, 1 for x >= 1, and
    ``e^{-1/x} / (e^{-1/x} + e^{-1/(1-x)})`` in between.

    Evaluation masks the plateaus explicitly so the exponential gluing is only
    touched strictly inside (0, 1); derivatives come from the closed form
    (e^{-1/x})^{(d)} = P_d(1/x) e^{-1/x} and the Leibniz rule.
    """

    _EDGE = 1e-8

    def _eval(self, x, d):
        shape = np.shape(x)
        x = np.atleast_1d(x)
        out = np.zeros((d + 1,) + x.shape)
        out[0, x >= 1.0 - self._EDGE] = 1.0
        inside = (x > self._EDGE) & (x < 1.0 - self._EDGE)
        if inside.any():
            with np.errstate(all="ignore"):
                vals = _step_deriv(x[inside], d)
            out[:, inside] = np.nan_to_num(vals, nan=0.0)
        return out.reshape((d + 1,) + shape)


_STEP = MollifiedStep()


def step_jet(x, d: int) -> np.ndarray:
    """Jet of orders 0..d of the mollified step at the float array ``x``."""
    return _STEP._eval(x, d)


# ---------------------------------------------------------------------------
# warping profiles
# ---------------------------------------------------------------------------

# the optional fields each profile kind reads; the others must stay unset
_KIND_FIELDS = {"exponential": ("m",), "constant": ("c",),
                "sampled": ("knots", "values", "order")}
_OPTIONAL_FIELDS = sum(_KIND_FIELDS.values(), ())


@dataclass(eq=False)
class WarpingProfile:
    """Radial profile rho on [0, domain_length].

    kind = "exponential":  rho(u) = exp(-u / (2 (m - 1))), m >= 2
    kind = "constant":     rho(u) = c > 0
    kind = "sampled":      spline through (knots, values), spline degree
                           ``order`` (default 3)

    The exponential and constant kinds are one closed form, c exp(r u) with
    (c, r) = (1, -1/(2(m - 1))) or (c, 0), whose square is c^2 exp(r2 u) with
    r2 = -1/(m - 1) or 0; the constructor picks it, or the spline, once, and
    evaluation branches only on closed form versus spline.  Closed forms
    evaluate anywhere (the neck gluing needs the collar [t, t+1]); sampled
    profiles extrapolate their first and last polynomial pieces.

    The spline is the not-a-knot interpolant of de Boor (1978), XIII(12),
    with scipy's knot rule: for odd order k the interior knots are the data
    sites ``knots[k2:-k2]``, k2 = (k + 1)/2; for even k they are the
    midpoints of neighbouring sites trimmed by k2 = k/2; each end is
    repeated k + 1 times.  At a knot the piece to its right is read, and
    the last piece is closed.  The order must be at least
    ``errors.MIN_SPLINE_ORDER`` = 3, where the branch potential V and V' are
    continuous, and below the knot count.  Positivity is checked on all of
    [0, domain_length], not only at the knots: a spline through positive
    values can dip below zero between them or beyond the last, and its least
    value there (:meth:`Spline.minimum`, exact when it is not positive) must
    be positive.  Knots and values must be finite numbers; one that float64
    cannot hold, or that is no number (a string, even "1", or a bool), is
    refused.  A constant c beyond about 1.34e154 builds, and its rho^2 jet
    is +inf.  A field that the kind
    does not use (say ``m`` on a constant profile) is refused, not ignored.
    """

    kind: str
    domain_length: float
    m: int | None = None
    c: float | None = None
    knots: np.ndarray | None = None
    values: np.ndarray | None = None
    order: int | None = None
    _spline: Spline | None = field(default=None, init=False, repr=False)
    # the closed form (c, r, r2) of rho = c exp(r u), rho^2 = c^2 exp(r2 u),
    # or None for a spline
    _closed: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.domain_length = require_positive(self.domain_length, "domain_length",
                                              InvalidProfileError)
        if self.kind not in _KIND_FIELDS:
            raise InvalidProfileError(f"unknown profile kind {self.kind!r}")
        foreign = [name for name in _OPTIONAL_FIELDS
                   if name not in _KIND_FIELDS[self.kind]
                   and getattr(self, name) is not None]
        if foreign:
            raise InvalidProfileError(
                f"a {self.kind} profile does not use {', '.join(foreign)}")
        if self.kind == "exponential":
            self.m = require_int(self.m, "exponential profile m", 2,
                                 InvalidProfileError)
            self._closed = 1.0, -1.0 / (2.0 * (self.m - 1)), -1.0 / (self.m - 1)
        elif self.kind == "constant":
            self.c = require_positive(self.c, "constant profile c",
                                      InvalidProfileError)
            self._closed = self.c, 0.0, 0.0
        else:
            self.order = require_int(3 if self.order is None else self.order,
                                     "spline order", MIN_SPLINE_ORDER,
                                     InvalidProfileError)
            if self.knots is None or self.values is None:
                raise InvalidProfileError("sampled profile needs matching 1-D knots/values")
            try:
                knots, values = (number_array(a) for a in (self.knots, self.values))
            except (TypeError, ValueError, OverflowError):
                raise InvalidProfileError("knots and values must be finite numbers") from None
            if knots.ndim != 1 or knots.shape != values.shape:
                raise InvalidProfileError("sampled profile needs matching 1-D knots/values")
            if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
                raise InvalidProfileError("knots and values must be finite numbers")
            if np.any(np.diff(knots) <= 0):
                raise InvalidProfileError("knots must be strictly increasing")
            if np.any(values <= 0):
                raise InvalidProfileError("profile values must be strictly positive")
            if self.order >= knots.size:
                raise InvalidProfileError("spline order must be below the knot count")
            self.knots, self.values = knots, values
            self._spline = Spline(knots, values, self.order)
            low, u = self._spline.minimum(0.0, self.domain_length)
            if not low > 0:
                raise InvalidProfileError(
                    "a sampled profile must be positive on [0, domain_length]"
                    f", but rho reaches {low:.3g} at u = {u:.6g}")

    # -- evaluation --------------------------------------------------------

    def rho(self, u, d: int = 0):
        """d-th derivative of rho at u (vectorized)."""
        return self.jet(u, d)[-1]

    def jet(self, u, d: int):
        """Derivatives of rho of orders 0..d at u, stacked on a new first axis."""
        if self._spline is None:
            return exp_jet(*self._closed[:2], u, d)
        d = require_int(d, "derivative order", 0)
        if d > self.order:
            raise ResolutionError(
                f"sampled data of spline order {self.order} cannot provide "
                f"derivative order {d}")
        return self._spline.jet(u, d)

    def rho_sq_jet(self, u, d: int):
        """Derivatives of rho^2 of orders 0..d at u, stacked on a new first axis."""
        if self._spline is None:        # rho^2 is a closed form in its own right;
            c, _, r2 = self._closed     # squared here, so any c the schema admits builds
            try:
                c_sq = c**2
            except OverflowError:       # rho^2 is +inf beyond c ~ 1.34e154
                c_sq = math.inf
            return exp_jet(c_sq, r2, u, d)
        rho = self.jet(u, d)
        return leibniz(rho, rho)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "domain_length": self.domain_length}
        for name in _KIND_FIELDS[self.kind]:
            value = getattr(self, name)
            doc[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "WarpingProfile":
        require_fields(doc, ("kind", "domain_length", *_OPTIONAL_FIELDS),
                       "profile", InvalidProfileError)
        return cls(**{"kind": None, "domain_length": None, **doc})


def resolve_m(profile: WarpingProfile, m: int | None = None) -> int:
    """The dimension m: as given, or else the exponential profile's own m."""
    if m is None:
        if profile.kind == "exponential":
            return profile.m
        raise UsageError("dimension m is required for non-exponential profiles")
    return require_int(m, "dimension m", 2)


def exponential_profile(m: int, domain_length: float) -> WarpingProfile:
    return WarpingProfile("exponential", domain_length, m=m)


def constant_profile(c: float, domain_length: float) -> WarpingProfile:
    return WarpingProfile("constant", domain_length, c=c)


# ---------------------------------------------------------------------------
# mean curvature of the slices
# ---------------------------------------------------------------------------

def mean_curvature(rho):
    """Mean curvature H = -rho'/rho of the u-slices of du^2 + rho(u)^2 dsigma^2,
    from a jet ``rho`` of order >= 1 (see :meth:`WarpingProfile.jet`).

    The sign convention makes the exponentially shrinking profile
    rho = exp(-u/(2(m-1))) have constant H = 1/(2(m-1)).
    """
    return -rho[1] / rho[0]


def mean_curvature_prime(rho):
    """H' = -rho''/rho + (rho'/rho)^2, from a jet ``rho`` of order >= 2."""
    return -rho[2] / rho[0] + (rho[1] / rho[0]) ** 2
