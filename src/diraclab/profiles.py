"""Warping profiles, slice mean curvature, and the mollified step.

A cylinder ``[0, t] x N`` carries the warped metric ``du^2 + rho(u)^2 dsigma^2``.
Everything downstream needs ``rho`` together with a few derivatives, the mean
curvature ``H = -rho'/rho`` of the slices, and the C-infinity step from which
the neck gluing builds its cutoffs.  Derivatives are kept exact by working
with jets: the orders 0..d of a function at an array of points, stacked on a
new first axis.  A profile evaluates its own jet in closed form (exponential,
constant) or from its spline, :func:`leibniz` multiplies two jets by the
product rule, and the mollified step differentiates its ``exp(-1/x)`` gluing
in closed form.  Code that combines jets, such as the neck coefficients in
:mod:`diraclab.metrics`, is written as plain functions of ``(u, d)`` that
compute each jet they need once, with no cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (InvalidProfileError, ResolutionError, UsageError,
                     require_int, require_positive)

__all__ = [
    "const_jet", "exp_jet", "leibniz", "MollifiedStep", "step_jet",
    "WarpingProfile", "mean_curvature", "mean_curvature_prime", "resolve_m",
]


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def const_jet(c: float, u, d: int) -> np.ndarray:
    """Jet of orders 0..d of the constant ``c`` at the float points ``u``."""
    out = np.zeros((d + 1,) + np.shape(u))
    out[0] = c
    return out


def exp_jet(c: float, r: float, u, d: int) -> np.ndarray:
    """Jet of orders 0..d of ``c * exp(r * u)``, in closed form."""
    e = np.exp(r * u)
    out = np.empty((d + 1,) + e.shape)
    for j in range(d + 1):
        out[j] = c * r**j * e
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
_OPTIONAL_FIELDS = tuple(name for names in _KIND_FIELDS.values()
                         for name in names)


@dataclass(eq=False)
class WarpingProfile:
    """Radial profile rho on [0, domain_length].

    kind = "exponential":  rho(u) = exp(-u / (2 (m - 1))), m >= 2
    kind = "constant":     rho(u) = c > 0
    kind = "sampled":      spline through (knots, values), spline degree
                           ``order`` (default 3)

    Exponential and constant profiles evaluate anywhere (the neck gluing needs
    the collar [t, t+1]); sampled profiles extrapolate with their spline, and
    positivity is validated on the knots.  A field that the kind does not use
    (say ``m`` on a constant profile) is refused, not ignored.
    """

    kind: str
    domain_length: float
    m: int | None = None
    c: float | None = None
    knots: np.ndarray | None = None
    values: np.ndarray | None = None
    order: int | None = None
    _splines: list | None = field(default=None, init=False, repr=False)

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
        elif self.kind == "constant":
            self.c = require_positive(self.c, "constant profile c",
                                      InvalidProfileError)
        else:
            self.order = require_int(3 if self.order is None else self.order,
                                     "spline order", 0, InvalidProfileError)
            knots = np.asarray(self.knots, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if knots.ndim != 1 or knots.shape != values.shape or knots.size < 2:
                raise InvalidProfileError("sampled profile needs matching 1-D knots/values")
            if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
                raise InvalidProfileError("knots and values must be finite")
            if np.any(np.diff(knots) <= 0):
                raise InvalidProfileError("knots must be strictly increasing")
            if np.any(values <= 0):
                raise InvalidProfileError("profile values must be strictly positive")
            if self.order >= knots.size:
                raise InvalidProfileError("spline order must be below the knot count")
            from scipy.interpolate import make_interp_spline
            self.knots, self.values = knots, values
            spline = make_interp_spline(knots, values, k=self.order)
            # the spline and its derivatives, one per derivative order
            self._splines = [spline] + [spline.derivative(j)
                                        for j in range(1, self.order + 1)]

    # -- evaluation --------------------------------------------------------

    def rho(self, u, d: int = 0):
        """d-th derivative of rho at u (vectorized)."""
        return self.jet(u, d)[-1]

    def jet(self, u, d: int):
        """Derivatives of rho of orders 0..d at u, stacked on a new first axis."""
        d = require_int(d, "derivative order", 0)
        u = np.asarray(u, dtype=float)
        if self.kind == "exponential":
            return exp_jet(1.0, -1.0 / (2.0 * (self.m - 1)), u, d)
        if self.kind == "constant":
            return const_jet(self.c, u, d)
        if d > self.order:
            raise ResolutionError(
                f"sampled data of spline order {self.order} cannot provide "
                f"derivative order {d}")
        return np.stack([np.asarray(s(u), dtype=float) for s in self._splines[:d + 1]])

    def rho_sq_jet(self, u, d: int):
        """Derivatives of rho^2 of orders 0..d at u, stacked on a new first axis."""
        if self.kind == "sampled":
            rho = self.jet(u, d)
            return leibniz(rho, rho)
        d = require_int(d, "derivative order", 0)
        u = np.asarray(u, dtype=float)
        if self.kind == "exponential":      # rho^2 is an exponential in its own right
            return exp_jet(1.0, -1.0 / (self.m - 1), u, d)
        return const_jet(self.c**2, u, d)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {"kind": self.kind, "domain_length": self.domain_length}
        if self.kind == "exponential":
            doc["m"] = self.m
        elif self.kind == "constant":
            doc["c"] = self.c
        else:
            doc.update(knots=list(map(float, self.knots)),
                       values=list(map(float, self.values)), order=self.order)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "WarpingProfile":
        unknown = sorted(set(doc) - {"kind", "domain_length", *_OPTIONAL_FIELDS})
        if unknown:
            raise InvalidProfileError(f"unknown profile fields {unknown}")
        return cls(doc.get("kind"), doc.get("domain_length"),
                   **{name: doc.get(name) for name in _OPTIONAL_FIELDS})


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
