"""Warping profiles, slice mean curvature, and smooth cutoff functions.

A cylinder ``[0, t] x N`` carries the warped metric ``du^2 + rho(u)^2 dsigma^2``.
Everything downstream needs ``rho`` together with a few derivatives, the mean
curvature ``H = -rho'/rho`` of the slices, and the C-infinity cutoffs used to
glue a neck into a closed manifold.  To keep derivative bookkeeping exact we
represent coefficient functions as small expression graphs (:class:`SmoothFn`)
whose nodes evaluate jets: the orders 0..d of a node, stacked on a new first
axis, so that every node is evaluated once however many orders are asked for
(truncated Taylor arithmetic).  Products combine the two child jets by the
Leibniz rule and the mollified step differentiates its ``exp(-1/x)`` gluing in
closed form.

Nodes may be shared, within one graph or between graphs.  A jet is taken
through a memo, one per argument array, that holds the jet of every node
already evaluated at that array: :func:`jets` evaluates several graphs under
one memo, so a node they share (say the damping cutoff in both coefficients
of a metric piece) is evaluated once, and :class:`AffineOf` opens a fresh
memo for its child at the shifted argument.  A memoized jet is never changed
in place.  Constants are folded: a sum or product with a :class:`Const` child
adds its value to row 0 or scales the other jet, without building the
constant's jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import InvalidProfileError, ResolutionError, UsageError, require_int

__all__ = [
    "SmoothFn", "Const", "ExpLin", "SplineFn", "AffineOf", "MollifiedStep",
    "jets", "WarpingProfile", "mean_curvature", "mean_curvature_prime",
    "resolve_m", "CutoffSet", "make_cutoffs",
]


# ---------------------------------------------------------------------------
# smooth functions with derivatives
# ---------------------------------------------------------------------------

class SmoothFn:
    """A scalar function of one variable exposing derivatives of any order.

    Leaves implement ``_eval(u, d)`` for vectorized ``u``: the jet of orders
    0..d stacked on a new first axis.  Inner nodes implement
    ``_node(u, d, memo)``, which combines the memoized jets of their children.
    Arithmetic (+, -, *) builds new nodes so that composite metric
    coefficients keep exact derivatives.
    """

    def __call__(self, u, d: int = 0):
        return self.jet(u, d)[-1]

    def jet(self, u, d: int):
        """Derivatives of orders 0..d at ``u``, stacked on a new first axis."""
        return jets(u, d, self)[0]

    def _jet(self, u, d, memo):
        # this node's jet at the memo's argument array, evaluated once
        key = id(self)
        if key not in memo:
            memo[key] = self._node(u, d, memo)
        return memo[key]

    def _node(self, u, d, memo):
        return self._eval(u, d)

    def _eval(self, u, d):  # pragma: no cover - abstract
        raise NotImplementedError

    def __add__(self, other):
        return Sum(self, _as_fn(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Sum(self, Product(Const(-1.0), _as_fn(other)))

    def __rsub__(self, other):
        return Sum(_as_fn(other), Product(Const(-1.0), self))

    def __mul__(self, other):
        return Product(self, _as_fn(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Product(Const(-1.0), self)


def jets(u, d: int, *fns):
    """Jets of orders 0..d at ``u`` of several graphs, under one memo, so a
    node they share is evaluated once.  A returned jet may be held by more
    than one graph: read it, do not write to it."""
    d = require_int(d, "derivative order", 0)
    u, memo = np.asarray(u, dtype=float), {}
    return [f._jet(u, d, memo) for f in fns]


def _as_fn(x) -> "SmoothFn":
    if isinstance(x, SmoothFn):
        return x
    return Const(float(x))


class Const(SmoothFn):
    def __init__(self, value: float):
        self.value = float(value)

    def _eval(self, u, d):
        return np.stack([np.full_like(u, self.value)] + [np.zeros_like(u)] * d)


class ExpLin(SmoothFn):
    """c * exp(r * u); the closed form covers every derivative order."""

    def __init__(self, c: float, r: float):
        self.c = float(c)
        self.r = float(r)

    def _eval(self, u, d):
        e = np.exp(self.r * u)
        return np.stack([self.c * self.r**j * e for j in range(d + 1)])


class Sum(SmoothFn):
    def __init__(self, a: SmoothFn, b: SmoothFn):
        self.a, self.b = a, b

    def _node(self, u, d, memo):
        # a constant child only moves row 0 of a copy of the other jet
        for const, other in ((self.a, self.b), (self.b, self.a)):
            if isinstance(const, Const):
                out = other._jet(u, d, memo).copy()
                out[0] += const.value
                return out
        return self.a._jet(u, d, memo) + self.b._jet(u, d, memo)


class Product(SmoothFn):
    def __init__(self, a: SmoothFn, b: SmoothFn):
        self.a, self.b = a, b

    def _node(self, u, d, memo):
        # a constant child scales the other jet
        if isinstance(self.a, Const):
            return self.a.value * self.b._jet(u, d, memo)
        if isinstance(self.b, Const):
            return self.a._jet(u, d, memo) * self.b.value
        # Leibniz rule on the two child jets, each evaluated once
        a, b = self.a._jet(u, d, memo), self.b._jet(u, d, memo)
        out = np.zeros_like(a)
        for k in range(d + 1):
            for j in range(k + 1):
                out[k] += math.comb(k, j) * a[j] * b[k - j]
        return out


class AffineOf(SmoothFn):
    """f(scale * u + shift) with the chain rule scale**d applied."""

    def __init__(self, f: SmoothFn, scale: float, shift: float):
        self.f, self.scale, self.shift = f, float(scale), float(shift)

    def _node(self, u, d, memo):
        # the child sees another argument array, so it gets a memo of its own
        f = self.f._jet(self.scale * u + self.shift, d, {})
        return np.stack([self.scale**j * f[j] for j in range(d + 1)])


class SplineFn(SmoothFn):
    """B-spline leaf; derivative orders beyond the spline degree raise."""

    def __init__(self, spline, order: int):
        self.spline = spline
        self.order = order

    def _eval(self, u, d):
        if d > self.order:
            raise ResolutionError(
                f"sampled data of spline order {self.order} cannot provide "
                f"derivative order {d}")
        return np.stack([np.asarray(self.spline(u), dtype=float)]
                        + [np.asarray(self.spline.derivative(j)(u), dtype=float)
                           for j in range(1, d + 1)])


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


class MollifiedStep(SmoothFn):
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


def smooth_step(x, d: int = 0):
    """Module-level evaluation of the mollified step (mainly for tests)."""
    return _STEP(x, d)


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
    _fn: SmoothFn = field(init=False, repr=False)

    def __post_init__(self):
        t = self.domain_length
        if not (isinstance(t, Real) and 0 < t < math.inf):
            raise InvalidProfileError(
                f"domain_length must be a positive finite number, not {t!r}")
        self.domain_length = float(t)
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
            self._fn = ExpLin(1.0, -1.0 / (2.0 * (self.m - 1)))
        elif self.kind == "constant":
            c = self.c
            if not (isinstance(c, Real) and 0 < c < math.inf):
                raise InvalidProfileError(
                    f"constant profile needs a finite number c > 0, not {c!r}")
            self.c = float(c)
            self._fn = Const(self.c)
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
            self._fn = SplineFn(spline, self.order)

    # -- evaluation --------------------------------------------------------

    def rho(self, u, d: int = 0):
        """d-th derivative of rho at u (vectorized)."""
        return self._fn(u, d)

    def jet(self, u, d: int):
        """Derivatives of rho of orders 0..d at u, stacked on a new first axis."""
        return self._fn.jet(u, d)

    def rho_sq_fn(self) -> SmoothFn:
        if self.kind == "exponential":
            return ExpLin(1.0, -1.0 / (self.m - 1))
        if self.kind == "constant":
            return Const(self.c**2)
        return Product(self._fn, self._fn)

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


# ---------------------------------------------------------------------------
# cutoffs for the neck gluing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffSet:
    """The four cutoffs of the neck construction, as :class:`SmoothFn` graphs
    (phi_inf and phi_t share the node psi).

    psi      : 0 for u <= -1, 1 for u >= 0       (entry collar)
    chi      : 0 for u <= t,  1 for u >= t + 1   (exit collar)
    phi_inf  : 1 for u <= -1 and u >= 2, 0 on [0, 1]
    phi_t    : 1 - (1 - e^{-t}) (1 - phi_inf); equals e^{-t} on [0, 1]
    """

    t: float
    psi: SmoothFn
    chi: SmoothFn
    phi_inf: SmoothFn
    phi_t: SmoothFn


def make_cutoffs(t: float) -> CutoffSet:
    if not t > 0:
        raise UsageError("cutoffs need t > 0")
    psi = AffineOf(_STEP, 1.0, 1.0)                   # step(u + 1)
    chi = AffineOf(_STEP, 1.0, -float(t))             # step(u - t)
    phi_inf = Const(1.0) - psi + AffineOf(_STEP, 1.0, -1.0)
    phi_t = Const(1.0) - Const(1.0 - math.exp(-float(t))) * (Const(1.0) - phi_inf)
    return CutoffSet(t=float(t), psi=psi, chi=chi, phi_inf=phi_inf, phi_t=phi_t)
