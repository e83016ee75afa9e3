"""Piecewise cylinder metrics: the glued neck family, volumes, Sobolev norms.

A closed manifold with a neck inserted decomposes into five pieces

    complement | collar_in [-1,0] | cylinder [0,t] | collar_out [t,t+1] | core

where the three middle pieces are warped cylinders a(u) du^2 + r(u)^2 dsigma^2
over a cross-section of unit volume and the outer two are abstract blocks of
unit volume and unit norm, scaled by a tensor factor.  Two metrics live on
this skeleton:

* the stretched metric, with the profile rho running over [0, t] and collars
  interpolating to the boundary values rho(0) and rho(t);
* the rescaled metric on the t = 1 skeleton: the cylinder pulled back under
  u -> t u and damped by the plateau cutoff phi_t; phi_t is e^{-t} on [0, 1],
  so that piece is ``pullback_cylinder_metric`` at tensor scale e^{-t}.

The exit collar of the rescaled metric is built by shifting the stretched
metric's own exit collar to [1, 2]; damping the t = 1 collar instead (as one
sometimes sees written) would leave a radius jump of size |rho(t) - rho(1)| at
u = 1, violating the gluing.

Sobolev norms use the flat product cylinder as reference metric and the
coordinate frame, so the H^k squared norm of a(u) du^2 + r(u)^2 dsigma^2
reduces to one-dimensional quadratures

    sum_{j<=k} int [ (a^(j))^2 + (m-1) ((r^2)^(j))^2 ] du.

A cylinder piece holds one function ``coefficients(u, k)`` that returns the
order-k jets of both coefficients, so a cutoff that enters both (the damping
cutoff of the rescaled metric) is computed once per call.  Each piece is
measured once: ``measure(k, ...)`` takes the jets on the Simpson nodes, and
their row 0 gives the volume while their rows 0..k give every H^0..H^k norm.
The mollified step's jets come from a ``_StepJets`` store; the steps of
the rescaled collars' damping cutoff do not depend on t, so a stretch sweep
shares one store across its points and takes each of them once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (MAX_SOBOLEV_ORDER, DiracLabError, UsageError, require_int,
                     require_positive)
from .profiles import WarpingProfile, exp_jet, leibniz, resolve_m, step_jet
from .util import simpson_uniform

__all__ = [
    "CylinderPiece", "BlockPiece", "PiecewiseMetric", "NeckFamily",
    "build_neck_family", "flat_cylinder",
    "pullback_cylinder_metric",
]

_INTERFACE_TOL = 1e-12


@dataclass(frozen=True)
class CylinderPiece:
    """One warped segment scale * (a(u) du^2 + r(u)^2 dsigma^2) on
    [u_start, u_end].  ``coefficients(u, k)`` returns the jets of orders
    0..k of a, the du^2 coefficient, and of r^2 at the float array u."""

    label: str
    u_start: float
    u_end: float
    coefficients: Callable
    scale: float = 1.0

    def __post_init__(self):
        if not self.u_end > self.u_start:
            raise UsageError(f"piece {self.label!r} has an empty span")
        object.__setattr__(self, "scale", require_positive(
            self.scale, f"the scale of piece {self.label!r}"))

    def jets(self, u, k: int):
        """The order-k jets of the scaled coefficients a and r^2 at u."""
        a, r2 = self.coefficients(np.asarray(u, dtype=float), k)
        return self.scale * a, self.scale * r2

    def r(self, u):
        return np.sqrt(self.jets(u, 0)[1][0])

    def measure(self, k: int, m: int, panels: int = 4096):
        """(volume, [H^0..H^k squared norms]) from one order-k jet of the
        coefficients on the Simpson nodes."""
        u = np.linspace(self.u_start, self.u_end, panels + 1)
        a, r2 = self.jets(u, k)
        step = (self.u_end - self.u_start) / panels
        volume = simpson_uniform(np.sqrt(a[0]) * r2[0] ** ((m - 1) / 2.0), step)
        orders = [simpson_uniform(a[j] ** 2 + (m - 1) * r2[j] ** 2, step)
                  for j in range(k + 1)]
        return volume, np.cumsum(orders)


@dataclass(frozen=True)
class BlockPiece:
    """Abstract non-cylinder piece of unit volume and unit reference norm,
    with a tensor scale factor applied to the metric on the block."""

    label: str
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scale", require_positive(
            self.scale, f"the scale of block {self.label!r}"))

    def measure(self, k: int, m: int, panels: int = 4096):
        """(volume, [H^0..H^k squared norms]); a tensor factor enters the
        volume as scale^{m/2} and any coefficient norm quadratically."""
        return self.scale ** (m / 2.0), np.full(k + 1, self.scale**2)


@dataclass(frozen=True)
class PiecewiseMetric:
    """An ordered run of cylinder and block pieces over a unit cross-section."""

    pieces: tuple
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", require_int(self.m, "dimension m", 2))
        if not self.pieces:
            raise UsageError("a piecewise metric needs at least one piece")

    def piece(self, label: str):
        for p in self.pieces:
            if p.label == label:
                return p
        raise UsageError(f"no piece labeled {label!r}")

    def cylinder_pieces(self):
        return [p for p in self.pieces if isinstance(p, CylinderPiece)]

    def max_interface_defect(self) -> float:
        """Largest radius mismatch between abutting cylinder pieces, from one
        evaluation of each piece at its two ends."""
        cyls = self.cylinder_pieces()
        ends = [p.r([p.u_start, p.u_end]) for p in cyls]
        worst = 0.0
        for left, right, left_r, right_r in zip(cyls, cyls[1:], ends, ends[1:]):
            if abs(left.u_end - right.u_start) <= 1e-9:
                worst = max(worst, abs(float(left_r[1]) - float(right_r[0])))
        return worst

    def measure(self, k: int, panels: int = 4096):
        """Volumes by piece label and the squared H^0..H^k norms against the
        flat product reference, from one pass over the pieces."""
        k = require_int(k, "Sobolev order k", 0, maximum=MAX_SOBOLEV_ORDER)
        panels = require_int(panels, "Simpson panel count", 2)
        if panels % 2:
            raise UsageError(f"Simpson panel count must be even, not {panels}")
        volumes, norms = {}, np.zeros(k + 1)
        for p in self.pieces:
            volumes[p.label], piece_norms = p.measure(k, self.m, panels)
            norms = norms + piece_norms
        return volumes, [float(x) for x in norms]

    def piece_volumes(self, panels: int = 4096) -> dict:
        return self.measure(0, panels)[0]

    def total_volume(self, panels: int = 4096) -> float:
        return float(sum(self.piece_volumes(panels).values()))

    def hk_norm_sq(self, k: int, panels: int = 4096) -> float:
        """Squared H^k norm against the flat product reference."""
        return self.measure(k, panels)[1][-1]

    def scaled(self, factor: float) -> "PiecewiseMetric":
        """Multiply the metric tensor by ``factor`` on every piece."""
        factor = require_positive(factor, "metric scale factor")
        return replace(self, pieces=tuple(replace(p, scale=p.scale * factor)
                                          for p in self.pieces))

    def normalized_unit_volume(self, volume: float):
        """Rescale to total volume one; returns (metric, tensor_factor).

        ``volume`` is this metric's total volume, as measured by the caller.
        A tensor factor c multiplies every volume element by c^{m/2}, so the
        normalizing factor is Vol^{-2/m} (length scaling Vol^{-1/m})."""
        factor = require_positive(volume, "volume") ** (-2.0 / self.m)
        return self.scaled(factor), factor


# ---------------------------------------------------------------------------
# canonical single-cylinder metrics
# ---------------------------------------------------------------------------

def _pulled_back_rho_sq(profile: WarpingProfile, t: float, u, k: int):
    """Jet of rho(t u)^2: the chain rule puts t^j on order j."""
    r2 = profile.rho_sq_jet(t * u, k)
    for j in range(1, k + 1):
        r2[j] *= np.float64(t) ** j      # inf, not OverflowError, at large t
    return r2


def flat_cylinder(m: int, t: float) -> PiecewiseMetric:
    """du^2 + dsigma^2 on [0, t]."""
    t = require_positive(t, "cylinder length t")
    piece = CylinderPiece("cylinder", 0.0, t, lambda u, k: (
        exp_jet(1.0, 0.0, u, k), exp_jet(1.0, 0.0, u, k)))
    return PiecewiseMetric((piece,), m)


def pullback_cylinder_metric(profile: WarpingProfile, t: float,
                             m: Optional[int] = None) -> PiecewiseMetric:
    """The stretched cylinder pulled back to unit length:
    t^2 du^2 + rho(t u)^2 dsigma^2 on [0, 1]."""
    m = resolve_m(profile, m)
    t = require_positive(t, "cylinder length t")
    piece = CylinderPiece("cylinder", 0.0, 1.0, lambda u, k: (
        exp_jet(t * t, 0.0, u, k), _pulled_back_rho_sq(profile, t, u, k)))
    return PiecewiseMetric((piece,), m)


# ---------------------------------------------------------------------------
# the neck family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeckFamily:
    """The stretched metric and its volume-damped companion for one t."""

    t: float
    m: int
    stretched: PiecewiseMetric = field(repr=False)
    rescaled: PiecewiseMetric = field(repr=False)

    def max_interface_defect(self) -> float:
        return max(self.stretched.max_interface_defect(),
                   self.rescaled.max_interface_defect())


class _StepJets:
    """Jets of the mollified step, one per argument array, for one sweep.

    On the rescaled collars the two steps of the damping cutoff, psi =
    s(u + 1) and s(u - 1), do not depend on the stretch parameter; only the
    factor 1 - e^{-t} does.  A stretch sweep holds one store and passes it
    to every point's ``build_neck_family``, so each of these steps is taken
    once per sweep on each grid (a piece's Simpson nodes, or its two ends),
    and a point's second measure reads the jets of its first.  A lower order
    is a row slice of a stored higher order, the same numbers to the last
    bit.  The stored jets are read-only.
    """

    def __init__(self):
        self._jets = {}

    def __call__(self, x: np.ndarray, k: int) -> np.ndarray:
        key = (x.shape, x.tobytes())
        jet = self._jets.get(key)
        if jet is None or len(jet) <= k:
            jet = step_jet(x, k)
            jet.flags.writeable = False
            self._jets[key] = jet
        return jet[:k + 1]


def build_neck_family(profile: WarpingProfile, *, m: Optional[int] = None,
                      steps: Optional[_StepJets] = None) -> NeckFamily:
    """Assemble both glued metrics for the stretch parameter t, the profile's
    domain length.

    The gluing uses the mollified step s in three cutoffs:

    psi      = s(u + 1): 0 for u <= -1, 1 for u >= 0       (entry collar)
    chi      = s(u - t): 0 for u <= t,  1 for u >= t + 1   (exit collar)
    phi_t    = e^{-t} + (1 - e^{-t}) phi_inf, phi_inf = 1 - psi + s(u - 1):
               1 for u <= -1 and u >= 2, e^{-t} on [0, 1]  (damping)

    The rescaled cylinder is ``pullback_cylinder_metric(profile, t, m)`` at
    tensor scale e^{-t}; a t at which e^{-t} underflows to 0 raises
    ``UsageError``.  The outer blocks have unit base volume over a unit
    cross-section; the core-block tensor scale is rho(t+1)^2 for the
    stretched metric and rho(2)^2 for the rescaled one; a rho^2 beyond float64
    at u = 0, t, t + 1 or 2 raises ``UsageError``.  The entry collar and
    both rescaled collars read psi and s(u - 1) from ``steps``, a fresh store
    unless the caller shares one across stretch parameters.
    """
    t = profile.domain_length
    m = resolve_m(profile, m)
    steps = _StepJets() if steps is None else steps
    with np.errstate(over="ignore"):    # a square beyond float64 is refused
        rho0_sq, rho_t_sq, core_sq, rescaled_core_sq = (
            float(profile.rho(u) ** 2) for u in (0.0, t, t + 1.0, 2.0))
    for u, square in ((0.0, rho0_sq), (t, rho_t_sq), (t + 1.0, core_sq),
                      (2.0, rescaled_core_sq)):
        if not math.isfinite(square):
            raise UsageError(f"rho^2 at u = {u!r} is {square}, beyond float64")
    plateau = require_positive(math.exp(-t),            # phi_t on [0, 1]
                               f"the damping factor e^-t at t = {t}")
    damping = 1.0 - plateau

    def entry_r2(psi):
        # entry collar [-1, 0]: interpolate the unit cross-section to rho(0)^2
        r2 = (rho0_sq - 1.0) * psi
        r2[0] += 1.0
        return r2

    def exit_r2(u, chi):
        # exit collar [t, t+1]: interpolate rho(u)^2 to the constant rho(t)^2
        rest = -chi                 # 1 - chi
        rest[0] += 1.0
        return (leibniz(rest, profile.rho_sq_jet(u, len(chi) - 1))
                + chi * rho_t_sq)

    def cutoffs(u, k):
        # psi and the damping cutoff phi_t, which is built on psi
        psi, rise = steps(u + 1.0, k), steps(u - 1.0, k)
        phi_t = damping * (rise - psi)
        phi_t[0] = plateau + damping * ((1.0 - psi[0]) + rise[0])
        return psi, rise, phi_t

    def stretched_collar_in(u, k):
        return exp_jet(1.0, 0.0, u, k), entry_r2(steps(u + 1.0, k))

    def stretched_cylinder(u, k):
        return exp_jet(1.0, 0.0, u, k), profile.rho_sq_jet(u, k)

    def stretched_collar_out(u, k):
        return exp_jet(1.0, 0.0, u, k), exit_r2(u, step_jet(u - t, k))

    # unit-length skeleton: pull the cylinder back by u -> t u, damp every
    # piece by phi_t, and reuse the stretched exit collar shifted to [1, 2]
    def rescaled_collar_in(u, k):
        psi, _, phi_t = cutoffs(u, k)
        return phi_t, leibniz(phi_t, entry_r2(psi))

    def rescaled_collar_out(u, k):
        # the stretched exit collar moved to [1, 2]: its chi is s(u - 1)
        _, rise, phi_t = cutoffs(u, k)
        return phi_t, leibniz(phi_t, exit_r2(u + (t - 1.0), rise))

    stretched = PiecewiseMetric((
        BlockPiece("complement"),
        CylinderPiece("collar_in", -1.0, 0.0, stretched_collar_in),
        CylinderPiece("cylinder", 0.0, t, stretched_cylinder),
        CylinderPiece("collar_out", t, t + 1.0, stretched_collar_out),
        BlockPiece("core", scale=core_sq),
    ), m)
    rescaled = PiecewiseMetric((
        BlockPiece("complement"),
        CylinderPiece("collar_in", -1.0, 0.0, rescaled_collar_in),
        replace(pullback_cylinder_metric(profile, t, m).pieces[0], scale=plateau),
        CylinderPiece("collar_out", 1.0, 2.0, rescaled_collar_out),
        BlockPiece("core", scale=rescaled_core_sq),
    ), m)

    family = NeckFamily(t=t, m=m, stretched=stretched, rescaled=rescaled)
    defect = family.max_interface_defect()
    if defect > _INTERFACE_TOL:
        raise DiracLabError(
            f"neck pieces fail to glue: radius jump {defect:.3e} at an interface")
    return family
