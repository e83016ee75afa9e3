"""Piecewise cylinder metrics: the glued neck family, volumes, Sobolev norms.

A closed manifold with a neck inserted decomposes into five pieces

    complement | collar_in [-1,0] | cylinder [0,t] | collar_out [t,t+1] | core

where the three middle pieces are warped cylinders a(u) du^2 + r(u)^2 dsigma^2
over a cross-section of unit volume and the outer two are abstract blocks of
unit volume and unit norm, scaled by a tensor factor.  Two metrics live on
this skeleton:

* the stretched metric, with the profile rho running over [0, t] and collars
  interpolating to the boundary values rho(0) and rho(t);
* the rescaled metric on the t = 1 skeleton, obtained by pulling the cylinder
  back under u -> t u and damping the middle by the plateau cutoff phi_t
  (equal to e^{-t} on [0, 1]).

The exit collar of the rescaled metric is built by shifting the stretched
metric's own exit collar to [1, 2]; damping the t = 1 collar instead (as one
sometimes sees written) would leave a radius jump of size |rho(t) - rho(1)| at
u = 1, violating the gluing.

Sobolev norms use the flat product cylinder as reference metric and the
coordinate frame, so the H^k squared norm of a(u) du^2 + r(u)^2 dsigma^2
reduces to one-dimensional quadratures

    sum_{j<=k} int [ (a^(j))^2 + (m-1) ((r^2)^(j))^2 ] du.

Each piece is measured once: ``measure(k, ...)`` takes one order-k jet of
each coefficient on the Simpson nodes, and its row 0 gives the volume while
its rows 0..k give every H^0..H^k norm.  Both jets are taken under one memo,
so the damping cutoff that the rescaled metric puts into both coefficients
of a piece is evaluated once for the piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DiracLabError, UsageError, require_int
from .profiles import (AffineOf, Const, CutoffSet, Product, SmoothFn,
                       WarpingProfile, jets, make_cutoffs, resolve_m)
from .util import simpson_uniform

__all__ = [
    "CylinderPiece", "BlockPiece", "PiecewiseMetric", "NeckFamily",
    "build_neck_family", "flat_cylinder", "cylinder_metric",
    "pullback_cylinder_metric",
]

_INTERFACE_TOL = 1e-12


@dataclass(frozen=True)
class CylinderPiece:
    """One warped segment a(u) du^2 + r(u)^2 dsigma^2 on [u_start, u_end]."""

    label: str
    u_start: float
    u_end: float
    longitudinal: SmoothFn     # a(u), the du^2 coefficient
    radial_sq: SmoothFn        # r(u)^2

    def __post_init__(self):
        if not self.u_end > self.u_start:
            raise UsageError(f"piece {self.label!r} has an empty span")

    def r(self, u):
        return np.sqrt(self.radial_sq(np.asarray(u, dtype=float)))

    def measure(self, k: int, m: int, panels: int = 4096):
        """(volume, [H^0..H^k squared norms]) from one order-k jet of each
        coefficient on the Simpson nodes, taken under one memo so that a node
        the two coefficients share is evaluated once."""
        u = np.linspace(self.u_start, self.u_end, panels + 1)
        a, r2 = jets(u, k, self.longitudinal, self.radial_sq)
        step = (self.u_end - self.u_start) / panels
        volume = simpson_uniform(np.sqrt(a[0]) * r2[0] ** ((m - 1) / 2.0), step)
        orders = [simpson_uniform(a[j] ** 2 + (m - 1) * r2[j] ** 2, step)
                  for j in range(k + 1)]
        return volume, np.cumsum(orders)

    def scaled(self, factor: float) -> "CylinderPiece":
        factor = float(factor)
        return replace(self, longitudinal=Const(factor) * self.longitudinal,
                       radial_sq=Const(factor) * self.radial_sq)


@dataclass(frozen=True)
class BlockPiece:
    """Abstract non-cylinder piece of unit volume and unit reference norm,
    with a tensor scale factor applied to the metric on the block."""

    label: str
    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0:
            raise UsageError(f"block {self.label!r} needs a positive scale")

    def measure(self, k: int, m: int, panels: int = 4096):
        """(volume, [H^0..H^k squared norms]); a tensor factor enters the
        volume as scale^{m/2} and any coefficient norm quadratically."""
        return self.scale ** (m / 2.0), np.full(k + 1, self.scale**2)

    def scaled(self, factor: float) -> "BlockPiece":
        return replace(self, scale=self.scale * float(factor))


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
        """Largest radius mismatch between abutting cylinder pieces."""
        worst = 0.0
        cyls = self.cylinder_pieces()
        for left, right in zip(cyls, cyls[1:]):
            if abs(left.u_end - right.u_start) > 1e-9:
                continue
            gap = abs(float(left.r(left.u_end)) - float(right.r(right.u_start)))
            worst = max(worst, gap)
        return worst

    def measure(self, k: int, panels: int = 4096):
        """Volumes by piece label and the squared H^0..H^k norms against the
        flat product reference, from one pass over the pieces."""
        k = require_int(k, "Sobolev order k", 0)
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
        if not factor > 0:
            raise UsageError("metric scale factor must be positive")
        return replace(self, pieces=tuple(p.scaled(factor) for p in self.pieces))

    def normalized_unit_volume(self, volume: float):
        """Rescale to total volume one; returns (metric, tensor_factor).

        ``volume`` is this metric's total volume, as measured by the caller.
        A tensor factor c multiplies every volume element by c^{m/2}, so the
        normalizing factor is Vol^{-2/m} (length scaling Vol^{-1/m})."""
        factor = float(volume) ** (-2.0 / self.m)
        return self.scaled(factor), factor


# ---------------------------------------------------------------------------
# canonical single-cylinder metrics
# ---------------------------------------------------------------------------

def flat_cylinder(m: int, t: float) -> PiecewiseMetric:
    """du^2 + dsigma^2 on [0, t]."""
    piece = CylinderPiece("cylinder", 0.0, float(t), Const(1.0), Const(1.0))
    return PiecewiseMetric((piece,), m)


def cylinder_metric(profile: WarpingProfile, m: Optional[int] = None) -> PiecewiseMetric:
    """du^2 + rho(u)^2 dsigma^2 on [0, t] for the given profile."""
    m = resolve_m(profile, m)
    piece = CylinderPiece("cylinder", 0.0, profile.domain_length,
                          Const(1.0), profile.rho_sq_fn())
    return PiecewiseMetric((piece,), m)


def pullback_cylinder_metric(profile: WarpingProfile, t: float,
                             m: Optional[int] = None) -> PiecewiseMetric:
    """The stretched cylinder pulled back to unit length:
    t^2 du^2 + rho(t u)^2 dsigma^2 on [0, 1]."""
    m = resolve_m(profile, m)
    t = float(t)
    if not t > 0:
        raise UsageError("stretch parameter t must be positive")
    piece = CylinderPiece("cylinder", 0.0, 1.0, Const(t * t),
                          AffineOf(profile.rho_sq_fn(), t, 0.0))
    return PiecewiseMetric((piece,), m)


# ---------------------------------------------------------------------------
# the neck family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeckFamily:
    """The stretched metric and its volume-damped companion for one t."""

    t: float
    m: int
    cutoffs: CutoffSet = field(repr=False)
    stretched: PiecewiseMetric = field(repr=False)
    rescaled: PiecewiseMetric = field(repr=False)

    def max_interface_defect(self) -> float:
        return max(self.stretched.max_interface_defect(),
                   self.rescaled.max_interface_defect())


def build_neck_family(profile: WarpingProfile, *,
                      m: Optional[int] = None) -> NeckFamily:
    """Assemble both glued metrics for the stretch parameter t, the profile's
    domain length.

    The outer blocks have unit base volume over a unit cross-section; the
    core-block tensor scale is rho(t+1)^2 for the stretched metric and
    rho(2)^2 for the rescaled one.
    """
    t = profile.domain_length
    m = resolve_m(profile, m)
    cutoffs = make_cutoffs(t)

    rho_sq = profile.rho_sq_fn()
    rho0_sq = float(profile.rho(0.0) ** 2)
    rho_t_sq = float(profile.rho(t) ** 2)

    one = Const(1.0)
    # entry collar [-1, 0]: interpolate the unit cross-section to rho(0)^2
    r2_in = one + Const(rho0_sq - 1.0) * cutoffs.psi
    # exit collar [t, t+1]: interpolate rho(u)^2 to the constant rho(t)^2
    r2_out = (one - cutoffs.chi) * rho_sq + cutoffs.chi * Const(rho_t_sq)

    stretched = PiecewiseMetric((
        BlockPiece("complement"),
        CylinderPiece("collar_in", -1.0, 0.0, one, r2_in),
        CylinderPiece("cylinder", 0.0, t, one, rho_sq),
        CylinderPiece("collar_out", t, t + 1.0, one, r2_out),
        BlockPiece("core", scale=float(profile.rho(t + 1.0) ** 2)),
    ), m)

    phi = cutoffs.phi_t
    # unit-length skeleton: pull the cylinder back by u -> t u, damp by phi_t,
    # and reuse the stretched exit collar shifted to [1, 2]
    rescaled = PiecewiseMetric((
        BlockPiece("complement"),
        CylinderPiece("collar_in", -1.0, 0.0, phi, Product(phi, r2_in)),
        CylinderPiece("cylinder", 0.0, 1.0, Product(phi, Const(t * t)),
                      Product(phi, AffineOf(rho_sq, t, 0.0))),
        CylinderPiece("collar_out", 1.0, 2.0, phi,
                      Product(phi, AffineOf(r2_out, 1.0, t - 1.0))),
        BlockPiece("core", scale=float(profile.rho(2.0) ** 2)),
    ), m)

    family = NeckFamily(t=t, m=m, cutoffs=cutoffs, stretched=stretched,
                        rescaled=rescaled)
    defect = family.max_interface_defect()
    if defect > _INTERFACE_TOL:
        raise DiracLabError(
            f"neck pieces fail to glue: radius jump {defect:.3e} at an interface")
    return family
