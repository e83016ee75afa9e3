"""Neck-stretching experiment: eigenvalue collapse, volumes, norm growth.

For each stretch parameter t the experiment rebuilds the exponential-profile
cylinder of length t, records the single-piece Dirichlet upper bound pi^2/t^2
for the lowest glued eigenvalue, solves the assembled cylinder problem to
confirm the bound (with equality when only the harmonic branch is present),
and measures the constructed metric family: piece volumes of the rescaled
metric (whose cylinder piece must shrink to zero), its H^k norms (which must
stay uniformly bounded), and the unit-volume normalization.

The growth fit measures how the pulled-back cylinder metric t^2 du^2
+ rho(tu)^2 dsigma^2 on the unit skeleton grows in H^k: the squared norm
behaves like t^4 + t^{2k-1}, so the log-log slope must stay below
max(4, 2k) + 0.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .assemble import assemble_spectrum, lowest_eigenvalue_bound
from .errors import (MAX_SOBOLEV_ORDER, UsageError, require_int,
                     require_positive)
from .metrics import _StepJets, build_neck_family, pullback_cylinder_metric
from .profiles import WarpingProfile, exponential_profile
from .sturm import _check_mesh
from .transverse import TransverseSpectrum

__all__ = ["StretchRow", "StretchReport", "run_stretch_sweep",
           "GrowthFit", "sobolev_growth_fit", "sobolev_growth_fits"]

_NORM_KS = (0, 1, 2)
_VOLUME_TOL = 1e-12


@dataclass(frozen=True)
class StretchRow:
    t: float
    bound: float
    lambda0: float
    lambda0_error: float
    margin: float
    vol_cylinder: float
    vol_total: float
    vol_normalized: float
    hk_norms: dict

    def to_dict(self) -> dict:
        doc = {
            "t": self.t, "bound": self.bound, "lambda0": self.lambda0,
            "lambda0_error": self.lambda0_error, "margin": self.margin,
            "vol_cylinder": self.vol_cylinder, "vol_total": self.vol_total,
            "vol_normalized": self.vol_normalized,
        }
        doc.update({f"h{k}_norm_sq": v for k, v in sorted(self.hk_norms.items())})
        return doc


@dataclass
class StretchReport:
    rows: list
    m: int
    mesh: int
    tolerance: float
    harmonic_only: bool
    bounds_hold: bool
    bounds_quarter_on_doubling: bool
    cylinder_volume_decreasing: bool
    normalization_ok: bool
    norm_ratios: dict                       # k -> max/min across the sweep
    equality_defect: Optional[float]        # only for harmonic-only input
    spectrum_doc: dict = field(default_factory=dict)
    profile_kind: str = "exponential"

    @property
    def passed(self) -> bool:
        return (self.bounds_hold and self.cylinder_volume_decreasing
                and self.normalization_ok)

    def to_rows(self):
        header = ["t", "bound", "lambda0", "margin", "vol_cylinder",
                  "vol_total"] + [f"h{k}_norm_sq" for k in sorted(self.norm_ratios)]
        rows = []
        for r in self.rows:
            rows.append([r.t, r.bound, r.lambda0, r.margin, r.vol_cylinder,
                         r.vol_total] + [r.hk_norms[k] for k in sorted(r.hk_norms)])
        return header, rows

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "m": self.m, "mesh": self.mesh, "tolerance": self.tolerance,
            "harmonic_only": self.harmonic_only,
            "bounds_hold": self.bounds_hold,
            "bounds_quarter_on_doubling": self.bounds_quarter_on_doubling,
            "cylinder_volume_decreasing": self.cylinder_volume_decreasing,
            "normalization_ok": self.normalization_ok,
            "norm_ratios": {str(k): v for k, v in sorted(self.norm_ratios.items())},
            "equality_defect": self.equality_defect,
            "passed": self.passed,
            "spectrum": self.spectrum_doc,
            "profile_kind": self.profile_kind,
        }


def _measure(metric, k: int, panels: int, t: float):
    """``metric.measure(k, panels)``; a volume or an H^j norm, j <= k, that
    float64 cannot hold raises ``UsageError`` naming k and t."""
    with np.errstate(over="ignore", invalid="ignore"):
        volumes, norms = metric.measure(k, panels)
    if not np.all(np.isfinite([*volumes.values(), *norms])):
        raise UsageError(f"the volumes and H^0..H^{k} norms at t = {t} are not "
                         "all finite in float64; lower the Sobolev order k")
    return volumes, norms


def _sweep_point(m: int, spectrum: TransverseSpectrum, t: float, mesh: int,
                 norm_ks: Sequence[int], panels: int,
                 steps: _StepJets) -> StretchRow:
    profile = exponential_profile(m, t)
    bound = lowest_eigenvalue_bound(t, spectrum)
    assembled = assemble_spectrum(profile, spectrum, t, m, K=1, mesh=mesh)
    lam0 = assembled.records[0].value
    lam0_err = assembled.records[0].error_estimate

    family = build_neck_family(profile, steps=steps)
    volumes, norms = _measure(family.rescaled, max(norm_ks, default=0),
                              panels, t)
    total = float(sum(volumes.values()))
    normalized, _ = family.rescaled.normalized_unit_volume(total)
    norm_sqs = {k: norms[k] for k in norm_ks}
    return StretchRow(t=t, bound=bound, lambda0=lam0,
                      lambda0_error=lam0_err, margin=bound - lam0,
                      vol_cylinder=volumes["cylinder"], vol_total=total,
                      vol_normalized=normalized.total_volume(panels),
                      hk_norms=norm_sqs)


def run_stretch_sweep(profile: WarpingProfile, spectrum: TransverseSpectrum,
                      t_values: Sequence[float], mesh: int = 2048,
                      tolerance: float = 1e-6, norm_ks: Sequence[int] = _NORM_KS,
                      panels: int = 2048) -> StretchReport:
    """Run the collapse experiment over ascending stretch parameters.

    ``profile`` fixes the dimension m and must be the exponential kind (its
    own domain length is ignored; each sweep point rebuilds the profile at
    its t).  ``spectrum`` must contain the harmonic branch.
    """
    if profile.kind != "exponential":
        raise UsageError("the stretch experiment uses the exponential profile")
    if not spectrum.has_harmonic:
        raise UsageError("stretch sweep needs a transverse spectrum with a "
                         "harmonic entry")
    ts = [require_positive(t, "stretch parameter t") for t in t_values]
    if len(ts) < 2:
        raise UsageError("need at least two stretch parameters")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise UsageError("stretch parameters must be strictly ascending")
    tolerance = require_positive(tolerance, "tolerance")
    norm_ks = [require_int(k, "Sobolev order k", 0, maximum=MAX_SOBOLEV_ORDER)
               for k in norm_ks]
    _, mesh = _check_mesh(1, mesh)               # each point solves K = 1
    m = profile.m

    steps = _StepJets()         # the t-free step jets, shared by every point
    rows = [_sweep_point(m, spectrum, t, mesh, norm_ks, panels, steps)
            for t in ts]

    bounds_hold = all(r.lambda0 <= r.bound + tolerance for r in rows)
    quarters = all(
        abs(rb.bound / ra.bound - 0.25) < 1e-12
        for ra, rb in zip(rows, rows[1:]) if abs(rb.t / ra.t - 2.0) < 1e-12)
    vol_decreasing = all(b.vol_cylinder < a.vol_cylinder
                         for a, b in zip(rows, rows[1:]))
    normalization_ok = all(abs(r.vol_normalized - 1.0) <= _VOLUME_TOL for r in rows)
    ratios = {}
    for k in norm_ks:
        vals = [r.hk_norms[k] for r in rows]
        ratios[k] = max(vals) / min(vals)

    harmonic_only = len(spectrum.entries) == 1 and spectrum.has_harmonic
    equality_defect = None
    if harmonic_only:
        equality_defect = max(abs(r.lambda0 - r.bound) for r in rows)

    return StretchReport(rows=rows, m=m, mesh=mesh, tolerance=tolerance,
                         harmonic_only=harmonic_only, bounds_hold=bounds_hold,
                         bounds_quarter_on_doubling=quarters,
                         cylinder_volume_decreasing=vol_decreasing,
                         normalization_ok=normalization_ok,
                         norm_ratios=ratios, equality_defect=equality_defect,
                         spectrum_doc=spectrum.to_dict())


@dataclass(frozen=True)
class GrowthFit:
    k: int
    slope: float
    limit: float
    t_values: tuple
    norm_sqs: tuple

    @property
    def within_limit(self) -> bool:
        return self.slope <= self.limit

    def to_dict(self) -> dict:
        return {"k": self.k, "slope": self.slope, "limit": self.limit,
                "within_limit": self.within_limit,
                "t_values": list(self.t_values),
                "norm_sqs": list(self.norm_sqs)}


def sobolev_growth_fit(k: int, t_values: Sequence[float], m: int = 2,
                       panels: int = 4096) -> GrowthFit:
    """Log-log slope of the pulled-back cylinder's squared H^k norm in t.

    Requires at least four t-values spanning a factor of eight or more; the
    accepted ceiling for the slope is max(4, 2k) + 0.2.
    """
    return sobolev_growth_fits([k], t_values, m, panels)[0]


def sobolev_growth_fits(k_values: Sequence[int], t_values: Sequence[float],
                        m: int = 2, panels: int = 4096) -> list:
    """:func:`sobolev_growth_fit` for each k, from one measure per t.

    One ``measure(max k)`` of each pulled-back metric returns every H^k norm
    up to max k: the norms are prefix sums of the same per-order integrals,
    so each fit equals its single-k call to the last bit.
    """
    ks = [require_int(k, "Sobolev order k", 0, maximum=MAX_SOBOLEV_ORDER)
          for k in k_values]
    ts = sorted(require_positive(t, "stretch parameter t") for t in t_values)
    if len(ts) < 4:
        raise UsageError("growth fit needs at least four stretch parameters")
    if ts[-1] / ts[0] < 8.0:
        raise UsageError("stretch parameters must span at least a factor of 8")
    norms = [_measure(pullback_cylinder_metric(exponential_profile(m, t), t),
                      max(ks, default=0), panels, t)[1] for t in ts]
    fits = []
    for k in ks:
        norm_sqs = [n[k] for n in norms]
        slope = float(np.polyfit(np.log(ts), np.log(norm_sqs), 1)[0])
        fits.append(GrowthFit(k=k, slope=slope, limit=max(4.0, 2.0 * k) + 0.2,
                              t_values=tuple(ts), norm_sqs=tuple(norm_sqs)))
    return fits
