"""Assemble per-branch cylinder spectra into the global Dirichlet spectrum.

Every transverse eigenvalue mu spawns one branch problem with normal-form
potential V = mu(u)^2 - mu'(u) (the paired -mu entry of a symmetric spectrum
appears as its own entry, carrying the sign-flipped potential mu^2 + mu').
The global Dirichlet spectrum of the cylinder Dirac-Laplacian is the merged,
multiplicity-weighted multiset of the branch spectra.

Which branches are solved rests on a proven lower bound for each branch.  The
interval [0, t] is cut into 16 cells; on each, the step potential V- is the
minimum of V over the cell's samples (2049 on [0, t]) less how far V can fall
between two of them, mu0^2 D1 + |mu0| D2 with D1 = max |(s^2)'| delta/2 and
D2 = max |(sH)'| delta/2 on the cell, since V' = mu0^2 (s^2)' - mu0 (sH)'
(s = rho(0)/rho, delta the sample spacing).  So V >= V- on all of [0, t],
and by min-max every eigenvalue of V is at least the same eigenvalue of V-.
Bounding V from below by a step potential is Pruess's method (SIAM J. Numer.
Anal. 10:55, 1973), the device SLEDGE is built on (Pruess & Fulton, ACM TOMS
19:360, 1993).

Let sigma be the K-th merged value plus its error estimate.  Branches are
taken in ascending order of min V-.  Every Dirichlet eigenvalue of a branch
lies above min V- + pi^2/t^2, so once that exceeds sigma, neither the branch
nor any later one can enter the lowest K.  Every other branch gets the step
count: the number of eigenvalues of V- at or below sigma, exact by the Sturm
oscillation theorem as the number of zeros in (0, t] of the solution of
-y'' + (V- - sigma) y = 0 with y(0) = 0, y'(0) = 1.  On a step potential
that solution is sin/cos or sinh/cosh in closed form, cell by cell.  By
min-max no more of the branch's values lie at or below sigma, and the values
above sigma lie above the K-th merged value, so they can add no record.

So one rule sets each request.  A branch of multiplicity mult is asked for
ceil(K / mult) values, the most that can enter the lowest K, and once sigma
is finite for no more than its step count; a branch whose step count is zero
is skipped.  A kernel asked for fewer values bisects from another interval,
so a value may move within its 1e-10 absolute tolerance.  Exact ties across
branches, such as +mu0 and -mu0 on a constant profile, which share one
potential, may then merge in another branch order than in a solve of every
branch for all K values; the values and cluster ids are the same.

The same margin, applied to the potential floor of every branch at or beyond
the first *omitted* transverse eigenvalue, decides whether a truncated
spectrum is safe; an unsafe truncation raises :class:`TruncationRiskError`.

The maxima of |(s^2)'| and |(sH)'| on a cell are read off its samples.  That
is exact on exponential and constant profiles, where both are monotone on
every cell.  On a spline the largest value on a cell may lie between two
samples, and the margin then misses that excess times delta/2.  An order-1
spline has rho'' = 0 between its knots, so H' = H^2 there; its H, and so V,
jumps at a knot, where a point may lie a full spacing delta from the nearest
sample on its own side, so its margin uses delta in place of delta/2.  A
piece between two of its knots that is shorter than 2 delta may hold no
sample at all; its midpoint, within delta of each of its points, joins the
points of every cell the piece comes near, so knots of any spacing are
covered.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (TruncationRiskError, UsageError, require_int,
                     require_positive)
from .profiles import WarpingProfile, mean_curvature, mean_curvature_prime
from .sturm import (BranchProblem, _check_mesh, liouville_transform,
                    solve_transformed)
from .transverse import TransverseSpectrum

__all__ = [
    "BranchEigenvalue", "AssembledSpectrum",
    "assemble_spectrum", "lowest_eigenvalue_bound",
]

CLUSTER_TOL = 1e-9
_SAMPLES = 2049     # sampling grid of V on [0, t]
_CELLS = 16         # cells of the step potential V- below V
_SPAN = (_SAMPLES - 1) // _CELLS    # sample spacings per cell
_BLOCK_ROWS = 64    # branches per min-V product block: 64 x 2064 doubles, 1 MB
# sample indices of each cell, one row per cell; neighbours share an end sample
_CELL_SAMPLES = np.arange(_CELLS)[:, None] * _SPAN + np.arange(_SPAN + 1)


@dataclass(frozen=True)
class BranchEigenvalue:
    """One merged eigenvalue with its branch provenance."""

    value: float
    mu0: float
    branch_id: int
    branch_index: int
    multiplicity: int
    error_estimate: float
    cluster: int = -1


@dataclass
class AssembledSpectrum:
    """Lowest-K merged spectrum with provenance and truncation bookkeeping."""

    records: list
    count: int
    mesh_size: int
    truncation_safe: bool
    branches_solved: int
    branches_skipped: int
    meta: dict = field(default_factory=dict)

    def values(self) -> np.ndarray:
        """The lowest ``count`` eigenvalues, multiplicities expanded."""
        return np.repeat([r.value for r in self.records],
                         [r.multiplicity for r in self.records])[: self.count]

    def to_rows(self):
        header = ["index", "value", "mu0", "branch_id", "branch_index",
                  "multiplicity", "cluster", "error_estimate"]
        rows = [[i, r.value, r.mu0, r.branch_id, r.branch_index,
                 r.multiplicity, r.cluster, r.error_estimate]
                for i, r in enumerate(self.records)]
        return header, rows

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mesh_size": self.mesh_size,
            "truncation_safe": self.truncation_safe,
            "branches_solved": self.branches_solved,
            "branches_skipped": self.branches_skipped,
            "eigenvalues": [asdict(r) for r in self.records],
            "meta": self.meta,
        }


def lowest_eigenvalue_bound(t: float, spectrum: TransverseSpectrum) -> float:
    """Upper bound pi^2/t^2 for the lowest global Dirichlet eigenvalue.

    Valid because the harmonic branch (mu = 0) contributes the exact values
    pi^2 (n+1)^2 / t^2; a spectrum without a harmonic entry gives no such
    closed form and the call refuses.
    """
    t = require_positive(t, "t")
    if not spectrum.has_harmonic:
        raise UsageError("bound requires a harmonic transverse entry (mu = 0)")
    return math.pi**2 / t**2


def _slopes(s: np.ndarray, h: np.ndarray, dh: np.ndarray) -> tuple:
    """|(s^2)'| = |2 s^2 H| and |(sH)'| = |s H^2 + s H'| at the points, from
    s' = s H; with them |V'| <= mu0^2 |(s^2)'| + |mu0| |(sH)'|."""
    return np.abs(2.0 * s**2 * h), np.abs(s * h**2 + s * dh)


def _cell_points(starts: np.ndarray, ends: np.ndarray, t: float) -> np.ndarray:
    """Indices of the points of each cell, one row per cell: its samples, then
    point ``_SAMPLES + i`` for every piece [starts_i, ends_i] that comes within
    a sample spacing of the cell, padded with the cell's first sample (a
    repeated point changes no minimum or maximum)."""
    pad = t / (_SAMPLES - 1)
    span = np.clip((np.stack([starts - pad, ends + pad]) * (_CELLS / t)).astype(int),
                   0, _CELLS - 1)
    cell = np.arange(_CELLS)[:, None]
    member = (span[0] <= cell) & (cell <= span[1])
    order = np.argsort(~member, axis=1, kind="stable")[:, :member.sum(axis=1).max()]
    extra = np.where(np.take_along_axis(member, order, axis=1),
                     _SAMPLES + order, _CELL_SAMPLES[:, :1])
    return np.hstack([_CELL_SAMPLES, extra])


def _grid_samples(profile: WarpingProfile, t: float) -> tuple:
    """s = rho(0)/rho, H and H' at the points of each cell, one row per cell,
    from one jet, and the reach: the distance within which every point of a
    cell lies from one of the cell's points on its own side of any jump of V.

    A cell's points are its 129 samples (neighbouring cells share an end
    sample), and the reach is half their spacing delta.  An order-1 spline,
    whose V jumps at its knots, adds the midpoints of its pieces shorter than
    2 delta and takes the reach delta (see the module docstring).
    """
    grid = np.linspace(0.0, t, _SAMPLES)
    spacing = t / (_SAMPLES - 1)
    rho0 = float(profile.rho(0.0))
    if profile.kind == "sampled" and profile.order < 2:
        starts, ends = profile.knots[:-1], profile.knots[1:]
        short = (ends - starts < 2.0 * spacing) & (ends > 0.0) & (starts < t)
        starts, ends = starts[short], ends[short]
        jet = profile.jet(np.concatenate([grid, (starts + ends) / 2.0]), 1)
        h = mean_curvature(jet)
        cells = _cell_points(starts, ends, t)
        return (rho0 / jet[0])[cells], h[cells], (h**2)[cells], spacing
    jet = profile.jet(grid, 2)
    return ((rho0 / jet[0])[_CELL_SAMPLES], mean_curvature(jet)[_CELL_SAMPLES],
            mean_curvature_prime(jet)[_CELL_SAMPLES], spacing / 2.0)


def _margin(s: np.ndarray, h: np.ndarray, dh: np.ndarray,
            reach: float) -> np.ndarray:
    """Rows D1 = max |(s^2)'| reach and D2 = max |(sH)'| reach, one column per
    cell: V falls by at most mu0^2 D1 + |mu0| D2 from the nearest point."""
    return reach * np.array([d.max(axis=1) for d in _slopes(s, h, dh)])


def _tail_potential_floor(nu: float, s: np.ndarray, h: np.ndarray,
                          dh: np.ndarray, reach: float) -> float:
    """Proven lower bound of V over [0, t] for any branch with |mu0| >= nu.

    V(u; x) >= s^2 x^2 - s |H| x for x = |mu0|; minimizing the quadratic over
    x >= nu gives the floor f used in the truncation-safety test.  Between
    points f falls by at most ``reach`` times |f'|, which is
    nu^2 |(s^2)'| + nu |(s|H|)'| where x = nu is the minimizer and |H H'| / 2
    on the vertex branch -H^2/4; |(s|H|)'| = |(sH)'|.  The slope is read off
    the points of each cell, as for the branch cells.  A nu above
    1e100 / max s is lowered to it, so that s^2 nu^2 stays finite: the floor
    for |mu0| >= 1e100 / max s also bounds every |mu0| >= nu.
    """
    nu = min(nu, 1e100 / float(s.max()))
    habs = np.abs(h)
    ds2, dsh = _slopes(s, h, dh)
    on_nu = nu >= habs / (2.0 * s)
    floor = np.where(on_nu, s**2 * nu**2 - s * habs * nu, -(h**2) / 4.0)
    slope = np.where(on_nu, nu**2 * ds2 + nu * dsh, np.abs(h * dh) / 2.0)
    return float(np.min(floor.min(axis=1) - reach * slope.max(axis=1)))


def _branch_minima(mu0: np.ndarray, s: np.ndarray, sh: np.ndarray,
                   margin: np.ndarray) -> np.ndarray:
    """Step potential V- below V(u; mu0) = mu0^2 s^2 - mu0 s H for every mu0,
    one row per mu0 and one column per cell.

    ``s`` and ``sh`` hold the cells' points, one row per cell.  V is quadratic
    in mu0, so the potentials of all branches at those points are one
    (B x 2)(2 x G) product of [mu0^2, mu0] and [s^2, -s H]; it is taken in
    blocks of ``_BLOCK_ROWS`` branches, so the temporary stays small.  The
    G columns are laid out cell by cell, so every cell minimum is a reduction
    over contiguous memory.  Each minimum then drops by mu0^2 D1 + |mu0| D2,
    the rows D1 and D2 of ``margin`` (2 x cells) bounding how far V can fall
    from the nearest point.
    """
    coef = np.column_stack([mu0**2, mu0])
    basis = np.stack([s**2, -sh]).reshape(2, -1)
    sampled = np.concatenate([
        (coef[i:i + _BLOCK_ROWS] @ basis).reshape(-1, *s.shape).min(axis=2)
        for i in range(0, len(coef), _BLOCK_ROWS)])
    return sampled - np.abs(coef) @ margin


def _step_count(lower: list, width: float, sigma: float) -> int:
    """Number of Dirichlet eigenvalues at or below ``sigma`` of the step
    potential ``lower`` (one value per cell of length ``width``).

    By the Sturm oscillation theorem it is the number of zeros in (0, t] of
    the solution of -y'' + (V - sigma) y = 0 with y(0) = 0, y'(0) = 1.  Each
    cell is crossed in closed form.  Where V < sigma, y = r sin(phi + k x)
    with k^2 = sigma - V, and the zeros in the cell are the multiples of pi
    in (phi, phi + k width].  Where V >= sigma, y = y0 cosh(k x)
    + y0' sinh(k x) / k has at most one zero, in the cell exactly when y
    changes sign across it; it is carried divided by cosh(k width), in tanh
    form, and renormalised, so nothing overflows.
    """
    y, dy, count = 0.0, 1.0, 0
    for v in lower:
        q = v - sigma
        if q < 0.0:
            k = math.sqrt(-q)
            start = math.atan2(k * y, dy)
            phase = start + k * width
            count += int(phase // math.pi - start // math.pi)
            y, dy = math.sin(phase), k * math.cos(phase)
        else:
            k = math.sqrt(q)
            tw = math.tanh(k * width) / k if k > 0.0 else width
            y0, y, dy = y, y + dy * tw, dy + q * y * tw
            count += (y0 > 0.0 and y <= 0.0) or (y0 < 0.0 and y >= 0.0)
            norm = math.hypot(y, dy)
            y, dy = y / norm, dy / norm
    return count


def assemble_spectrum(profile: WarpingProfile, spectrum: TransverseSpectrum,
                      t: float, m: int, K: int, mesh: int = 2048,
                      strict_truncation: bool = True) -> AssembledSpectrum:
    """Lowest K eigenvalues of the cylinder Dirac-Laplacian with Dirichlet ends.

    ``t`` must match the profile's domain length (it is kept explicit as a
    guard).  Every branch gets a proven step potential V- <= V on 16 cells:
    the cell minima of V on 2049 samples, from one blocked matrix product for
    all branches (:func:`_branch_minima`), less a derivative margin computed
    once from one jet of rho (Pruess's method; see the module docstring).
    If s = rho(0)/rho, s^2, sH, H' or the margin is not finite in float64 at
    some sample, the call raises ``UsageError`` naming t, and if the bound
    mu0^2 (max s^2 + max D1) + |mu0| (max |sH| + max D2) on |V| is not finite
    for a listed branch, ``UsageError`` naming mu0, before any solve.
    Branches are taken in ascending order of min V-, with sigma the K-th
    merged value plus its error estimate:

    - once min V- + pi^2/t^2 > sigma, this and every later branch is skipped;
    - any other branch is asked for ceil(K / mult) values and, once sigma is
      finite, for no more than the number of eigenvalues of V- at or below
      sigma (:func:`_step_count`, an exact Sturm count on the step
      potential);
    - a branch whose step count is zero is skipped.

    The values left out lie above the K-th, so the records equal those of
    solving every branch that is not skipped for all K values; values may
    differ from such a solve within the kernel's 1e-10 absolute tolerance,
    and exactly tied values of different branches may come in another
    branch order.  The merge is deterministic, with ties broken by (value,
    branch_id, branch_index) and near-equal values across branches annotated
    with a shared cluster id.
    """
    K, mesh = _check_mesh(K, mesh)
    m = require_int(m, "dimension m", 2)
    t = require_positive(t, "t")
    if abs(t - profile.domain_length) > 1e-12 * max(1.0, abs(t)):
        raise UsageError("t must equal the profile's domain length")

    mu0s, mults = zip(*spectrum.entries)
    mu0 = np.array(mu0s)
    with np.errstate(all="ignore"):      # a non-finite sample raises here
        s, h, dh, reach = _grid_samples(profile, t)
        s2, sh, margin = s**2, s * h, _margin(s, h, dh, reach)
        if not all(np.isfinite(a).all() for a in (s2, sh, dh, margin)):
            raise UsageError(f"the profile's samples at t = {t} are not finite in float64")
        # |V| on [0, t] is at most the sampled maximum plus the margin
        top = (mu0**2 * (s2.max() + margin[0].max())
               + np.abs(mu0) * (np.abs(sh).max() + margin[1].max()))
        bad = mu0[~np.isfinite(top)]
        if bad.size:
            raise UsageError(f"the potential of the branch mu0 = {float(bad[0])!r} "
                             "is not finite in float64")
    lower = _branch_minima(mu0, s, sh, margin)
    branches = sorted(zip(lower.min(axis=1).tolist(), range(len(mu0s)), mu0s,
                          mults))

    # kept: the lowest merged records, cut to cover K values once they do;
    # sigma: the K-th merged value plus its error estimate (infinite until then)
    lift, width = math.pi**2 / t**2, t / _CELLS
    kept, sigma = [], math.inf
    solved = 0
    for vmin, branch_id, mu0, mult in branches:
        # every value of this branch lies above min V- + pi^2/t^2 > sigma,
        # and every later branch has a larger min V-
        if vmin + lift > sigma:
            break
        # at most ceil(K / mult) of its values can enter the lowest K, and
        # at most as many of them as of V- lie at or below sigma
        count = -(-K // mult)
        if sigma < math.inf:
            count = min(count, _step_count(lower[branch_id].tolist(), width,
                                           sigma))
            if count == 0:
                continue
        problem = liouville_transform(BranchProblem.from_profile(profile, mu0, m=m))
        res = solve_transformed(problem, count, mesh)
        solved += 1
        kept.extend(BranchEigenvalue(
            value=float(val), mu0=mu0, branch_id=branch_id, branch_index=j,
            multiplicity=mult, error_estimate=float(err))
            for j, (val, err) in enumerate(zip(res.values, res.error_estimates)))
        kept.sort(key=lambda r: (r.value, r.branch_id, r.branch_index))
        total = 0
        for i, rec in enumerate(kept):
            total += rec.multiplicity
            if total >= K:
                kept, sigma = kept[: i + 1], rec.value + rec.error_estimate
                break
    skipped = len(branches) - solved

    # cluster annotation: runs of values within CLUSTER_TOL share an id
    clustered = []
    cluster_id = -1
    prev = None
    for rec in kept:
        if prev is None or rec.value - prev > CLUSTER_TOL:
            cluster_id += 1
        prev = rec.value
        clustered.append(replace(rec, cluster=cluster_id))

    safe = sigma < math.inf
    gap = spectrum.omitted_abs_min
    if safe and math.isfinite(gap):
        safe = _tail_potential_floor(gap, s, h, dh, reach) + lift > sigma

    if not safe and strict_truncation:
        raise TruncationRiskError(
            f"transverse truncation (first omitted |mu| >= {gap:.6g}) cannot "
            f"guarantee the lowest K={K} eigenvalues; supply more branches")

    return AssembledSpectrum(records=clustered, count=K, mesh_size=mesh,
                             truncation_safe=safe, branches_solved=solved,
                             branches_skipped=skipped,
                             meta={"t": t, "m": m,
                                   "profile": profile.to_dict(),
                                   "spectrum": spectrum.to_dict()})
