"""Assemble per-branch cylinder spectra into the global Dirichlet spectrum.

Every transverse eigenvalue mu spawns one branch problem with normal-form
potential V = mu(u)^2 - mu'(u) (the paired -mu entry of a symmetric spectrum
appears as its own entry, carrying the sign-flipped potential mu^2 + mu').
The global Dirichlet spectrum of the cylinder Dirac-Laplacian is the merged,
multiplicity-weighted multiset of the branch spectra.

A branch may be skipped once min_u V exceeds the current K-th smallest merged
eigenvalue: its Dirichlet spectrum lies above min V + pi^2/t^2, so it cannot
contribute to the lowest K values.  The same bound windows the branches that
are solved: kept values whose value + error estimate lies below a branch's
min V rank ahead of all of its values, so with ``below`` their multiplicity
only the branch's lowest ceil((K - below) / mult) values can still enter the
lowest K, and only those are asked of the kernel.  A solved branch has min V
at most the K-th value, so below <= K - 1 and the count is at least one.  The
records are those of a solve for all K values; a kernel asked for fewer
values bisects from another interval, so a value may move within its 1e-10
absolute tolerance.

The same estimate applied to the first *omitted* transverse eigenvalue
decides whether a truncated spectrum is safe; an unsafe truncation raises
:class:`TruncationRiskError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (TruncationRiskError, UsageError, require_int,
                     require_positive)
from .profiles import WarpingProfile, mean_curvature
from .sturm import (BranchProblem, _check_mesh, liouville_transform,
                    solve_transformed)
from .transverse import TransverseSpectrum

__all__ = [
    "BranchEigenvalue", "AssembledSpectrum",
    "assemble_spectrum", "lowest_eigenvalue_bound",
]

CLUSTER_TOL = 1e-9
_BLOCK_ROWS = 64    # branches per min-V product block: 64 x 2049 doubles, 1 MB


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
        out = []
        for rec in self.records:
            out.extend([rec.value] * rec.multiplicity)
        return np.array(out[: self.count])

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
            "eigenvalues": [
                {"value": r.value, "mu0": r.mu0, "branch_id": r.branch_id,
                 "branch_index": r.branch_index, "multiplicity": r.multiplicity,
                 "cluster": r.cluster, "error_estimate": r.error_estimate}
                for r in self.records
            ],
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


def _tail_potential_floor(nu: float, s: np.ndarray, habs: np.ndarray) -> float:
    """Pointwise-minimized lower bound of V for any branch with |mu0| >= nu.

    V(u; x) >= s^2 x^2 - s |H| x for x = |mu0|; minimizing the quadratic over
    x >= nu gives the floor used in the truncation-safety test.
    """
    vertex = habs / (2.0 * s)
    at_nu = s**2 * nu**2 - s * habs * nu
    at_vertex = -(habs**2) / 4.0
    floor = np.where(nu >= vertex, at_nu, at_vertex)
    return float(np.min(floor))


def _branch_minima(mu0: np.ndarray, s: np.ndarray, sh: np.ndarray) -> np.ndarray:
    """min over the grid of V(u; mu0) = mu0^2 s^2 - mu0 s H for every mu0.

    V is quadratic in mu0, so the sampled potentials of all branches are one
    (B x 2)(2 x G) product of [mu0^2, mu0] and [s^2, -s H]; it is taken in
    blocks of ``_BLOCK_ROWS`` branches, so the temporary stays small.
    """
    coef = np.column_stack([mu0**2, mu0])
    basis = np.vstack([s**2, -sh])
    return np.concatenate([(coef[i:i + _BLOCK_ROWS] @ basis).min(axis=1)
                           for i in range(0, len(coef), _BLOCK_ROWS)])


def assemble_spectrum(profile: WarpingProfile, spectrum: TransverseSpectrum,
                      t: float, m: int, K: int, mesh: int = 2048,
                      strict_truncation: bool = True) -> AssembledSpectrum:
    """Lowest K eigenvalues of the cylinder Dirac-Laplacian with Dirichlet ends.

    ``t`` must match the profile's domain length (it is kept explicit as a
    guard).  Branches are solved one at a time in ascending order of min V,
    sampled on 2049 points; V is quadratic in mu0, so the samples of all
    branches come from one blocked matrix product (:func:`_branch_minima`).
    Each branch is asked only for the ceil((K - below) / mult) values that
    can still enter the lowest K, ``below`` being the multiplicity of kept
    values with value + error estimate under its min V: its spectrum lies
    above min V + pi^2/t^2, so they rank ahead of all of it.  The records
    equal those of a solve for all K values; values may differ from it within
    the kernel's 1e-10 absolute tolerance.
    The merge is deterministic, with ties broken by (value, branch_id,
    branch_index) and near-equal values across branches annotated with a
    shared cluster id.
    """
    K, mesh = _check_mesh(K, mesh)
    m = require_int(m, "dimension m", 2)
    t = require_positive(t, "t")
    if abs(t - profile.domain_length) > 1e-12 * max(1.0, abs(t)):
        raise UsageError("t must equal the profile's domain length")

    # rho(0), rho and H on the sampling grid, shared by every branch and the tail floor
    grid = np.linspace(0.0, t, 2049)
    rho0 = float(profile.rho(0.0))
    jet = profile.jet(grid, 1)
    s, h = rho0 / jet[0], mean_curvature(jet)
    mu0s, mults = zip(*spectrum.entries)
    vmins = _branch_minima(np.array(mu0s), s, s * h)
    branches = sorted(zip(vmins.tolist(), range(len(mu0s)), mu0s, mults))

    # kept: the lowest merged records, cut to cover K values once they do;
    # kth: the K-th merged value (infinite until then)
    kept, kth = [], math.inf
    solved = 0
    for vmin, branch_id, mu0, mult in branches:
        # a branch's spectrum lies above its min V, so once min V exceeds the
        # K-th merged value neither it nor any later branch can enter the lowest K
        if vmin > kth:
            break
        # kept records below min V rank ahead of every value of this branch,
        # so only its lowest ceil((K - below) / mult) values can still enter
        below = sum(r.multiplicity for r in kept
                    if r.value + r.error_estimate < vmin)
        problem = liouville_transform(BranchProblem.from_profile(profile, mu0, m=m))
        res = solve_transformed(problem, -(-(K - below) // mult), mesh)
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
                kept, kth = kept[: i + 1], rec.value
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
        clustered.append(BranchEigenvalue(rec.value, rec.mu0, rec.branch_id,
                                          rec.branch_index, rec.multiplicity,
                                          rec.error_estimate, cluster_id))

    safe = True
    gap = spectrum.omitted_abs_min
    if math.isfinite(gap):
        tail_floor = (_tail_potential_floor(gap, s, np.abs(h))
                      + math.pi**2 / t**2)
        safe = tail_floor > kth + clustered[-1].error_estimate
    if math.isinf(kth):
        safe = False

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
