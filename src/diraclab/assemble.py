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
taken in ascending mean of V over the cells' points,
mu0^2 mean(s^2) - mu0 mean(sH), so the lower of +mu0 and -mu0 comes first;
the order only sets how soon the loop ends, and no skip rests on it.  One
floor ends it: V >= s^2 x^2 - s |H| x for x = |mu0|, so for nu the smallest
|mu0| of the branch and every later one, the minimum of that over x >= nu,
less how far it can fall between points, bounds V on all of them from
below.  Every Dirichlet eigenvalue lies above it plus pi^2/t^2, so once that
exceeds sigma, none of them can enter the lowest K.  Every branch before
then gets the step potential V- and its step count: the number of
eigenvalues of V- at or below sigma, exact by the Sturm
oscillation theorem as the number of zeros in (0, t] of the solution of
-y'' + (V- - sigma) y = 0 with y(0) = 0, y'(0) = 1.  On a step potential
that solution is sin/cos or sinh/cosh in closed form, cell by cell.  By
min-max no more of the branch's values lie at or below sigma, and the values
above sigma lie above the K-th merged value, so they can add no record.

A finite bound stands in for sigma before the first solve.  The step
potential V+ of a branch mirrors V-: the cell maxima of V plus the same
margin, so V <= V+ on [0, t].  In the N = 16 sine modes
sqrt(2/t) sin(k pi u / t) the Rayleigh-Ritz matrix of -y'' + V+ y is exact
in closed form,

    A_kl = (k pi / t)^2 delta_kl + (W_|k-l| - W_(k+l)) / t,
    W_f  = sum over cells of V+_c times the integral of cos(f pi u / t),

and by min-max its j-th value bounds the j-th eigenvalue of V+, and so of V,
from above (the sine-mode Rayleigh-Ritz enclosures of Plum, ZAMP 41:205,
1990, on Pruess's step device).  Before the loop the first K branches in
order give their lowest min(N, ceil(K / mult)) Ritz values; the K-th of
them, merged with multiplicity, is sigma_R, an upper bound on the K-th
merged eigenvalue, and infinite when they cover fewer than K values.  Each
Ritz value is raised by a rounding allowance, 128 N eps times
(N pi / t)^2 + mu0^2 (max s^2 + max D1) + |mu0| (max |sH| + max D2): LAPACK
``dsyevd`` returns the values of the matrix it is given within a small
multiple of N eps of its norm, at most (N pi / t)^2 + max |V+|; each entry
of A is formed within a few eps of max |V+| (the sines vary by at most 2f
over the cells, and W_f carries 1 / (f pi)), so A within N times that; and
rounding the samples of V shifts V+ by a few eps of the terms mu0^2 s^2 and
|mu0 s H|.  The break and the step counts use min(sigma_R, sigma).  An
exact value that sigma_R reproduces, such as a harmonic value
pi^2 k^2 / t^2, then lies strictly below it, so its step count still
includes it.  The bound is built only when the first branch would be asked
for more than one value, so K = 1 pays nothing.

So one rule sets each request.  A branch of multiplicity mult is asked for
ceil(K / mult) values, the most that can enter the lowest K, and once sigma
or sigma_R is finite for no more than its step count; a branch whose step
count is zero is skipped.  A kernel asked for fewer values polishes from
another hint, or bisects from another interval, so a value may move within
twice its 1e-10 absolute tolerance.
Exact ties across branches, such as +mu0 and -mu0 on a constant profile,
which share one potential, may then merge in another branch order than in a
solve of every branch for all K values; the values and cluster ids are the
same.  A near tie is the one known limit of sigma_R: it bounds the exact
eigenvalues and carries no error estimate, while the merge orders computed
values.  A branch whose exact value lies just above sigma_R is skipped, or
asked for fewer values, even where its computed value, within its estimate,
would fall below the K-th record, and the records then differ from those of
a solve of every branch.  No such case has been found.

The same floor at nu = the first *omitted* |mu|, plus pi^2/t^2, decides
whether a truncated spectrum is safe: it must exceed sigma alone, never
sigma_R.  That sum less sigma is the truncation margin, and an unsafe
truncation raises :class:`TruncationRiskError` naming it.

The maxima of |(s^2)'| and |(sH)'| on a cell are read off its samples.  That
is exact on exponential and constant profiles, where both are monotone on
every cell.  On a spline the largest value on a cell may lie between two
samples, and the margin then misses that excess times delta/2.  A sampled
profile is a spline of order 3 or more (``errors.MIN_SPLINE_ORDER``), so V
and V' are continuous on [0, t] and V moves by at most delta/2 times
max |V'| from the nearest sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._lapack import check_info, flapack
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
# sample indices of each cell, one row per cell; neighbours share an end sample
_CELL_SAMPLES = np.arange(_CELLS)[:, None] * _SPAN + np.arange(_SPAN + 1)
_RITZ_MODES = 16    # sine modes of the Rayleigh-Ritz bound on V+
_RITZ_ROUNDING = 128 * _RITZ_MODES * math.ulp(1.0)
dsyevd = flapack().dsyevd


def _ritz_weights() -> np.ndarray:
    """Row f (0 .. 2N) maps the cell values V_c to W_f / t: the mean of V for
    f = 0, else sum_c V_c (sin(f pi (c + 1) / C) - sin(f pi c / C)) / (f pi)
    on C uniform cells, free of t.  The sine arguments are reduced mod 2 pi
    exactly, as integers f c mod 2C, before the one rounding by pi / C."""
    f = np.arange(1, 2 * _RITZ_MODES + 1)[:, None]
    sines = np.sin(np.pi / _CELLS * ((f * np.arange(_CELLS + 1)) % (2 * _CELLS)))
    return np.vstack([np.full(_CELLS, 1.0 / _CELLS),
                      np.diff(sines, axis=1) / (math.pi * f)])


_RITZ_WEIGHTS = _ritz_weights()
# the mode numbers k, and the indices |k - l| and k + l of W in the Ritz matrix
_MODES = np.arange(1, _RITZ_MODES + 1)
_RITZ_DIFF, _RITZ_SUM = np.abs(_MODES[:, None] - _MODES), _MODES[:, None] + _MODES


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
    closed form and the call refuses, as it does for a t so small that
    pi^2/t^2 overflows float64.
    """
    t = require_positive(t, "t")
    if not spectrum.has_harmonic:
        raise UsageError("bound requires a harmonic transverse entry (mu = 0)")
    if not t**2 > 0.0 or math.isinf(math.pi**2 / t**2):
        raise UsageError(f"pi^2/t^2 at t = {t!r} overflows float64; raise t")
    return math.pi**2 / t**2


def _grid_samples(profile: WarpingProfile, t: float) -> tuple:
    """s^2 and sH at the points of each cell, one row per cell (s =
    rho(0)/rho), the margin rows D1 = max |(s^2)'| reach and
    D2 = max |(sH)'| reach, one column per cell, and the tail floor
    ``floor(nu)``, all from one order-2 jet on the 2049 samples, whose first
    gives rho(0).  A cell's points are its 129 samples (neighbouring cells
    share an end sample), and V falls by at most mu0^2 D1 + |mu0| D2 from
    the nearest, the reach being half their spacing delta.  The floor's
    terms free of nu, |H| / (2s), s |H|, |(s^2)'|, |(sH)'|, -H^2/4,
    |H H'| / 2 and the cap 1e100 / max s, are computed here once; a call
    computes only the terms in nu.  From s' = s H, |(s^2)'| = |2 s^2 H| and
    |(sH)'| = |s H^2 + s H'|, so |V'| <= mu0^2 |(s^2)'| + |mu0| |(sH)'|.
    """
    jet = profile.jet(np.linspace(0.0, t, _SAMPLES), 2)
    reach = t / (_SAMPLES - 1) / 2.0
    s = (jet[0, 0] / jet[0])[_CELL_SAMPLES]
    h = mean_curvature(jet)[_CELL_SAMPLES]
    dh = mean_curvature_prime(jet)[_CELL_SAMPLES]
    s2, habs = s**2, np.abs(h)
    ds2, dsh = np.abs(2.0 * s2 * h), np.abs(s * h**2 + s * dh)
    margin = reach * np.array([d.max(axis=1) for d in (ds2, dsh)])
    vertex, vertex_slope = -(h**2) / 4.0, np.abs(h * dh) / 2.0
    threshold, shabs = habs / (2.0 * s), s * habs
    cap = 1e100 / float(s.max())

    def floor(nu: float) -> float:
        """Proven lower bound of V over [0, t] for any branch with |mu0| >= nu.

        V(u; x) >= s^2 x^2 - s |H| x for x = |mu0|; minimizing the
        quadratic over x >= nu gives the floor f that ends the branch loop
        and decides truncation safety.  Between points f falls by at most
        ``reach`` times |f'|, which is nu^2 |(s^2)'| + nu |(s|H|)'| where
        x = nu is the minimizer and |H H'| / 2 on the vertex branch -H^2/4;
        |(s|H|)'| = |(sH)'|.  The slope is read off the points of each cell,
        as for the branch cells.  A nu above 1e100 / max s is lowered to it,
        so that s^2 nu^2 stays finite: the floor for |mu0| >= 1e100 / max s
        also bounds every |mu0| >= nu.
        """
        nu = min(nu, cap)
        on_nu = nu >= threshold
        low = np.where(on_nu, s2 * nu**2 - shabs * nu, vertex)
        slope = np.where(on_nu, nu**2 * ds2 + nu * dsh, vertex_slope)
        return float(np.min(low.min(axis=1) - reach * slope.max(axis=1)))

    return s2, s * h, margin, floor


def _step_potentials(mu0: float, s2: np.ndarray, sh: np.ndarray,
                     margin: np.ndarray) -> tuple:
    """Step potentials V- <= V(u; mu0) = mu0^2 s^2 - mu0 s H <= V+ of one
    branch, one value per cell: the minimum and the maximum of V over the
    cell's points (``s2`` and ``sh`` hold s^2 and sH there, one row per
    cell), less and plus mu0^2 D1 + |mu0| D2, the rows D1 and D2 of
    ``margin`` bounding how far V can move from the nearest point."""
    v = mu0**2 * s2 - mu0 * sh
    slack = mu0**2 * margin[0] + abs(mu0) * margin[1]
    return v.min(axis=1) - slack, v.max(axis=1) + slack


def _branch_order(mu0: np.ndarray, s2: np.ndarray,
                  sh: np.ndarray) -> np.ndarray:
    """Branch indices in ascending mean of V = mu0^2 s^2 - mu0 s H over the
    cells' points, so the lower of +mu0 and -mu0 comes first.  The order
    only sets how soon the break comes; no skip rests on it."""
    return np.argsort(mu0**2 * s2.mean() - mu0 * sh.mean(), kind="stable")


def _covering(mults, K: int):
    """Index of the first of ``mults`` at which their running sum reaches K,
    or None when all of them together stay below K."""
    return next((i for i, total in enumerate(itertools.accumulate(mults))
                 if total >= K), None)


def _ritz_matrices(upper: np.ndarray, t: float) -> np.ndarray:
    """The N x N Rayleigh-Ritz matrices of -y'' + V+ y in the modes
    sqrt(2/t) sin(k pi u / t), one per row of step values ``upper``:
    A_kl = (k pi / t)^2 delta_kl + (W_|k-l| - W_(k+l)) / t."""
    w = upper @ _RITZ_WEIGHTS.T
    return (w[:, _RITZ_DIFF] - w[:, _RITZ_SUM]
            + np.diag((_MODES * (math.pi / t)) ** 2))


def _ritz_bound(upper: np.ndarray, mults: list, t: float, K: int,
                terms: np.ndarray) -> float:
    """sigma_R: the K-th merged Rayleigh-Ritz upper bound of the branches
    whose step potentials V+ are the rows of ``upper``, each with its
    multiplicity in ``mults``; infinite when they give fewer than K values.

    Each branch gives the lowest min(N, ceil(K / mult)) values of its N x N
    Ritz matrix in the sine modes, each raised by the rounding allowance
    ``_RITZ_ROUNDING`` ((N pi / t)^2 + its entry of ``terms``), the bound
    mu0^2 (max s^2 + max D1) + |mu0| (max |sH| + max D2) on the terms of V
    (see the module docstring).
    """
    kinetic = (_RITZ_MODES * math.pi / t) ** 2
    values = []
    for a, mult, size in zip(_ritz_matrices(upper, t), mults, terms.tolist()):
        ritz, _, info = dsyevd(a, compute_v=0)
        check_info(info, "dsyevd")
        allowance = _RITZ_ROUNDING * (kinetic + size)
        values.extend((value + allowance, mult)
                      for value in ritz[:-(-K // mult)].tolist())
    values.sort()
    i = _covering([mult for _, mult in values], K)
    return math.inf if i is None else values[i][0]


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
    guard).  The bounds on V come from one jet of rho on 2049 samples
    (Pruess's method; see the module docstring):
    :func:`_grid_samples` computes s^2, sH, the derivative margin and the
    tail floor's terms free of nu from it once per call, and each floor
    evaluation computes only the terms in nu.  If s^2, sH or the margin is
    not finite in float64 at some sample (a non-finite s or H' leaves one
    of them non-finite), the call raises ``UsageError`` naming t, and if
    the bound mu0^2 (max s^2 + max D1) + |mu0| (max |sH| + max D2) on |V|
    is not finite for a listed branch, ``UsageError`` naming mu0, before any
    solve.

    When the first branch would be asked for more than one value, sigma_R is
    built before any solve: the K-th merged Rayleigh-Ritz value of the first
    K branches' step potentials V+ >= V in 16 sine modes, each raised by a
    rounding allowance (:func:`_ritz_bound`), an upper bound on the K-th
    merged eigenvalue; otherwise it is infinite.  Branches are taken in
    ascending mean of V (:func:`_branch_order`), with sigma the smaller of
    sigma_R and the K-th merged value plus its error estimate:

    - once the tail floor (``floor`` of :func:`_grid_samples`) at the smallest
      |mu0| of this and every later branch, plus pi^2/t^2, exceeds sigma,
      all of them are skipped;
    - any other branch is asked for ceil(K / mult) values and, once sigma is
      finite, for no more than the number of eigenvalues of its step
      potential V- <= V on 16 cells at or below sigma (:func:`_step_count`,
      an exact Sturm count);
    - a branch whose step count is zero is skipped.

    Truncation safety uses the same floor at the first omitted |mu| and the
    K-th merged value plus its estimate alone.

    The values left out lie above the K-th, so the records equal those of
    solving every branch that is not skipped for all K values; values may
    differ from such a solve within the kernel's 1e-10 absolute tolerance,
    and exactly tied values of different branches may come in another
    branch order.  sigma_R bounds exact eigenvalues, not computed ones, so a
    branch whose exact value lies just above it, within the estimates of
    the K-th value, is left out even where its computed value would enter
    the lowest K; no such near tie has been found.  The merge is
    deterministic, with ties broken by (value, branch_id, branch_index) and
    near-equal values across branches annotated with a shared cluster id.
    """
    m = require_int(m, "dimension m", 2)
    t = require_positive(t, "t")
    K, mesh = _check_mesh(K, mesh, t)
    if abs(t - profile.domain_length) > 1e-12 * max(1.0, abs(t)):
        raise UsageError("t must equal the profile's domain length")

    mu0s, mults = zip(*spectrum.entries)
    mu0 = np.array(mu0s)
    with np.errstate(all="ignore"):      # a non-finite sample raises here
        s2, sh, margin, floor = _grid_samples(profile, t)
        # a non-finite H' leaves the margin non-finite
        if not all(np.isfinite(a).all() for a in (s2, sh, margin)):
            raise UsageError(f"the profile's samples at t = {t} are not finite in float64")
        # |V| on [0, t] is at most the sampled maximum plus the margin
        top = (mu0**2 * (s2.max() + margin[0].max())
               + np.abs(mu0) * (np.abs(sh).max() + margin[1].max()))
        bad = mu0[~np.isfinite(top)]
        if bad.size:
            raise UsageError(f"the potential of the branch mu0 = {float(bad[0])!r} "
                             "is not finite in float64")
    order = _branch_order(mu0, s2, sh).tolist()
    # rest[i]: the smallest |mu0| of the i-th branch in order and all later
    rest = np.minimum.accumulate(np.abs(mu0[order])[::-1])[::-1].tolist()

    # sigma_r: the K-th merged Ritz upper bound of the first K branches, built
    # only when the first branch would be asked for more than one value
    lift, width = math.pi**2 / t**2, t / _CELLS
    sigma_r = math.inf
    if -(-K // mults[order[0]]) > 1:
        first = order[:K]
        upper = [_step_potentials(mu0s[i], s2, sh, margin)[1] for i in first]
        sigma_r = _ritz_bound(np.array(upper), [mults[i] for i in first], t,
                              K, top[first])

    # kept: the lowest merged records, cut to cover K values once they do;
    # sigma: the K-th merged value plus its error estimate (infinite until then)
    kept, sigma = [], math.inf
    solved = 0
    for branch_id, nu in zip(order, rest):
        cut = min(sigma, sigma_r)
        # at most ceil(K / mult) of its values can enter the lowest K
        mult = mults[branch_id]
        count = -(-K // mult)
        if cut < math.inf:
            # every value of this and every later branch, all with
            # |mu0| >= nu, lies above the tail floor plus pi^2/t^2
            if floor(nu) + lift > cut:
                break
            # and at most as many of them as of V- lie at or below cut
            lower = _step_potentials(mu0s[branch_id], s2, sh, margin)[0]
            count = min(count, _step_count(lower.tolist(), width, cut))
            if count == 0:
                continue
        problem = liouville_transform(
            BranchProblem.from_profile(profile, mu0s[branch_id], m=m))
        res = solve_transformed(problem, count, mesh)
        solved += 1
        kept.extend(BranchEigenvalue(
            value=float(val), mu0=mu0s[branch_id], branch_id=branch_id,
            branch_index=j,
            multiplicity=mult, error_estimate=float(err))
            for j, (val, err) in enumerate(zip(res.values, res.error_estimates)))
        kept.sort(key=lambda r: (r.value, r.branch_id, r.branch_index))
        i = _covering([rec.multiplicity for rec in kept], K)
        if i is not None:
            kept, sigma = kept[: i + 1], kept[i].value + kept[i].error_estimate
    skipped = len(order) - solved

    # cluster annotation: runs of values within CLUSTER_TOL share an id
    clustered, cluster_id = [], -1
    for i, rec in enumerate(kept):
        if i == 0 or rec.value - kept[i - 1].value > CLUSTER_TOL:
            cluster_id += 1
        clustered.append(replace(rec, cluster=cluster_id))

    # the truncation margin: the tail floor at the first omitted |mu| plus
    # pi^2/t^2, below every omitted value, less sigma; safe where it is
    # positive, and -inf until the records cover K values
    gap = spectrum.omitted_abs_min
    above = floor(gap) + lift if math.isfinite(gap) else math.inf
    margin = above - sigma if sigma < math.inf else -math.inf
    if not margin > 0 and strict_truncation:
        raise TruncationRiskError(
            f"transverse truncation cannot guarantee the lowest K={K} eigenvalues: "
            f"worst margin tail floor + pi^2/t^2 - sigma = {margin:.3g} at the "
            f"first omitted |mu| >= {gap:.6g}; supply more branches")

    return AssembledSpectrum(records=clustered, count=K, mesh_size=mesh,
                             truncation_safe=margin > 0, branches_solved=solved,
                             branches_skipped=skipped,
                             meta={"t": t, "m": m,
                                   "profile": profile.to_dict(),
                                   "spectrum": spectrum.to_dict()})
