"""One-dimensional Dirichlet eigenvalue solvers for the branch reduction.

Restricted to a fixed transverse branch, the cylinder Dirac-Laplacian becomes
a scalar two-point problem on [0, t]:

    (direct)      -a'' + p a' + (q - lam) a = 0,     a(0) = a(t) = 0,
                  p = (m-1) H,
                  q = mu^2 - mu' + (m-1)/2 H' - (m-1)^2/4 H^2,

and the substitution  abar = (rho / rho(0))^{(m-1)/2} a  removes the
first-order term, leaving the normal form

    (transformed) -abar'' + V abar = lam abar,       V = mu^2 - mu'.

Here mu = mu0 rho(0)/rho is the transverse eigenvalue mu0 carried along the
slices and H = -rho'/rho their mean curvature, so mu' = mu H.  A
:class:`BranchProblem` is plain data, (profile, mu0, m); its coefficients are
computed from one jet of rho per mesh (order 1 for V, order 2 for p and q),
and every solve takes V from :func:`branch_potential`.  With s = rho(0)/rho,
V = mu0^2 s^2 - mu0 s H is quadratic in mu0; ``assemble`` uses that form to
order the branches of a spectrum by two means over the samples and to bound
V below for every branch beyond a given |mu0| by one floor.

A sampled profile is a spline of order 3 or more from the moment it is built
(``errors.MIN_SPLINE_ORDER``), so V and V' are continuous on [0, t] and the
second-order schemes below keep their order, on which the Richardson error
estimate rests.

Both forms have the same spectrum, so each can serve as an oracle for the
other.  The transformed path discretizes with symmetric second-order central
differences; the direct path keeps the advection term, and its non-symmetric
tridiagonal difference matrix is symmetrized by a diagonal similarity, which
exists when every product of opposite off-diagonals is positive (cell Peclet
number h|p|/2 < 1 suffices; otherwise the solve fails with
DiscretizationFailureError).  Both paths then share one kernel,
:func:`tridiagonal_lowest`, in scipy's compiled LAPACK module, which
``_lapack`` loads from its file without running the ``scipy.linalg``
package init.  Each solve is repeated on a half-resolution mesh for a
Richardson error estimate, and the returned eigenvalues are the
extrapolated values.

Each solve first takes one Rayleigh-Ritz hint from the half mesh: the
lowest K pairs of its matrix in 8 or 16 discrete sines sin(k pi u / t).
The hint is the Ritz values and the sine coefficients of the Ritz vectors,
which hold on any mesh of [0, t], and the kernel polishes both meshes from
it, each from the coefficients evaluated on its own mesh: the half mesh at
the Ritz values, the fine mesh at the half mesh's values, moved by their
leading error lam^2 (h_c^2 - h_f^2) / 12.  Each value costs one
tridiagonal solve (dgtsv) for a single step of inverse iteration and the
Rayleigh quotient of its result, returned once a certificate holds, with
one Sturm count per call where dstebz bisection spends about 40 per value.
The certificate bounds each quotient's residual and rounding, places each
value alone in its own ball by that count, and bounds its distance to the
eigenvalue by Temple's inequality, all within the kernel's 1e-10
tolerance; any failure bisects that mesh in the same call.  The hint is
never trusted: a poor one costs a bisection, not a wrong value.  So a
value moves from the bisected one by at most twice that tolerance plus the
few eps ||T|| by which a Sturm count may miss, and each solve still makes
two kernel calls on the same meshes.  K above 8 has no hint, and both
meshes are bisected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._lapack import check_info, flapack
from .errors import (MAX_POINTS, DiscretizationFailureError, ResolutionError,
                     UsageError, is_finite, require_int, require_positive)
from .profiles import (WarpingProfile, mean_curvature, mean_curvature_prime,
                       resolve_m)

__all__ = [
    "BranchProblem", "TransformedProblem", "SpectrumResult",
    "branch_potential", "liouville_transform", "solve_transformed",
    "solve_direct", "tridiagonal_lowest",
]

_KERNEL_TOL = 1e-10      # absolute eigenvalue tolerance of the kernel
# the least mesh spacing h: dstebz squares the off-diagonal -1/h^2 and
# multiplies neighbouring diagonal entries near 2/h^2, at most 4e300 here;
# from h = 1e-77 on it returned wrong values, and below it failed
_MIN_SPACING = 1e-75
_EPS = float(np.finfo(float).eps)
# a Sturm count is exact for the matrix with entries moved by a few eps
# relative (Demmel & Kahan 1990), so it may place an eigenvalue up to
# _STURM_SLACK * eps * ||T|| from where it is
_STURM_SLACK = 4.0
# N, the discrete sines of a solve's Ritz hint: the first that is at least 2K
# (8 sines cost half of 16 in a K = 1 solve, and certify as well)
_RITZ_MODES = (8, 16)
dgtsv = flapack().dgtsv
dstebz = flapack().dstebz
dsyevd = flapack().dsyevd


def tridiagonal_lowest(diag: np.ndarray, off: np.ndarray, K: int,
                       hint: Optional[tuple] = None) -> np.ndarray:
    """Lowest K eigenvalues of a symmetric tridiagonal matrix, ascending.

    LAPACK ``dstebz``: Kahan bisection with Sturm-sequence counts (Demmel &
    Kahan 1990), each eigenvalue to absolute tolerance ``_KERNEL_TOL``.  This
    is the one eigenvalue kernel of both branch routes.

    ``hint``, a pair (shifts, starts) of K strictly ascending finite guesses
    of the values and K start vectors of the matrix's size, one per row,
    asks for the values to be polished instead (see :func:`_polish`): one
    step of inverse iteration per value, a ``dgtsv`` solve of
    (T - shift_j) x = start_j, and the Rayleigh quotients of the results,
    returned once a certificate places each within ``_KERNEL_TOL`` of its
    eigenvalue.  A hint of the wrong shape, not finite, out of order or too
    far off for the certificate falls back to the bisection above in the
    same call, so a polished value differs from the bisected one by at most
    2 ``_KERNEL_TOL`` plus the ``_STURM_SLACK`` eps ||T|| that bisection's
    own counts may miss by.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or d.size < 1 or e.size != d.size - 1:
        raise ValueError("need 1-D diag and off with len(off) == len(diag) - 1")
    if not 1 <= K <= d.size:
        raise ValueError("K out of range")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("diagonal and off-diagonal must be finite")
    if d.size == 1:
        return d.copy()    # the LAPACK wrapper refuses an empty off-diagonal
    if hint is not None:
        with np.errstate(all="ignore"):    # a failed step reads as no value
            polished = _polish(d, e, K, hint)
        if polished is not None:
            return polished
    count, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, 1, K, _KERNEL_TOL, "E")
    check_info(info, "dstebz")
    return w[:count]


def _two_sum(a, b):
    """s = fl(a + b) and the error a + b - s, exactly (Knuth)."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _tree_sum(x: np.ndarray) -> np.ndarray:
    """Sums of ``x`` along its last axis by pairwise halving, so that each
    entry of a row of n carries at most L = (n - 1).bit_length() roundings,
    where a running sum carries n - 1.

    The rows are zero-padded to 2^L, the least power of two at or above n,
    and halved L times, entry i of the first half taking entry i of the
    second.  So every entry reaches the sum through exactly L additions, a
    binary tree of depth L over the padded row.  The sum of a subtree that
    holds padding only is an exact zero, and adding an exact zero is exact,
    so every addition that rounds joins two subtrees that each hold an
    entry of the row; an entry lies under L additions, so it carries at
    most L roundings, as in the tree without padding, and the bound
    |fl(sum) - sum| <= L u / (1 - L u) sum |x_i| (u = eps / 2) holds.
    """
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    width = 1 << (n - 1).bit_length()
    padded = np.zeros((width, len(rows)))
    padded[:n] = rows.T
    while width > 1:       # halving along the first axis is the fastest
        width //= 2
        padded[:width] += padded[width:2 * width]
    return padded[0].reshape(x.shape[:-1])


def _polish(d: np.ndarray, e: np.ndarray, K: int,
            hint: tuple) -> Optional[np.ndarray]:
    """Certified Rayleigh quotients of one step of inverse iteration from
    the hint (shifts, starts), or None when any check fails.

    The vectors z_j solve (T - shift_j) z_j = start_j by ``dgtsv``
    (Gaussian elimination with partial pivoting), and every step after it
    is exact or bounded:

    - theta_j = z'Tz / z'z in the difference form
      sum (d_i + e_{i-1} + e_i) z_i^2 - sum e_i (z_{i+1} - z_i)^2, whose
      terms do not cancel against 2/h^2; the row sums are exact to one
      rounding (two error-free sums), and the sums run by
      :func:`_tree_sum`, so theta_j is off the exact quotient by at most
      ``slip``;
    - r_j, the residual ||T z_j - theta_j z_j|| / ||z_j|| plus the rounding
      of its terms, bounds the distance from theta_j to an eigenvalue, so
      each ball [theta_j - r_j, theta_j + r_j] holds one;
    - the balls are disjoint and ascending, and one ``dstebz`` count finds
      exactly K eigenvalues at or below top = theta_K + (theta_K -
      theta_{K-1}) / 2 (theta_0 the Gershgorin floor) with the last ball
      below top less the count's slack; so ball j holds lambda_j alone;
    - Temple's inequality (Temple 1928; Kato 1949) with the neighbouring
      ball edges alpha and beta (beta = top less the slack for the last)
      puts lambda_j within r_j^2 / (min(theta_j - alpha, beta - theta_j) -
      r_j) of the exact quotient, at most _KERNEL_TOL / 2; ``slip`` is at
      most _KERNEL_TOL / 2 as well.

    Each value takes exactly one solve, and no check is retried: a hint too
    far off for Temple's bound fails as any other does.  Nothing here
    trusts the hint: a poor one costs a failed certificate, never a wrong
    value.
    """
    n = d.size
    shifts, starts = (np.asarray(part, dtype=float) for part in hint)
    if (shifts.shape != (K,) or starts.shape != (K, n)
            or not (np.isfinite(shifts).all()
                    and np.all(shifts[1:] > shifts[:-1]))):
        return None
    row, carry = d.copy(), np.zeros(n)
    row[1:], carry[1:] = _two_sum(d[1:], e)
    row[:-1], carry_2 = _two_sum(row[:-1], e)
    carry[:-1] += carry_2
    row += carry
    abs_e = np.abs(e)
    spread = np.zeros(n)
    spread[1:] = abs_e
    spread[:-1] += abs_e
    norm = float(np.max(np.abs(d) + spread))
    floor = float(np.min(d - spread))
    bottom = floor - norm - 1.0    # below every eigenvalue
    z = np.empty((K, n))    # one vector per row
    for j in range(K):
        _, _, _, z[j], info = dgtsv(e, d - shifts[j], e, starts[j], overwrite_d=1)
        if info != 0:
            return None
    terms = np.empty((3, K, n))
    sq = np.multiply(z, z, out=terms[0])
    np.multiply(sq, row, out=terms[1])
    step = z[:, 1:] - z[:, :-1]
    jumps = step * step
    np.multiply(jumps, e, out=terms[2, :, :-1])
    terms[2, :, -1] = 0.0
    length, quadratic, kinetic = _tree_sum(terms)
    theta = (quadratic - kinetic) / length
    # each term carries 3 roundings, each tree sum (n - 1).bit_length() and
    # their difference 1; eps = 2u doubles that first-order bound, which
    # also covers the rounding of the magnitude sum and of the last carry of
    # the error-free row sums
    magnitude = sq @ np.abs(row) + jumps @ abs_e
    slip = ((n - 1).bit_length() + 4) * _EPS * (magnitude / length + np.abs(theta))
    slip += _EPS**2 * norm
    if not np.all(slip <= 0.5 * _KERNEL_TOL):
        return None
    # T z - theta z carries 5 roundings per entry, each of at most
    # (|d_i| + |e_{i-1}| + |e_i| + |theta|) |z| in size
    residual = (d - theta[:, None]) * z
    residual[:, :-1] += e * z[:, 1:]
    residual[:, 1:] += e * z[:, :-1]
    r = (np.sqrt(np.einsum("ij,ij->i", residual, residual) / length
                 * (1.0 + (n + 4) * _EPS))
         + 3.0 * _EPS * (norm + np.abs(theta)))
    top = theta[-1] + 0.5 * (theta[-1] - (theta[-2] if K > 1 else floor))
    ceiling = top - _STURM_SLACK * _EPS * norm
    alpha = np.append(-np.inf, theta[:-1] + r[:-1])
    beta = np.append(theta[1:] - r[1:], ceiling)
    # dstebz prints a complaint about vu <= vl, so it never sees one
    if not (np.all(theta + r < beta) and bottom < top < np.inf):
        return None
    # a count by value (range 1) over (bottom, top]; a tolerance wider than
    # the interval stops its bisection at once
    count, _, _, _, info = dstebz(d, e, 1, bottom, top, 0, 0, top - bottom, "E")
    if info != 0 or count != K:
        return None
    temple = r**2 / (np.minimum(theta - alpha, beta - theta) - r)
    return theta if np.all(temple <= 0.5 * _KERNEL_TOL) else None


# ---------------------------------------------------------------------------
# problem descriptions
# ---------------------------------------------------------------------------

def branch_potential(mu0: float, rho0: float, rho, h):
    """Normal-form potential V = mu^2 - mu' of the branch of mu0, where
    mu = mu0 rho(0)/rho and mu' = mu H, from rho and H on the same points."""
    mu = mu0 * rho0 / rho
    return mu**2 - mu * h


@dataclass
class BranchProblem:
    """The branch of transverse eigenvalue ``mu0`` over ``profile`` in
    dimension ``m``: the direct-form problem on [0, t], t the profile's
    domain length, with Dirichlet ends.

    Every coefficient comes from one jet of rho per call: order 1 for the
    potential V, order 2 for the direct-form p and q.  A ``mu0`` that is
    not a finite number (a bool, a string, NaN, an infinity or an integer
    beyond the float range) raises ``UsageError`` before rho is evaluated.
    """

    profile: WarpingProfile
    mu0: float
    m: int
    t: float = field(init=False)
    rho0: float = field(init=False)

    def __post_init__(self):
        if not is_finite(self.mu0):
            raise UsageError(f"mu0 must be a finite number, not {self.mu0!r}")
        self.mu0 = float(self.mu0)
        self.m = require_int(self.m, "dimension m", 2)
        self.t = self.profile.domain_length
        self.rho0 = float(self.profile.rho(0.0))

    @classmethod
    def from_profile(cls, profile: WarpingProfile, mu0: float,
                     m: Optional[int] = None) -> "BranchProblem":
        return cls(profile, mu0, resolve_m(profile, m))

    def potential(self, u):
        """V = mu^2 - mu' at u."""
        rho = self.profile.jet(u, 1)
        return branch_potential(self.mu0, self.rho0, rho[0], mean_curvature(rho))

    def coefficients(self, u):
        """Direct-form coefficients p = (m-1) H and
        q = V + (m-1)/2 H' - (m-1)^2/4 H^2 at u."""
        rho = self.profile.jet(u, 2)
        h = mean_curvature(rho)
        v = branch_potential(self.mu0, self.rho0, rho[0], h)
        q = (v + 0.5 * (self.m - 1) * mean_curvature_prime(rho)
             - 0.25 * (self.m - 1) ** 2 * h**2)
        return (self.m - 1) * h, q


@dataclass
class TransformedProblem:
    """Normal-form problem -abar'' + V abar = lam abar on [0, t], Dirichlet;
    ``v`` is the potential, vectorized in u."""

    t: float
    v: Callable

    def __post_init__(self):
        self.t = require_positive(self.t, "interval length t")


def liouville_transform(problem: BranchProblem) -> TransformedProblem:
    """Reduce a branch problem to normal form, V = mu^2 - mu'.

    The substitution abar = (rho/rho(0))^{(m-1)/2} a removes the first-order
    term; the spectrum is unchanged, so only t and V are kept.
    """
    return TransformedProblem(t=problem.t, v=problem.potential)


# ---------------------------------------------------------------------------
# results and solvers
# ---------------------------------------------------------------------------

@dataclass
class SpectrumResult:
    """Ascending eigenvalues with per-eigenvalue Richardson error estimates."""

    values: np.ndarray
    error_estimates: np.ndarray
    mesh_size: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.error_estimates = np.asarray(self.error_estimates, dtype=float)


def _mesh_limit(mesh: int) -> int:
    """The most values a mesh of ``mesh`` interior points supports: two
    fewer than the interior points of its coarse half mesh."""
    return mesh // 2 - 2


def _check_mesh(K: int, mesh: int, t: float) -> tuple:
    """(K, mesh) as ints, once the coarse half mesh supports K values and
    the spacing t / (mesh + 1) on [0, t] is at least ``_MIN_SPACING``."""
    K = require_int(K, "K", 1)
    mesh = require_int(mesh, "mesh (interior points)", 64, ResolutionError,
                       MAX_POINTS)
    limit = _mesh_limit(mesh)
    if K > limit:
        raise ResolutionError(f"K={K} exceeds what a mesh of {mesh} interior "
                              f"points supports (limit {limit})")
    if t / (mesh + 1) < _MIN_SPACING:
        raise ResolutionError(
            f"t = {t!r} is too short for a mesh of {mesh} interior points: "
            f"their spacing {t / (mesh + 1):.3g} lies below {_MIN_SPACING:g}, "
            "where the kernel's squared matrix entries leave float64")
    return K, mesh


def _sines(n: int, modes: int) -> np.ndarray:
    """Row k - 1 holds sin(pi k i / (n + 1)) at i = 1 .. n for k = 1 ..
    ``modes``, by the recurrence sin((k + 1) a) = 2 cos(a) sin(k a) - sin((k - 1) a)."""
    angle = np.arange(1, n + 1) * (np.pi / (n + 1))
    twice_cos = 2.0 * np.cos(angle)
    sines = np.empty((modes, n))
    np.sin(angle, out=sines[0])
    np.multiply(twice_cos, sines[0], out=sines[1])
    for k in range(2, modes):
        np.multiply(twice_cos, sines[k - 1], out=sines[k])
        sines[k] -= sines[k - 2]
    return sines


def _ritz_hint(d: np.ndarray, e: np.ndarray, K: int) -> Optional[tuple]:
    """(values, starts, coefficients): the lowest K Rayleigh-Ritz pairs of
    the tridiagonal T = (d, e) of size n in the span of N discrete sines,
    with N the first of ``_RITZ_MODES`` that is at least 2K.  Each Ritz
    vector is given twice, one per row: as its N sine coefficients, which
    hold on any mesh, and as ``starts``, those coefficients evaluated on
    this one.  None when K exceeds half of every N or n < 2N, where the span
    resolves too few values, or when the small problem overflows or fails.

    The rows of :func:`_sines` sample sin(k pi u / t) on the mesh of any
    [0, t], and they are orthogonal with squared norms (n + 1) / 2, so the
    Ritz values are those of S T S' scaled by 2 / (n + 1), found by LAPACK
    ``dsyevd``.  The pairs serve only as a hint, which the kernel checks.
    """
    n = d.size
    modes = next((N for N in _RITZ_MODES if 2 * K <= N), None)
    if modes is None or n < 2 * modes:
        return None
    sines = _sines(n, modes)
    with np.errstate(all="ignore"):    # entries that overflow give no hint
        cross = (sines[:, :-1] * e) @ sines[:, 1:].T
        small = (sines * d) @ sines.T + cross + cross.T
    if not np.isfinite(small).all():
        return None
    values, vectors, info = dsyevd(small)
    if info != 0:
        return None
    coefficients = vectors[:, :K].T
    return values[:K] * (2.0 / (n + 1)), coefficients @ sines, coefficients


def _richardson(matrix: Callable, K: int, mesh: int, t: float) -> SpectrumResult:
    """One Richardson step from the lowest K values of ``matrix(mesh)`` and
    ``matrix(mesh // 2)``, both on [0, t].

    Second-order values on spacings h and r h extrapolate with the correction
    (fine - coarse) / (r^2 - 1); with n and n // 2 interior points on the same
    interval, r = (n + 1) / (n // 2 + 1), slightly below 2.  Both kernel
    calls take their hint (see :func:`tridiagonal_lowest`) from one Ritz
    hint of the coarse matrix (:func:`_ritz_hint`): the coarse call its Ritz
    values and vectors, the fine call the coarse values, less their leading
    error lam^2 h^2 / 12 on each mesh, and the same sine coefficients
    evaluated on the fine mesh.  Without a Ritz hint both meshes are
    bisected.
    """
    fine_matrix = matrix(mesh)
    coarse_matrix = matrix(mesh // 2)
    ritz = _ritz_hint(*coarse_matrix, K)
    hint = None if ritz is None else ritz[:2]
    coarse = tridiagonal_lowest(*coarse_matrix, K, hint)
    ratio = (mesh + 1) / (mesh // 2 + 1)
    if ritz is not None:
        coefficients = ritz[2]
        shift = (t / (mesh + 1)) ** 2 * (ratio**2 - 1.0) / 12.0
        with np.errstate(over="ignore"):    # an infinite guess falls back
            hint = (coarse + coarse * (coarse * shift),
                    coefficients @ _sines(mesh, coefficients.shape[1]))
    fine = tridiagonal_lowest(*fine_matrix, K, hint)
    correction = (fine - coarse) / (ratio**2 - 1.0)
    return SpectrumResult(fine + correction, np.abs(correction), mesh)


def _require_samples(t: float, u: np.ndarray, **samples) -> None:
    """Refuse each named sample at the interior points u of a mesh of [0, t]
    unless it gives one finite value per point: ``UsageError`` naming it,
    t, the mesh and its first bad point."""
    where = f"the mesh of {u.size} interior points of [0, {t!r}]"
    for name, sample in samples.items():
        if sample.shape != u.shape:
            raise UsageError(f"{name} must give one value per point of "
                             f"{where}, not an array of shape {sample.shape}")
        finite = np.isfinite(sample)
        if not finite.all():
            raise UsageError(f"{name} is not finite in float64 at u = "
                             f"{float(u[np.argmin(finite)])!r} on {where}")


def _transformed_matrix(v: Callable, t: float, n: int) -> tuple:
    h = t / (n + 1)
    u = h * np.arange(1, n + 1)
    with np.errstate(all="ignore"):    # a non-finite potential is refused
        potential = np.asarray(v(u), dtype=float)
    _require_samples(t, u, V=potential)
    return 2.0 / h**2 + potential, np.full(n - 1, -1.0 / h**2)


def solve_transformed(problem: TransformedProblem, K: int,
                      mesh: int = 2048) -> SpectrumResult:
    """Lowest K Dirichlet eigenvalues of the normal-form problem.

    Central differences on a uniform grid of ``mesh`` interior points; the
    symmetric tridiagonal system is solved by :func:`tridiagonal_lowest`.  The
    solve is repeated on ``mesh // 2`` interior points and the returned values
    carry one second-order Richardson step, whose size is the error estimate
    (see :func:`_richardson`).  A spacing t / (mesh + 1) below 1e-75, where
    the kernel's squared entries leave float64, raises ``ResolutionError``
    naming t and the mesh before any solve, and a potential that is not one
    finite value per mesh point ``UsageError`` naming the first such point.
    """
    K, mesh = _check_mesh(K, mesh, problem.t)
    return _richardson(lambda n: _transformed_matrix(problem.v, problem.t, n),
                       K, mesh, problem.t)


def _direct_matrix(problem: BranchProblem, n: int) -> tuple:
    t = problem.t
    h = t / (n + 1)
    u = h * np.arange(1, n + 1)
    with np.errstate(all="ignore"):    # non-finite coefficients are refused
        p, q = problem.coefficients(u)
    _require_samples(t, u, p=p, q=q)
    upper = -1.0 / h**2 + p[:-1] / (2.0 * h)
    lower = -1.0 / h**2 - p[1:] / (2.0 * h)
    product = upper * lower
    if not np.all(product > 0.0):
        peclet = 0.5 * h * float(np.max(np.abs(p)))
        raise DiscretizationFailureError(
            f"direct discretization on {n} points is not symmetrizable: "
            f"cell Peclet number h|p|/2 reaches {peclet:.3g} (needs < 1); "
            "refine the mesh")
    # a diagonal similarity maps the advective matrix to the symmetric one
    # with off-diagonals -sqrt(upper * lower); the spectrum is unchanged
    return 2.0 / h**2 + q, -np.sqrt(product)


def solve_direct(problem: BranchProblem, K: int,
                 mesh: int = 1024) -> SpectrumResult:
    """Lowest K eigenvalues of the direct-form problem (advection kept).

    Central differences on a uniform grid of ``mesh`` interior points give a
    non-symmetric tridiagonal matrix.  When every product of opposite
    off-diagonals is positive (cell Peclet number h|p|/2 < 1 suffices), a
    diagonal similarity makes it symmetric with off-diagonals
    -sqrt(product), and :func:`tridiagonal_lowest` solves it; otherwise
    :class:`DiscretizationFailureError` is raised.  Extrapolation, error
    estimates and the checks of the spacing and of the samples (here p and
    q) are as in :func:`solve_transformed`.
    The advection term makes this a discretization independent of the
    Liouville route, so the two serve as oracles for each other.
    """
    K, mesh = _check_mesh(K, mesh, problem.t)
    return _richardson(lambda n: _direct_matrix(problem, n), K, mesh,
                       problem.t)
