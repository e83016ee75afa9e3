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
LAPACK dstebz bisection with Sturm-sequence counts, called in scipy's
compiled LAPACK module, which ``_lapack`` loads from its file without
running the ``scipy.linalg`` package init.  Each solve is repeated
on a half-resolution mesh for a Richardson error estimate, and the returned
eigenvalues are the extrapolated values.
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

_KERNEL_TOL = 1e-10      # absolute eigenvalue tolerance of the bisection
# the least mesh spacing h: dstebz squares the off-diagonal -1/h^2 and
# multiplies neighbouring diagonal entries near 2/h^2, at most 4e300 here;
# from h = 1e-77 on it returned wrong values, and below it failed
_MIN_SPACING = 1e-75
dstebz = flapack().dstebz


def tridiagonal_lowest(diag: np.ndarray, off: np.ndarray, K: int) -> np.ndarray:
    """Lowest K eigenvalues of a symmetric tridiagonal matrix, ascending.

    LAPACK ``dstebz``: Kahan bisection with Sturm-sequence counts (Demmel &
    Kahan 1990), each eigenvalue to absolute tolerance ``_KERNEL_TOL``.  This
    is the one eigenvalue kernel of both branch routes.
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
    count, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, 1, K, _KERNEL_TOL, "E")
    check_info(info, "dstebz")
    return w[:count]


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


def _richardson(raw: Callable, mesh: int) -> SpectrumResult:
    """One Richardson step from ``raw(mesh)`` and ``raw(mesh // 2)``.

    Second-order values on spacings h and r h extrapolate with the correction
    (fine - coarse) / (r^2 - 1); with n and n // 2 interior points on the same
    interval, r = (n + 1) / (n // 2 + 1), slightly below 2.
    """
    fine = raw(mesh)
    ratio = (mesh + 1) / (mesh // 2 + 1)
    correction = (fine - raw(mesh // 2)) / (ratio**2 - 1.0)
    return SpectrumResult(fine + correction, np.abs(correction), mesh)


def _transformed_raw(v: Callable, t: float, K: int, n: int) -> np.ndarray:
    h = t / (n + 1)
    u = h * np.arange(1, n + 1)
    diag = 2.0 / h**2 + np.asarray(v(u), dtype=float)
    off = np.full(n - 1, -1.0 / h**2)
    return tridiagonal_lowest(diag, off, K)


def solve_transformed(problem: TransformedProblem, K: int,
                      mesh: int = 2048) -> SpectrumResult:
    """Lowest K Dirichlet eigenvalues of the normal-form problem.

    Central differences on a uniform grid of ``mesh`` interior points; the
    symmetric tridiagonal system is solved by :func:`tridiagonal_lowest`.  The
    solve is repeated on ``mesh // 2`` interior points and the returned values
    carry one second-order Richardson step, whose size is the error estimate
    (see :func:`_richardson`).  A spacing t / (mesh + 1) below 1e-75, where
    the kernel's squared entries leave float64, raises ``ResolutionError``
    naming t and the mesh before any solve.
    """
    K, mesh = _check_mesh(K, mesh, problem.t)
    return _richardson(lambda n: _transformed_raw(problem.v, problem.t, K, n),
                       mesh)


def _direct_raw(problem: BranchProblem, K: int, n: int) -> np.ndarray:
    t = problem.t
    h = t / (n + 1)
    u = h * np.arange(1, n + 1)
    p, q = problem.coefficients(u)
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
    return tridiagonal_lowest(2.0 / h**2 + q, -np.sqrt(product), K)


def solve_direct(problem: BranchProblem, K: int,
                 mesh: int = 1024) -> SpectrumResult:
    """Lowest K eigenvalues of the direct-form problem (advection kept).

    Central differences on a uniform grid of ``mesh`` interior points give a
    non-symmetric tridiagonal matrix.  When every product of opposite
    off-diagonals is positive (cell Peclet number h|p|/2 < 1 suffices), a
    diagonal similarity makes it symmetric with off-diagonals
    -sqrt(product), and :func:`tridiagonal_lowest` solves it; otherwise
    :class:`DiscretizationFailureError` is raised.  Extrapolation, error
    estimates and the spacing check are as in :func:`solve_transformed`.
    The advection term makes this a discretization independent of the
    Liouville route, so the two serve as oracles for each other.
    """
    K, mesh = _check_mesh(K, mesh, problem.t)
    return _richardson(lambda n: _direct_raw(problem, K, n), mesh)
