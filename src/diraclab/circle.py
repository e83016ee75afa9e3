"""The circle Dirac model: exact spectra, energy-momentum, metric variation.

On S^1 with metric g = f(theta)^2 dtheta^2 and spin twist delta in {0, 1/2}
the Dirac operator in arclength is i d/ds with holonomy e^{2 pi i delta}, so
the spectrum is exactly {2 pi (n + delta) / L} with L = integral of f, and
the unit eigensections are psi_n = e^{-i lambda_n s} / sqrt(L).  Every
variational statement therefore has a closed form to test against:

* the energy-momentum tensor W(X, Y) = 1/2 Re <gamma(X) nabla_Y psi
  + gamma(Y) nabla_X psi, psi> reduces to W(d_theta, d_theta) = lambda f^2 / L,
* its trace satisfies Tr_g W = lambda |psi|^2,
* the first variation of an eigenvalue along a symmetric perturbation k is
  d lambda/dt = -1/2 integral Tr(k W) dvol,
* and one step of the eigenvalue-annihilation flow g <- g + t0 k(g) with
  k = C W / ||W||_{L^2}^2, C = ||W||_{L^2}^2 / ||W||_{L^inf}, t0 = 2 lambda0 / C
  triples the metric, dividing lambda0 by sqrt(3).

Grid quantities (energy-momentum, trace defects) use twisted central
differences and converge at second order; the flow and the finite-difference
derivative of the eigenvalue use the exact arclength formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (MAX_POINTS, MAX_TERMS, DiscretizationFailureError,
                     FlowStuckError, UsageError, is_finite, number_array,
                     require_int, require_list, require_positive)
from .transverse import _circle_eigenvalues, _oracle_count, _oracle_halves, require_twist
from .util import cumulative_trapezoid_uniform, periodic_trapezoid

__all__ = [
    "CircleDiracModel", "circle_eigenpairs",
    "energy_momentum", "trace_identity_check", "bg_first_variation",
    "scaling_check", "annihilation_flow", "FlowTrace",
]


class CircleDiracModel:
    """Circle of parameter theta in [0, 2 pi) with metric f^2 dtheta^2.

    ``f`` may be a positive callable or an array of N grid samples; the grid
    is uniform with the endpoint excluded.  delta is the spin twist: 0 admits
    the harmonic (constant) spinor, 1/2 is the antiperiodic structure.
    """

    def __init__(self, f, delta: float, n: int = 2048):
        self.delta = require_twist(delta)
        self.n = require_int(n, "grid size", 16, maximum=MAX_POINTS)
        self.theta = np.linspace(0.0, 2.0 * math.pi, self.n, endpoint=False)
        self.dtheta = 2.0 * math.pi / self.n
        fv = _samples(f(self.theta) if callable(f) else f, "f")
        if fv.shape != self.theta.shape:
            raise UsageError("f samples must match the grid size")
        if not np.all(np.isfinite(fv)):
            raise UsageError("the metric component f must be finite")
        if np.any(fv <= 0.0):
            raise UsageError("the metric component f must be positive; for a "
                             "drawn density, lower f_scale or raise f_offset")
        self.f = fv
        self.length = _length(fv)
        # arclength at the nodes (trapezoid antiderivative of f)
        self.s = cumulative_trapezoid_uniform(
            np.concatenate([fv, fv[:1]]), self.dtheta)[:-1]

    def mode(self, j: int) -> int:
        """Index n of the j-th mode in the order (|lambda|, -lambda), so the
        positive member of each +-pair comes first: with k = (j + 1) // 2,
        n = k if (j is odd) == (delta = 0), else n = -k."""
        j = require_int(j, "mode j", 0, maximum=MAX_TERMS - 1)
        k = (j + 1) // 2
        return k if (j % 2 == 1) == (self.delta == 0.0) else -k

    def eigenvalue(self, n: int) -> float:
        n = require_int(n, "mode n", None)
        return _circle_eigenvalues(self.length, self.delta, n)

    def eigensection(self, n: int) -> np.ndarray:
        return np.exp(-1j * self.eigenvalue(n) * self.s) / math.sqrt(self.length)

    def perturbed_length(self, kappa_vals: np.ndarray, t: float) -> float:
        """Length of the metric (f^2 + t kappa) dtheta^2 on the same grid, the
        periodic trapezoid of its sqrt, as a model of that metric would
        measure it; the metric must be finite and positive."""
        if not is_finite(t):
            raise UsageError(f"t must be a finite number, not {t!r}")
        with np.errstate(over="ignore"):     # an overflow is refused below
            g2 = self.f**2 + float(t) * _samples(kappa_vals, "kappa")
        if not np.all(np.isfinite(g2)):
            raise UsageError("perturbed metric is not finite")
        if np.any(g2 <= 0.0):
            raise UsageError("perturbed metric is not positive definite")
        return _length(np.sqrt(g2))


def _samples(values, name: str, dtype=float) -> np.ndarray:
    """Grid samples as an array of ``dtype``; samples that are not numbers
    (a string, even "1", a bool, or an integer beyond the float range) raise
    UsageError (see ``errors.number_array``)."""
    try:
        return number_array(values, dtype)
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"{name} samples must be numbers") from None


def _length(f: np.ndarray) -> float:
    """The circle length, the periodic trapezoid of f; an overflow raises."""
    with np.errstate(over="ignore"):     # an overflow is refused below
        length = periodic_trapezoid(f, 2.0 * math.pi)
    if not math.isfinite(length):
        raise UsageError(f"circle length {length} is not finite")
    return length


def circle_eigenpairs(model: CircleDiracModel, count: int,
                      cross_check: bool = False):
    """Eigenpairs (lambda array, psi matrix) of the ``count`` lowest modes.

    Eigenvalues come from the arclength closed form.  With ``cross_check`` the
    values are verified against the finite-difference circle oracle at the
    model's own resolution (second-order tolerance) before returning: each
    lambda must have an oracle eigenvalue in [lambda - tol, lambda + tol], as
    counted by ``transverse._oracle_count``.
    """
    lams = _circle_eigenvalues(model.length, model.delta, _modes(model, count))
    psis = np.exp(np.outer(-1j * lams, model.s)) / math.sqrt(model.length)
    if cross_check:
        n_grid = model.n + model.n % 2
        h = model.length / n_grid
        halves = _oracle_halves(model.length, model.delta, n_grid)
        for lam in lams:
            tol = (abs(lam) ** 3 / 6.0 + 1.0) * h**2 * 5.0 + 1e-9
            # the count is of (lo, hi]; lo one ulp below lam - tol closes it
            if not _oracle_count(halves, np.nextafter(lam - tol, -np.inf),
                                 lam + tol):
                raise DiscretizationFailureError(
                    f"closed-form eigenvalue {lam} not reproduced by the "
                    f"difference oracle within {tol:.3g}")
    return lams, psis


def _modes(model: CircleDiracModel, count: int) -> np.ndarray:
    """Indices n of the model's ``count`` lowest modes, in mode order."""
    count = require_int(count, "mode count", 1, maximum=MAX_TERMS)
    return np.array([model.mode(j) for j in range(count)])


def energy_momentum(model: CircleDiracModel, psi: np.ndarray,
                    lam: float) -> np.ndarray:
    """W(d_theta, d_theta) of an eigensection on the model grid, as an array.

    W(d_theta, d_theta) = Re < gamma(d_theta) nabla_{d_theta} psi, psi > with
    gamma(d_theta) = i f; the theta-derivative is a central difference with
    the seam twisted by the eigensection's holonomy e^{-i lambda L}.  A global
    phase on psi drops out.  In dimension one the trace is
    Tr_g W = W(d_theta, d_theta) / f^2.  ``lam`` must be a finite number.
    """
    psi = _samples(psi, "eigensection", complex)
    if psi.shape != (model.n,):
        raise UsageError("eigensection must be sampled on the model grid")
    if not is_finite(lam):
        raise UsageError(f"the eigenvalue must be a finite number, not {lam!r}")
    lam = float(lam)
    wrap = np.exp(-1j * lam * model.length)
    plus = np.roll(psi, -1)
    plus[-1] = psi[0] * wrap
    minus = np.roll(psi, 1)
    minus[0] = psi[-1] / wrap
    dpsi = (plus - minus) / (2.0 * model.dtheta)
    return np.real(1j * model.f * dpsi * np.conj(psi))


def trace_identity_check(model: CircleDiracModel, j: int = 0) -> dict:
    """Max defect of Tr_g W_psi = lambda |psi|^2 for the j-th mode.

    The defect is pure discretization error of the twisted central difference
    and decays like N^-2.
    """
    n = model.mode(j)                    # mode() checks j
    lam = model.eigenvalue(n)
    psi = model.eigensection(n)
    w = energy_momentum(model, psi, lam)
    defect = np.max(np.abs(w / model.f**2 - lam * np.abs(psi) ** 2))
    return {"defect": float(defect), "lambda": lam, "n_grid": model.n, "mode": int(j)}


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------

@dataclass
class VariationResult:
    formula_value: float
    fd_value: float
    lam: float
    mode: int
    h_fd: float

    @property
    def defect(self) -> float:
        return abs(self.formula_value - self.fd_value)

    def to_dict(self) -> dict:
        return {"formula_value": self.formula_value, "fd_value": self.fd_value,
                "lambda": self.lam, "mode": self.mode, "h_fd": self.h_fd,
                "defect": self.defect}


def bg_first_variation(model: CircleDiracModel, kappa, j: int,
                       h_fd: float = 1e-4) -> VariationResult:
    """First variation of lambda_j along the perturbation k = kappa dtheta^2.

    Evaluates the variational formula  -1/2 integral Tr(k W) dvol  with the
    grid energy-momentum tensor, and independently the central difference of
    the exact eigenvalue of the metric family f^2 + t kappa.  In the frame
    e = f^{-1} d_theta the integrand is kappa W(d_theta, d_theta) / f^3.
    """
    kv = _samples(kappa(model.theta) if callable(kappa) else kappa, "kappa")
    if kv.shape != model.theta.shape:
        raise UsageError("kappa must be sampled on the model grid")
    n = model.mode(j)                    # mode() checks j
    h_fd = require_positive(h_fd, "finite-difference step h_fd")
    lam = model.eigenvalue(n)
    psi = model.eigensection(n)
    w = energy_momentum(model, psi, lam)
    formula = -0.5 * periodic_trapezoid(kv * w / model.f**3, 2.0 * math.pi)

    # the exact eigenvalue of each perturbed metric, from its length
    lam_plus, lam_minus = (_circle_eigenvalues(model.perturbed_length(kv, h),
                                               model.delta, n)
                           for h in (+h_fd, -h_fd))
    fd = (lam_plus - lam_minus) / (2.0 * h_fd)
    return VariationResult(formula_value=float(formula), fd_value=float(fd),
                           lam=lam, mode=int(j), h_fd=h_fd)


def scaling_check(model: CircleDiracModel, factors, count: int = 5) -> dict:
    """Homothety law of the spectrum: lambda_j(c g) * sqrt(c) = lambda_j(g).

    Some sources print the law with the exponent on the other side
    (lambda_j(t g) = sqrt(t) lambda_j(g)); the report records both directions
    and flags that the printed variant fails the model.
    """
    ns = _modes(model, count)
    base = _circle_eigenvalues(model.length, model.delta, ns)
    max_defect = printed_defect = 0.0
    factors = [require_positive(c, "scaling factor")
               for c in require_list(factors, "scaling factors")]
    for c in factors:
        lam_c = _circle_eigenvalues(_length(model.f * math.sqrt(c)), model.delta, ns)
        max_defect = max(max_defect, float(np.max(np.abs(lam_c * math.sqrt(c) - base))))
        printed_defect = max(printed_defect,
                             float(np.max(np.abs(lam_c - math.sqrt(c) * base))))
    return {
        "factors": factors,
        "verified_law": "lambda_j(c*g) * sqrt(c) = lambda_j(g)",
        "max_defect": max_defect,
        "printed_claim": "lambda_j(t*g) = sqrt(t) * lambda_j(g)",
        "printed_claim_defect": printed_defect,
        "printed_claim_holds": bool(printed_defect <= 1e-10),
    }


# ---------------------------------------------------------------------------
# eigenvalue annihilation flow
# ---------------------------------------------------------------------------

@dataclass
class FlowStep:
    step: int
    lambda0: float
    length: float
    t0: float
    c: float


@dataclass
class FlowTrace:
    steps: list
    final_lambda0: float
    final_length: float
    stop_reason: str

    @cached_property
    def _worst(self) -> tuple:
        """(fall, i): the smallest lambda0(step i) - lambda0(step i + 1), and
        infinity without a step.  The flow is monotone where it is positive."""
        lams = [s.lambda0 for s in self.steps] + [self.final_lambda0]
        return min(((a - b, i) for i, (a, b) in enumerate(zip(lams, lams[1:]))),
                   default=(math.inf, 0))

    monotone = property(lambda self: self._worst[0] > 0)

    def lambda_ratios(self) -> np.ndarray:
        lams = np.array([s.lambda0 for s in self.steps] + [self.final_lambda0])
        return lams[1:] / lams[:-1]

    def to_rows(self):
        header = ["step", "lambda0", "length", "t0", "C"]
        rows = [[s.step, s.lambda0, s.length, s.t0, s.c] for s in self.steps]
        return header, rows

    def to_dict(self) -> dict:
        return {
            "steps": [{"step": s.step, "lambda0": s.lambda0, "length": s.length,
                       "t0": s.t0, "C": s.c} for s in self.steps],
            "final_lambda0": self.final_lambda0,
            "final_length": self.final_length,
            "monotone": self.monotone,
            "stop_reason": self.stop_reason,
        }


def annihilation_flow(model: CircleDiracModel, max_steps: int = 10,
                      epsilon: float = 1e-12) -> FlowTrace:
    """Iterate g <- g + t0(g) k(g) until lambda0 < epsilon or max_steps.

    lambda0 is the lowest non-negative eigenvalue (0 already for delta = 0, in
    which case the flow takes no steps).  Each step uses the exact model data:
    the lambda0-eigensection has |psi|^2 = 1/L, so W = lambda0 f^2 / L dtheta^2,
    the step direction is k = C W / ||W||^2 with C = ||W||^2 / ||W||_inf, and
    re-solving after the step is again exact.  On the circle the step works
    out to g <- 3 g, hence the per-step ratio 3^{-1/2} in lambda0.

    Each iterate computes f, the length and lambda0 once, and the last
    iterate's values are the final ones; the stop reason is "annihilated"
    when the final lambda0 is below ``epsilon``, on the last allowed step
    too, and "max_steps" otherwise.  ``epsilon`` must be positive and
    finite, so a step is only taken while lambda0 > 0; a step whose
    ||W||^2_{L^2} is not positive (its square underflows) raises
    ``FlowStuckError`` naming the step and lambda0.
    """
    max_steps = require_int(max_steps, "max_steps", 0)
    epsilon = require_positive(epsilon, "epsilon")
    f2 = model.f.astype(float) ** 2
    steps = []
    for step in range(max_steps + 1):
        f = np.sqrt(f2)
        length = _length(f)
        lam0 = _circle_eigenvalues(length, model.delta, 0)
        if lam0 < epsilon or step == max_steps:
            break
        w = lam0 * f2 / length                       # W(d_theta, d_theta)
        frame_abs = np.abs(w) / f2                   # |W| in the orthonormal frame
        norm_sup = float(np.max(frame_abs))
        norm_l2_sq = periodic_trapezoid(frame_abs**2 * f, 2.0 * math.pi)
        if not norm_l2_sq > 0.0:
            raise FlowStuckError(
                f"||W||^2_L2 = {norm_l2_sq} is not positive at step {step}, "
                f"lambda0 = {lam0}; no step direction")
        c = norm_l2_sq / norm_sup
        t0 = 2.0 * lam0 / c
        kappa = c * w / norm_l2_sq
        steps.append(FlowStep(step=step, lambda0=lam0, length=length,
                              t0=t0, c=c))
        f2 = f2 + t0 * kappa

    return FlowTrace(steps=steps, final_lambda0=lam0, final_length=length,
                     stop_reason="annihilated" if lam0 < epsilon else "max_steps")
