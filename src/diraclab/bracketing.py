"""Dirichlet bracketing: subdividing the interval only raises eigenvalues.

Cutting [0, t] at interior points and imposing extra Dirichlet conditions
shrinks the trial space, so the non-decreasingly ordered union mu_0 <= mu_1
<= ... of the piece spectra (over any nonempty subset of pieces) dominates
the full spectrum term by term: lambda_j <= mu_j.  The check below verifies
the inequality numerically with tolerances assembled from the per-eigenvalue
Richardson estimates, and a seeded harness drives it over random smooth
potentials, cut positions, and piece subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_TERMS, UsageError, require_int, require_positive
from .sturm import TransformedProblem, _check_mesh, solve_transformed
from .util import random_trig_polynomial

__all__ = ["BracketingReport", "bracketing_check", "run_random_cases"]

_MARGIN_FLOOR = 1e-9


@dataclass
class BracketingReport:
    t: float
    cuts: list
    subset: list
    j_count: int
    full_values: np.ndarray
    full_errors: np.ndarray
    merged_values: np.ndarray
    merged_errors: np.ndarray
    margins: np.ndarray
    tolerances: np.ndarray
    passed: bool
    mesh: int
    seed: int | None = None
    case_index: int | None = None
    potential: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "t": self.t, "cuts": list(self.cuts), "subset": list(self.subset),
            "j_count": self.j_count,
            "lambda": [float(v) for v in self.full_values],
            "mu": [float(v) for v in self.merged_values],
            "margins": [float(v) for v in self.margins],
            "tolerances": [float(v) for v in self.tolerances],
            "passed": self.passed, "mesh": self.mesh,
        }
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.case_index is not None:
            doc["case_index"] = self.case_index
        if self.potential:
            doc["potential"] = self.potential
        return doc


def bracketing_check(problem: TransformedProblem, cuts, subset, j_count: int,
                     mesh: int = 1024) -> BracketingReport:
    """Compare the full Dirichlet spectrum with the merged piece spectra.

    ``cuts`` are interior cut positions, ``subset`` the indices of the pieces
    (between consecutive boundaries 0, cuts..., t) whose spectra get merged.
    Margins are mu_j - lambda_j for j < j_count; the report passes when every
    margin is above minus the combined error estimate.
    """
    t = problem.t
    cuts = sorted(require_positive(c, "cut") for c in cuts)
    if any(c >= t for c in cuts):
        raise UsageError("cuts must lie strictly inside (0, t)")
    if any(b - a <= 0 for a, b in zip(cuts, cuts[1:])):
        raise UsageError("cuts must be distinct")
    boundaries = [0.0] + cuts + [t]
    n_pieces = len(boundaries) - 1
    subset = sorted(set(require_int(s, "subset index", 0) for s in subset))
    if not subset or subset[-1] >= n_pieces:
        raise UsageError(f"subset must be a nonempty selection of 0..{n_pieces - 1}")
    j_count, mesh = _check_mesh(j_count, mesh)

    full = solve_transformed(problem, j_count, mesh)

    merged = []
    for i in subset:
        a, b = boundaries[i], boundaries[i + 1]

        def v_piece(w, _a=a):
            return problem.v(_a + np.asarray(w, dtype=float))

        piece_mesh = max(64, int(round(mesh * (b - a) / t)))
        piece = solve_transformed(TransformedProblem(t=b - a, v=v_piece),
                                  j_count, piece_mesh)
        merged.extend(zip(piece.values, piece.error_estimates))
    merged.sort(key=lambda ve: ve[0])
    mu = np.array([v for v, _ in merged[:j_count]])
    mu_err = np.array([e for _, e in merged[:j_count]])

    margins = mu - full.values
    tolerances = full.error_estimates + mu_err + _MARGIN_FLOOR
    passed = bool(np.all(margins >= -tolerances))
    return BracketingReport(t=t, cuts=cuts, subset=subset, j_count=j_count,
                            full_values=full.values,
                            full_errors=full.error_estimates,
                            merged_values=mu, merged_errors=mu_err,
                            margins=margins, tolerances=tolerances,
                            passed=passed, mesh=mesh)


def _random_case(rng: np.random.Generator, j_count: int, mesh: int):
    t = float(rng.uniform(1.0, 4.0))
    poly = random_trig_polynomial(rng, period=2.0 * t, degree=4, scale=3.0)
    n_cuts = int(rng.integers(1, 4))
    while True:
        cuts = np.sort(rng.uniform(0.08 * t, 0.92 * t, size=n_cuts))
        gaps = np.diff(np.concatenate(([0.0], cuts, [t])))
        if np.all(gaps >= 0.08 * t):
            break
    n_pieces = n_cuts + 1
    mask = rng.integers(0, 2, size=n_pieces).astype(bool)
    if not mask.any():
        mask[int(rng.integers(0, n_pieces))] = True
    subset = list(np.nonzero(mask)[0])
    problem = TransformedProblem(t=t, v=poly)
    report = bracketing_check(problem, list(cuts), subset, j_count, mesh)
    report.potential = {"kind": "trig_polynomial", **poly.to_dict()}
    return report


def run_random_cases(seed: int, cases: int, j_count: int = 8,
                     mesh: int = 768):
    """Seeded random bracketing campaign; returns (reports, all_passed)."""
    seed = require_int(seed, "seed", 0)
    cases = require_int(cases, "cases", 1, maximum=MAX_TERMS)
    rng = np.random.default_rng(seed)
    reports = []
    for index in range(cases):
        report = _random_case(rng, j_count, mesh)
        report.seed = seed
        report.case_index = index
        reports.append(report)
    return reports, all(r.passed for r in reports)
