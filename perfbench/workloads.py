"""The four benchmark workloads: seeded inputs, one operation each, checks.

Each workload is a closed loop with a single caller.  ``draw`` takes the
next operation's inputs from the seeded generator, in a fixed order, so two
commits given the same seed see the same sequence of operations.  ``run``
performs one operation through diraclab's public functions, always looked up
as module attributes so that the traced run can wrap them.  ``check``
compares the outputs with an oracle that shares no code with the path it
checks and returns the list of failed checks (empty when the outputs are
correct).  ``digest`` lists the eigenvalues of an operation with their own
error estimates, for the result digest.

Meshes and K are fixed within a workload, so the cost of one operation
depends on the drawn geometry only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from diraclab import (assemble, bracketing, catalog, circle, profiles, stretch,
                      sturm, transverse, util)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # sample config validated during set-up
    schema: str          # name of its schema in diraclab.schemas
    draw: Callable       # (rng, index) -> inputs of operation ``index``
    run: Callable        # (inputs) -> outputs
    check: Callable      # (inputs, outputs) -> list of failed checks
    digest: Callable     # (inputs, outputs) -> list of [label, value, error]
    cycle: int = 1       # a timed loop runs a whole number of these operations


def _ascending(values) -> bool:
    values = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(values)) and np.all(np.diff(values) >= 0.0))


def _pairs(label, values, errors):
    return [[f"{label}[{i}]", float(v), float(e)]
            for i, (v, e) in enumerate(zip(values, errors))]


# ---------------------------------------------------------------------------
# bracket: one bracketing_check on a random smooth potential
# ---------------------------------------------------------------------------

BRACKET_J = 8
BRACKET_MESH = 768


def draw_bracket(rng, index):
    t = float(rng.uniform(1.0, 4.0))
    poly = util.random_trig_polynomial(rng, period=2.0 * t, degree=4, scale=3.0)
    n_cuts = int(rng.integers(1, 4))
    # The cost of an operation grows with the length the subset covers; it
    # must cover 35-65 % of [0, t], so every operation does about the same work.
    while True:
        cuts = np.sort(rng.uniform(0.08 * t, 0.92 * t, size=n_cuts))
        gaps = np.diff(np.concatenate(([0.0], cuts, [t])))
        mask = rng.integers(0, 2, size=n_cuts + 1).astype(bool)
        if np.all(gaps >= 0.08 * t) and 0.35 <= gaps[mask].sum() / t <= 0.65:
            break
    return {"t": t, "v": poly, "cuts": [float(c) for c in cuts],
            "subset": [int(i) for i in np.nonzero(mask)[0]]}


def run_bracket(x):
    problem = sturm.TransformedProblem(t=x["t"], v=x["v"])
    return bracketing.bracketing_check(problem, x["cuts"], x["subset"],
                                       BRACKET_J, BRACKET_MESH)


def check_bracket(x, report):
    # Dirichlet monotonicity: cutting the interval only raises eigenvalues,
    # so mu_j >= lambda_j up to the combined error estimates.
    lam = np.asarray(report.full_values, dtype=float)
    mu = np.asarray(report.merged_values, dtype=float)
    combined = (np.asarray(report.full_errors, dtype=float)
                + np.asarray(report.merged_errors, dtype=float) + 1e-9)
    failed = []
    if lam.size != BRACKET_J or mu.size != BRACKET_J:
        failed.append("bracket: expected j eigenvalues on both sides")
    elif not (_ascending(lam) and _ascending(mu)):
        failed.append("bracket: eigenvalues not finite and ascending")
    elif np.any(mu - lam < -combined):
        failed.append("bracket: a margin is below minus the combined estimates")
    return failed


def digest_bracket(x, report):
    return (_pairs("lambda", report.full_values, report.full_errors)
            + _pairs("mu", report.merged_values, report.merged_errors))


# ---------------------------------------------------------------------------
# dual-route: one sampled spline profile, solved by both routes
# ---------------------------------------------------------------------------

DUAL_K = 5
DUAL_MESH_TRANSFORMED = 1536
DUAL_MESH_DIRECT = 768


def draw_dual(rng, index):
    return {"m": int(rng.integers(2, 6)), "t": float(rng.uniform(1.0, 3.0)),
            "mu0": float(rng.uniform(-2.5, 2.5)),
            "omega": float(rng.uniform(1.0, 3.0)),
            "phase": float(rng.uniform(0.0, TWO_PI)),
            "amp": float(rng.uniform(0.1, 0.35))}


def run_dual(x):
    knots = np.linspace(0.0, x["t"], 41)
    profile = profiles.WarpingProfile.from_dict({
        "kind": "sampled", "domain_length": x["t"], "order": 5,
        "knots": knots.tolist(),
        "values": (1.0 + x["amp"] * np.sin(x["omega"] * knots + x["phase"])).tolist(),
    })
    bp = sturm.BranchProblem.from_profile(profile, mu0=x["mu0"], m=x["m"])
    a = sturm.solve_transformed(sturm.liouville_transform(bp), K=DUAL_K,
                                mesh=DUAL_MESH_TRANSFORMED)
    b = sturm.solve_direct(bp, K=DUAL_K, mesh=DUAL_MESH_DIRECT)
    return a, b


def route_defect_ratio(outputs) -> float:
    """Largest |a - b| over the combined error estimates of the two routes."""
    a, b = outputs
    combined = a.error_estimates + b.error_estimates
    return float(np.max(np.abs(a.values - b.values) / (combined + 1e-300)))


def check_dual(x, outputs):
    # The direct route keeps the advection term and uses a dense eigensolver,
    # so it is an independent discretization of the same spectrum.
    a, b = outputs
    av, bv = np.asarray(a.values, dtype=float), np.asarray(b.values, dtype=float)
    combined = (np.asarray(a.error_estimates, dtype=float)
                + np.asarray(b.error_estimates, dtype=float))
    failed = []
    if av.size != DUAL_K or bv.size != DUAL_K:
        failed.append("dual-route: expected K eigenvalues from each route")
    elif not (_ascending(av) and _ascending(bv)):
        failed.append("dual-route: eigenvalues not finite and ascending")
    elif np.any(np.abs(av - bv) > 10.0 * combined + 1e-12):
        failed.append("dual-route: routes disagree beyond 10x combined estimates")
    return failed


def digest_dual(x, outputs):
    a, b = outputs
    return (_pairs("transformed", a.values, a.error_estimates)
            + _pairs("direct", b.values, b.error_estimates))


# ---------------------------------------------------------------------------
# spectrum-wide: one assembly over a long circle spectrum
# ---------------------------------------------------------------------------

WIDE_K = 6
WIDE_MESH = 1024
WIDE_CIRCLE_LENGTH = TWO_PI
# For t in [2.75, 4] the number of branches solved is set by m and delta: six
# for m = 2 (seven for (2, 0) below t = 3), five for m = 3 and for (4, 0),
# four for (4, 1/2).  The pairs cycle in a fixed order, and a timed loop runs
# whole cycles of six operations, so every run solves the same mix of pairs
# however many operations fit in its time.
WIDE_CYCLE = ((2, 0.5), (3, 0.0), (4, 0.0), (3, 0.5), (2, 0.0), (4, 0.5))


def draw_wide(rng, index):
    m, delta = WIDE_CYCLE[index % len(WIDE_CYCLE)]
    return {"m": m, "t": float(rng.uniform(2.75, 4.0)), "delta": delta,
            "truncation": int(rng.integers(100, 301))}


def run_wide(x):
    profile = profiles.exponential_profile(x["m"], x["t"])
    spectrum = transverse.circle_spectrum(WIDE_CIRCLE_LENGTH, x["delta"],
                                          x["truncation"])
    return assemble.assemble_spectrum(profile, spectrum, x["t"], x["m"],
                                      WIDE_K, WIDE_MESH)


def check_wide(x, result):
    t = x["t"]
    values = np.asarray(result.values(), dtype=float)
    failed = []
    if values.size != WIDE_K or not _ascending(values):
        failed.append("spectrum-wide: expected K ascending values")
        return failed
    if not result.truncation_safe:
        failed.append("spectrum-wide: truncation not safe")
    first = result.records[0]
    if x["delta"] == 0.0 and values[0] > math.pi**2 / t**2 + first.error_estimate:
        failed.append("spectrum-wide: lambda_0 above pi^2/t^2")
    # the harmonic branch has the closed form pi^2 (n+1)^2 / t^2
    for r in result.records:
        exact = math.pi**2 * (r.branch_index + 1) ** 2 / t**2
        if r.mu0 == 0.0 and abs(r.value - exact) > 10.0 * r.error_estimate:
            failed.append("spectrum-wide: harmonic record off its closed form")
            break
    return failed


def digest_wide(x, result):
    return [[f"b{r.branch_id}.{r.branch_index}", float(r.value),
             float(r.error_estimate)] for r in result.records]


# ---------------------------------------------------------------------------
# geometry: stretch sweep, growth fits and the circle experiments
# ---------------------------------------------------------------------------

GEOMETRY_MESH = 1024
GEOMETRY_PANELS = 2048
GEOMETRY_NORM_KS = (0, 1, 2, 3)
GROWTH_T_VALUES = (2.0, 4.0, 8.0, 16.0)
VARIATION_CASES = 10
VARIATION_GRID = 2048
CIRCLE_GRID = 512
CIRCLE_MODES = 5
FLOW_STEPS = 10
CERTIFIED_DIMS = range(4, 41)


def draw_geometry(rng, index):
    return {"t1": float(rng.uniform(2.0, 6.0)), "m": int(rng.integers(2, 4)),
            "kappas": [util.random_trig_polynomial(rng, TWO_PI, degree=4, scale=1.0)
                       for _ in range(VARIATION_CASES)],
            "modes": [int(j) for j in rng.integers(0, 5, size=VARIATION_CASES)],
            "radius": float(rng.uniform(0.5, 2.0))}


def run_geometry(x):
    ts = [x["t1"], 2.0 * x["t1"]]
    harmonic = transverse.circle_spectrum(TWO_PI, 0.0, 0)
    sweep = stretch.run_stretch_sweep(
        profiles.exponential_profile(x["m"], ts[-1]), harmonic, ts,
        mesh=GEOMETRY_MESH, norm_ks=GEOMETRY_NORM_KS, panels=GEOMETRY_PANELS)
    fits = [stretch.sobolev_growth_fit(k, GROWTH_T_VALUES, m=x["m"])
            for k in GEOMETRY_NORM_KS]
    unit = circle.CircleDiracModel(np.ones_like, 0.5, n=VARIATION_GRID)
    variations = [circle.bg_first_variation(unit, kappa, j)
                  for kappa, j in zip(x["kappas"], x["modes"])]
    radius = x["radius"]
    round_circle = circle.CircleDiracModel(lambda th: np.full_like(th, radius),
                                           0.5, n=CIRCLE_GRID)
    flow = circle.annihilation_flow(round_circle, max_steps=FLOW_STEPS)
    lams, _ = circle.circle_eigenpairs(round_circle, CIRCLE_MODES, cross_check=True)
    certificates = [catalog.existence_certificate(m) for m in CERTIFIED_DIMS]
    return {"sweep": sweep, "fits": fits, "variations": variations,
            "flow": flow, "lams": lams, "certificates": certificates}


def check_geometry(x, out):
    failed = []
    sweep = out["sweep"]
    if not sweep.passed:
        failed.append("geometry: stretch report did not pass")
    if sweep.equality_defect is None or not sweep.equality_defect <= 1e-6:
        failed.append("geometry: harmonic equality defect above 1e-6")
    for fit in out["fits"]:
        if not fit.slope <= max(4.0, 2.0 * fit.k) + 0.2:
            failed.append(f"geometry: H^{fit.k} growth slope above its limit")
    for res in out["variations"]:
        if not abs(res.formula_value - res.fd_value) <= 1e-4 * (1.0 + abs(res.formula_value)):
            failed.append("geometry: first variation disagrees with finite difference")
            break
    trace = out["flow"]
    lams0 = [s.lambda0 for s in trace.steps] + [trace.final_lambda0]
    ratios = np.array(lams0[1:]) / np.array(lams0[:-1])
    if (len(trace.steps) != FLOW_STEPS
            or np.max(np.abs(ratios - 3.0 ** -0.5)) > 1e-6
            or not all(b < a for a, b in zip(lams0, lams0[1:]))):
        failed.append("geometry: flow ratio not 3^-1/2 or not monotone")
    # a round circle of radius r has length 2 pi r and spectrum (n + 1/2)/r
    exact = np.array([0.5, 0.5, 1.5, 1.5, 2.5]) / x["radius"]
    if not np.allclose(np.sort(np.abs(out["lams"])), exact, rtol=1e-9, atol=0.0):
        failed.append("geometry: circle eigenvalues off the closed form")
    for m, cert in zip(CERTIFIED_DIMS, out["certificates"]):
        if not cert.applicable or cert.base_dimension != 4 * (m // 4):
            failed.append(f"geometry: certificate for m={m} has a wrong base")
            break
    return failed


def digest_geometry(x, out):
    rows = out["sweep"].rows
    return ([[f"lambda0(t={r.t!r})", float(r.lambda0), float(r.lambda0_error)]
             for r in rows]
            + [[f"circle[{i}]", float(v), 0.0] for i, v in enumerate(out["lams"])])


WORKLOADS = {
    "bracket": Workload("bracket", "bracket.json", "BRACKET_CONFIG_SCHEMA",
                        draw_bracket, run_bracket, check_bracket, digest_bracket),
    "dual-route": Workload("dual-route", "spectrum_harmonic.json",
                           "SPECTRUM_CONFIG_SCHEMA", draw_dual, run_dual,
                           check_dual, digest_dual),
    "spectrum-wide": Workload("spectrum-wide", "spectrum_circle.json",
                              "SPECTRUM_CONFIG_SCHEMA", draw_wide, run_wide,
                              check_wide, digest_wide, cycle=len(WIDE_CYCLE)),
    "geometry": Workload("geometry", "stretch.json", "STRETCH_CONFIG_SCHEMA",
                         draw_geometry, run_geometry, check_geometry,
                         digest_geometry),
}


def readings(name: str, outputs) -> dict:
    """Deterministic accuracy readings over the digested operations."""
    errors = [e for out in outputs
              for _, _, e in WORKLOADS[name].digest(None, out)]
    doc = {"sturm.err_est_max": max(errors, default=0.0),
           "sturm.route_defect_ratio_max": 0.0,
           "bracketing.min_margin": 0.0}
    if name == "dual-route":
        doc["sturm.route_defect_ratio_max"] = max(
            (route_defect_ratio(out) for out in outputs), default=0.0)
    if name == "bracket":
        doc["bracketing.min_margin"] = min(
            (float(np.min(out.margins)) for out in outputs), default=0.0)
    return doc
