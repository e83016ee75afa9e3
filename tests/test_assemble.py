"""Branch assembly: merging, provenance, truncation safety, branch skipping."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from diraclab import assemble
from diraclab.assemble import (AssembledSpectrum, assemble_spectrum,
                               lowest_eigenvalue_bound)
from diraclab.errors import (ResolutionError, TruncationRiskError,
                             UsageError)
from diraclab.profiles import (WarpingProfile, constant_profile,
                               exponential_profile, mean_curvature,
                               mean_curvature_prime)
from diraclab.sturm import (BranchProblem, branch_potential,
                            liouville_transform, solve_transformed)
from diraclab.transverse import TransverseSpectrum, circle_spectrum

T = math.pi
HARMONIC = TransverseSpectrum(entries=[(0.0, 1)], symmetric=True)


def test_harmonic_branch_closed_form():
    p = exponential_profile(2, T)
    asm = assemble_spectrum(p, HARMONIC, T, 2, K=5, mesh=2048)
    np.testing.assert_allclose(asm.values(), np.arange(1, 6) ** 2, rtol=1e-6)
    assert all(r.mu0 == 0.0 for r in asm.records)
    assert [r.branch_index for r in asm.records] == [0, 1, 2, 3, 4]


def test_merge_is_ascending_with_provenance():
    p = exponential_profile(2, T)
    spec = circle_spectrum(2 * T, 0.0, 2)
    asm = assemble_spectrum(p, spec, T, 2, K=4, mesh=1024)
    vals = [r.value for r in asm.records]
    assert vals == sorted(vals)
    # the positive-mu branch lies below its negative partner: the pair has
    # potentials mu^2 -+ |mu|' and the smaller potential wins
    by_mu = {r.mu0: r.value for r in asm.records if abs(r.mu0) == 1.0}
    assert by_mu[1.0] < by_mu[-1.0]
    # harmonic branch contributes the global bottom
    assert asm.records[0].mu0 == 0.0
    assert asm.records[0].value == pytest.approx(1.0, rel=1e-6)


def test_multiplicity_expansion():
    p = exponential_profile(2, T)
    spec = TransverseSpectrum(entries=[(0.0, 3)], symmetric=True)
    asm = assemble_spectrum(p, spec, T, 2, K=5, mesh=512)
    np.testing.assert_allclose(asm.values(), [1.0, 1.0, 1.0, 4.0, 4.0],
                               rtol=1e-5)
    assert all(r.multiplicity == 3 for r in asm.records)


def test_cluster_tags_group_coincident_values():
    p = exponential_profile(2, T)
    # two separate harmonic entries cannot exist (entries are a sorted
    # multiset), so force a coincidence with mu0 = 0 multiplicity 2
    spec = TransverseSpectrum(entries=[(0.0, 2)], symmetric=True)
    asm = assemble_spectrum(p, spec, T, 2, K=4, mesh=512)
    clusters = [r.cluster for r in asm.records]
    assert clusters == sorted(clusters)
    assert len(set(clusters)) == len(asm.records)  # distinct branch indices


def test_truncation_risk_raises_when_strict():
    p = exponential_profile(2, T)
    spec = circle_spectrum(2 * T, 0.0, 2)   # first omitted |mu| = 3
    with pytest.raises(TruncationRiskError):
        assemble_spectrum(p, spec, T, 2, K=8, mesh=512)


def test_truncation_risk_flagged_when_not_strict():
    p = exponential_profile(2, T)
    spec = circle_spectrum(2 * T, 0.0, 2)
    asm = assemble_spectrum(p, spec, T, 2, K=8, mesh=512,
                            strict_truncation=False)
    assert not asm.truncation_safe
    assert len(asm.records) == 8


def test_complete_spectrum_is_always_safe():
    # omitted_abs_min = inf marks a spectrum as complete
    p = exponential_profile(2, T)
    asm = assemble_spectrum(p, HARMONIC, T, 2, K=6, mesh=512)
    assert asm.truncation_safe


def test_far_branches_are_skipped():
    p = exponential_profile(2, T)
    spec = TransverseSpectrum(entries=[(-8.0, 1), (0.0, 1), (8.0, 1)],
                              symmetric=True)
    asm = assemble_spectrum(p, spec, T, 2, K=2, mesh=512)
    # V >= 8^2 - 4 on the |mu0| = 8 branches, far above lambda_1 = 4
    assert asm.branches_skipped == 2
    np.testing.assert_allclose(asm.values(), [1.0, 4.0], rtol=1e-5)


def _spline(order):
    knots = np.linspace(0.0, T, 41)
    return WarpingProfile("sampled", T, knots=knots,
                          values=1.0 + 0.3 * np.sin(2.3 * knots + 0.4),
                          order=order)


# profile and the relative tolerance of each branch's overall minimum: on the
# exponential profile min V sits at u = 0, where s = 1, so both forms round
# alike; elsewhere the product rounds mu0^2 s^2 apart from (mu0 s)^2
ORDERING_PROFILES = {"exponential": (exponential_profile(2, T), 0.0),
                     "spline-order-5": (_spline(5), 1e-15)}


def _per_branch_extremes(profile, mu0s, points):
    """Reference: the minimum and the maximum of V on each cell of each
    branch, from its own pass of ``branch_potential`` over ``points`` grid
    points; cell j holds the samples j span .. (j + 1) span."""
    grid = np.linspace(0.0, profile.domain_length, points)
    jet = profile.jet(grid, 1)
    rho0, h = float(profile.rho(0.0)), mean_curvature(jet)
    span = (points - 1) // assemble._CELLS
    cells = [[v[j * span:(j + 1) * span + 1] for j in range(assemble._CELLS)]
             for v in (branch_potential(mu0, rho0, jet[0], h) for mu0 in mu0s)]
    return (np.array([[c.min() for c in row] for row in cells]),
            np.array([[c.max() for c in row] for row in cells]))


# truncations 6, 60, 300 give 13, 121, 601 branches
@pytest.mark.parametrize("truncation", [6, 60, 300])
@pytest.mark.parametrize("name", sorted(ORDERING_PROFILES))
def test_blocked_branch_minima_match_per_branch_passes(name, truncation,
                                                        monkeypatch):
    # the step potentials of each branch, V- and V+, against a pass of
    # branch_potential per branch, and the assembly on either
    profile, rtol = ORDERING_PROFILES[name]
    spec = circle_spectrum(2 * T, 0.0, truncation)
    mu0s = np.array([mu0 for mu0, _ in spec.entries])
    grid = np.linspace(0.0, T, 2049)
    jet = profile.jet(grid, 1)
    s = float(profile.rho(0.0)) / jet[0]
    cells = assemble._CELL_SAMPLES
    sampled = [assemble._step_potentials(mu0, (s**2)[cells],
                                         (s * mean_curvature(jet))[cells],
                                         np.zeros((2, assemble._CELLS)))
               for mu0 in mu0s]
    lower, upper = (np.array(rows) for rows in zip(*sampled))
    ref_lower, ref_upper = _per_branch_extremes(profile, mu0s, grid.size)
    np.testing.assert_allclose(lower.min(axis=1), ref_lower.min(axis=1),
                               rtol=rtol, atol=0.0)
    # cell extremes away from u = 0 round apart on every profile
    np.testing.assert_allclose(lower, ref_lower, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(upper, ref_upper, rtol=1e-15, atol=0.0)

    stepped = assemble_spectrum(profile, spec, T, 2, K=4, mesh=512,
                                strict_truncation=False)

    def per_branch(mu0, s2, sh, margin):
        slack = mu0**2 * margin[0] + abs(mu0) * margin[1]
        low, up = _per_branch_extremes(profile, [mu0], grid.size)
        return low[0] - slack, up[0] + slack

    monkeypatch.setattr(assemble, "_step_potentials", per_branch)
    reference = assemble_spectrum(profile, spec, T, 2, K=4, mesh=512,
                                  strict_truncation=False)
    assert stepped.records == reference.records
    assert stepped.branches_solved == reference.branches_solved
    assert stepped.branches_skipped == reference.branches_skipped > 0


def test_profile_is_evaluated_once_per_call_not_per_branch(monkeypatch):
    calls = []
    rho, jet = WarpingProfile.rho, WarpingProfile.jet

    def counted_rho(self, u, d=0):
        calls.append(d)
        return rho(self, u, d)

    def counted_jet(self, u, d):
        calls.append(d)
        return jet(self, u, d)

    monkeypatch.setattr(WarpingProfile, "rho", counted_rho)
    monkeypatch.setattr(WarpingProfile, "jet", counted_jet)
    counts, solved = [], []
    for truncation in (6, 60):
        calls.clear()
        asm = assemble_spectrum(exponential_profile(2, T),
                                circle_spectrum(2 * T, 0.0, truncation),
                                T, 2, K=4, mesh=512)
        counts.append(len(calls))
        solved.append(asm.branches_solved)
    # ten times the branches, the same solves and the same profile evaluations
    assert solved[0] == solved[1]
    assert counts[0] == counts[1] > 0


def test_the_step_potentials_built_do_not_grow_with_the_branches(monkeypatch):
    built = []
    real = assemble._step_potentials

    def counted(mu0, *args):
        built.append(mu0)
        return real(mu0, *args)

    monkeypatch.setattr(assemble, "_step_potentials", counted)
    calls, solved = [], []
    # 13, 121 and 1201 branches
    for truncation in (6, 60, 600):
        built.clear()
        asm = assemble_spectrum(exponential_profile(2, T),
                                circle_spectrum(2 * T, 0.0, truncation),
                                T, 2, K=6, mesh=512)
        calls.append(list(built))
        solved.append(asm.branches_solved)
    # V+ of the first six branches for sigma_R, then V- of each branch the
    # loop reaches: 0, 1, -1, 2, -2, 3, -3; the floor for |mu0| >= 4 ends it
    # whatever follows
    assert calls[0] == calls[1] == calls[2]
    assert len(calls[0]) == 13
    assert solved[0] == solved[1] == solved[2]


def _no_step_test(monkeypatch):
    # a count that never binds: no branch is skipped or cut by the step count
    monkeypatch.setattr(assemble, "_step_count",
                        lambda lower, width, sigma: math.inf)


def _asked_and_full(monkeypatch, profile, spec, t, m, K, mesh, step=False):
    """The assembly as it runs, with the value count asked of each solved
    branch, and a reference that solves every branch for all K values.

    Unless ``step`` is set, both run with the step count off, so each branch
    solved is asked for ceil(K / mult) values."""
    if not step:
        _no_step_test(monkeypatch)
    requested = []

    def counted(problem, k, mesh):
        requested.append(k)
        return solve_transformed(problem, k, mesh)

    monkeypatch.setattr(assemble, "solve_transformed", counted)
    asked = assemble_spectrum(profile, spec, t, m, K, mesh)
    monkeypatch.setattr(assemble, "solve_transformed",
                        lambda problem, k, mesh: solve_transformed(problem, K,
                                                                   mesh))
    full = assemble_spectrum(profile, spec, t, m, K, mesh)
    return asked, full, requested


def _assert_same_values(asked, full):
    # fewer values from the kernel move each one within its tolerance only
    estimates = np.repeat([r.error_estimate for r in full.records],
                          [r.multiplicity for r in full.records])[:full.count]
    assert np.all(np.abs(asked.values() - full.values()) <= estimates + 2e-10)
    assert ([r.cluster for r in asked.records]
            == [r.cluster for r in full.records])


def _assert_same_spectrum(asked, full):
    def provenance(asm):
        return [(r.branch_id, r.branch_index, r.multiplicity, r.cluster)
                for r in asm.records]

    assert provenance(asked) == provenance(full)
    assert asked.branches_solved == full.branches_solved
    assert asked.branches_skipped == full.branches_skipped
    assert asked.truncation_safe == full.truncation_safe
    # fewer values from the kernel move each one within its tolerance only
    for got, ref in zip(asked.records, full.records):
        assert abs(got.value - ref.value) <= ref.error_estimate + 2e-10


# the (m, delta) pairs of the spectrum-wide benchmark workload
WIDE_PAIRS = [(2, 0.5), (3, 0.0), (4, 0.0), (3, 0.5), (2, 0.0), (4, 0.5)]


# values asked with the step count on, per (m, delta, t): 75 in all.  The
# Ritz bound of the first K branches makes the step count bind from the first
# solve, so each case asks for K = 6 values, or 7, about as many as it keeps
STEP_ASKED = {(2, 0.5, 2.75): 6, (3, 0.0, 2.75): 6, (4, 0.0, 2.75): 7,
              (3, 0.5, 2.75): 6, (2, 0.0, 2.75): 7, (4, 0.5, 2.75): 6,
              (2, 0.5, 4.0): 6, (3, 0.0, 4.0): 6, (4, 0.0, 4.0): 6,
              (3, 0.5, 4.0): 7, (2, 0.0, 4.0): 6, (4, 0.5, 4.0): 6}


@pytest.mark.parametrize("t", [2.75, 4.0])
@pytest.mark.parametrize("m,delta", WIDE_PAIRS)
def test_step_counts_give_the_full_solve_spectrum(m, delta, t, monkeypatch):
    # every branch solved asks for at most as many values as V- has at or
    # below min(sigma_R, sigma); the reference asks each of the same branches
    # for all K
    profile, spec = exponential_profile(m, t), circle_spectrum(2 * T, delta, 100)
    asked, full, requested = _asked_and_full(monkeypatch, profile, spec, t, m,
                                             6, 512, step=True)
    _assert_same_spectrum(asked, full)
    _assert_reference_records(asked, profile, spec, t, m, 6, 512)
    assert sum(requested) == STEP_ASKED[m, delta, t]


# multiplicities 2 and 3, K = 7
MIXED = TransverseSpectrum(entries=[(-1.0, 3), (-0.5, 2), (0.0, 3), (0.5, 2),
                                   (1.0, 3)], symmetric=True)


@pytest.mark.parametrize("t", [T, 2.0, 4.0])
def test_window_rounds_up_per_multiplicity(t, monkeypatch):
    asked, full, requested = _asked_and_full(
        monkeypatch, exponential_profile(2, t), MIXED, t, 2, 7, 512)
    _assert_same_spectrum(asked, full)
    _assert_reference_records(asked, exponential_profile(2, t), MIXED, t, 2,
                              7, 512)
    # mu0 in ascending mean of V = mu0^2 s^2 - mu0 s H over the cells'
    # points, mu0^2 mean(s^2) - mu0 mean(sH) (mean(s^2) about 7.05, 3.19 and
    # 13.4 at t = pi, 2, 4, mean(sH) about 1.21, 0.86 and 1.60): 0 (x3),
    # 0.5 (x2), -0.5 (x2), 1 (x3), -1 (x3).  With the step count off every
    # branch solved asks for ceil(7 / mult) values: 4 at multiplicity 2, 3
    # at multiplicity 3.  The break tests the tail floor at the smallest
    # |mu0| left, blind to its sign: before the last two branches that is
    # the floor for |mu0| >= 1, about 0.50 (min V- of mu0 = 1), and with
    # pi^2/t^2 it stays below the 7th value at every t (1.50 < 2.74,
    # 2.97 < 3.60, 1.12 < 2.47), so no branch is cut
    assert requested == [3, 4, 4, 3, 3]


@pytest.mark.parametrize("t", [2.75, 4.0])
def test_step_test_skips_only_branches_that_add_no_record(t, monkeypatch):
    cases = [(exponential_profile(m, t), circle_spectrum(2 * T, delta, 100), m)
             for m, delta in WIDE_PAIRS]
    # the zero counts skip; no other count binds here, so each branch solved
    # asks for the values the reference asks for
    real = assemble._step_count
    monkeypatch.setattr(assemble, "_step_count",
                        lambda lower, width, sigma:
                        0 if real(lower, width, sigma) == 0 else math.inf)
    stepped = [assemble_spectrum(p, spec, t, m, 6, 512) for p, spec, m in cases]
    _no_step_test(monkeypatch)
    reference = [assemble_spectrum(p, spec, t, m, 6, 512)
                 for p, spec, m in cases]
    for got, ref in zip(stepped, reference):
        # provenance, clusters, values and estimates
        assert got.records == ref.records
        assert got.truncation_safe == ref.truncation_safe
        assert got.branches_solved <= ref.branches_solved
        assert (got.branches_solved + got.branches_skipped
                == ref.branches_solved + ref.branches_skipped)
    # a zero count skips a branch the break lets through; the break alone
    # solves as few on (3, 1/2) and (4, 1/2)
    assert (sum(a.branches_solved for a in stepped)
            < sum(a.branches_solved for a in reference))


def test_step_count_caps_each_request(monkeypatch):
    asked, full, requested = _asked_and_full(
        monkeypatch, exponential_profile(2, T), MIXED, T, 2, 7, 512, step=True)
    _assert_same_spectrum(asked, full)
    _assert_reference_records(asked, exponential_profile(2, T), MIXED, T, 2,
                              7, 512)
    # the order of test_window_rounds_up_per_multiplicity.  mu0 = 0 would
    # ask for ceil(7 / 3) = 3, so the Ritz bound of all five branches is
    # built first.  Its lowest values, 1 (x3, harmonic, exact), 1.82 (x2,
    # mu0 = 0.5, above 1.73) and 2.87 (x2, mu0 = -0.5, above 2.74), cover
    # K = 7, so sigma_R = 2.87 lies above the 7th value, 2.74.  V- of the
    # harmonic branch has one value at or below it (1, as 4 > 2.87), and so
    # has V- of mu0 = 0.5: each asks for 1.  mu0 = -0.5 asks for 1 (2.74,
    # which enters); now sigma = 2.74.  The tail floor for |mu0| >= 1 plus
    # pi^2/t^2, about 1.50, does not break, but V- of mu0 = 1 has no value
    # at or below 2.74 (its own lowest is 4.04), nor has V- of mu0 = -1:
    # both skipped
    assert requested == [1, 1, 1]
    assert asked.branches_skipped == 2


# the Dirac spectrum of the round 3-sphere, +-(3/2 + k) with multiplicity
# (k + 1)(k + 2), for k < 6
SPHERE = TransverseSpectrum(
    entries=sorted((sign * (1.5 + k), (k + 1) * (k + 2))
                   for k in range(6) for sign in (-1.0, 1.0)),
    symmetric=True, omitted_abs_min=7.5)


@pytest.mark.parametrize("t", [2.0, 4.0, 8.0])
@pytest.mark.parametrize("K", [20, 40])
@pytest.mark.parametrize("kind", ["exponential", "constant"])
def test_sphere_multiplicities_give_the_full_solve_spectrum(kind, K, t,
                                                            monkeypatch):
    # multiplicities 2 to 42, so ceil(K / mult) runs from K / 2 down to 1
    profile = (exponential_profile(4, t) if kind == "exponential"
               else constant_profile(1.0, t))
    asked, full, _ = _asked_and_full(monkeypatch, profile, SPHERE, t, 4, K,
                                     1024, step=True)
    _assert_same_values(asked, full)
    # on a constant profile +mu0 and -mu0 share one potential, and their
    # exactly tied records may merge in another branch order
    if kind == "exponential":
        _assert_same_spectrum(asked, full)
    _assert_reference_records(asked, profile, SPHERE, t, 4, K, 1024)


def test_the_kth_record_is_the_last_value_asked_of_its_branch(monkeypatch):
    # t = pi and V = mu0^2, so the values are mu0^2 + (j + 1)^2.  mu0 = 0
    # (multiplicity 2) would ask for ceil(30 / 2) = 15, so the Ritz bound is
    # built first; on a constant potential V+ = V- = V and its values are
    # exact, so after 1 (x2), 1.01 (x24) and 4 (x2) sigma_R is the 30th
    # value, 4.01, raised by its rounding allowance.  V- of mu0 = 0 has 1 and
    # 4 at or below it, so it asks for 2, and mu0 = 0.1 (multiplicity 24)
    # for ceil(30 / 24) = 2, as many as V- has there.  The 30th value is
    # 4.01: the second and last value asked of mu0 = 0.1.  One value fewer
    # would make it 9, branch 0's third
    spectrum = TransverseSpectrum(entries=((0.0, 2), (0.1, 24)),
                                  symmetric=False)
    profile = constant_profile(1.0, math.pi)
    asked, full, requested = _asked_and_full(
        monkeypatch, profile, spectrum, math.pi, 3, 30, 1024, step=True)
    _assert_same_spectrum(asked, full)
    _assert_reference_records(asked, profile, spectrum, math.pi, 3, 30, 1024)
    assert requested == [2, 2]
    last = asked.records[-1]
    assert (last.branch_id, last.branch_index) == (1, 1)
    assert last.value == pytest.approx(4.01, abs=1e-6)


@pytest.mark.parametrize("t", [0.5, T, 4.0])
@pytest.mark.parametrize("c", [-3.0, 0.0, 2.5])
def test_step_test_on_a_constant_potential(c, t):
    # lambda_j = c + pi^2 (j + 1)^2 / t^2 on every cell count
    lower = [c] * assemble._CELLS
    width = t / assemble._CELLS
    assert assemble._step_count(lower, width, c) == 0
    for j in range(6):
        lam = c + math.pi**2 * (j + 1) ** 2 / t**2
        assert assemble._step_count(lower, width, lam - 1e-6) == j
        assert assemble._step_count(lower, width, lam + 1e-6) == j + 1


# ---------------------------------------------------------------------------
# the Rayleigh-Ritz upper bound sigma_R
# ---------------------------------------------------------------------------

def _quadrature_ritz_matrix(cells, t, per_cell=4000):
    """Reference: int phi_k' phi_l' + V phi_k phi_l over [0, t] for the
    modes phi_k = sqrt(2/t) sin(k pi u / t), by the midpoint rule with
    ``per_cell`` points per cell of the step potential ``cells``."""
    n = len(cells) * per_cell
    u = (np.arange(n) + 0.5) * (t / n)
    k = np.arange(1, assemble._RITZ_MODES + 1)[:, None]
    phi = math.sqrt(2.0 / t) * np.sin(k * math.pi * u / t)
    dphi = math.sqrt(2.0 / t) * (k * math.pi / t) * np.cos(k * math.pi * u / t)
    v = np.repeat(cells, per_cell)
    return (dphi @ dphi.T + (phi * v) @ phi.T) * (t / n)


def test_ritz_matrix_is_the_closed_form_of_the_step_potential():
    rng = np.random.default_rng(26)
    for _ in range(5):
        t = rng.uniform(0.5, 4.0)
        cells = rng.uniform(-30.0, 30.0, assemble._CELLS)
        a = assemble._ritz_matrices(cells[None, :], t)[0]
        ref = _quadrature_ritz_matrix(cells, t)
        assert np.abs(a - ref).max() <= 1e-6 * np.abs(ref).max()
        assert np.array_equal(a, a.T)


def test_ritz_values_bound_the_step_potential_from_above():
    # by min-max each Ritz value lies above the same eigenvalue of the step
    # potential, here from extrapolated finite differences and their error
    rng = np.random.default_rng(27)
    for _ in range(20):
        t = rng.uniform(0.5, 4.0)
        cells = rng.uniform(-30.0, 30.0, assemble._CELLS)
        ritz = np.linalg.eigvalsh(assemble._ritz_matrices(cells[None, :], t)[0])
        coarse, fine = _fd_lowest(cells, t, 64), _fd_lowest(cells, t, 128)
        lam, err = fine + (fine - coarse) / 3.0, np.abs(fine - coarse)
        assert np.all(ritz[:_FD_VALUES] >= lam - err)
        # and within 1 % of the jump of V above the lowest six (0.9 % at
        # worst here): 16 sine modes resolve them
        assert np.all(ritz[:6] - lam[:6]
                      <= 1e-2 * (np.abs(lam[:6]) + np.ptp(cells)))


def _spy_ritz_bound(monkeypatch):
    """The sigma_R of every bound built from now on, in order."""
    built = []
    real = assemble._ritz_bound

    def spied(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(assemble, "_ritz_bound", spied)
    return built


@pytest.mark.parametrize("K", [2, 3, 5, 8, 12])
@pytest.mark.parametrize("t", [T, 2.5, 4.0])
def test_an_exact_harmonic_kth_value_is_still_asked_for(t, K, monkeypatch):
    # V = 0 on the harmonic branch, so V+ = V- = 0, its Ritz values are the
    # exact pi^2 k^2 / t^2, and the K-th merged value is one of them.  The
    # rounding allowance puts sigma_R strictly above it, so the step count
    # of V- = 0 at sigma_R still counts it and all K values are asked for;
    # with no allowance it is left out at 13 of these 15 (t, K)
    built = _spy_ritz_bound(monkeypatch)
    asked, full, requested = _asked_and_full(
        monkeypatch, exponential_profile(2, t), HARMONIC, t, 2, K, 512,
        step=True)
    exact = math.pi**2 * K**2 / t**2
    # built by the assembly and by the reference that asks for all K
    assert len(built) == 2 and exact < built[0] <= exact + 1e-9
    assert requested == [K]
    assert asked.truncation_safe
    _assert_same_spectrum(asked, full)


def test_a_first_request_of_one_value_builds_no_bound(monkeypatch):
    def refused(*args):
        raise AssertionError("the Ritz bound was built")

    monkeypatch.setattr(assemble, "_ritz_bound", refused)
    spec = circle_spectrum(2 * T, 0.0, 100)
    for m in (2, 3):
        assert len(assemble_spectrum(exponential_profile(m, 3.0), spec, 3.0,
                                     m, K=1, mesh=256).records) == 1
    # ceil(K / mult) = 1 for the first branch, mu0 = 0 at multiplicity 3
    assemble_spectrum(exponential_profile(2, T), MIXED, T, 2, K=2, mesh=256)


_REFERENCES = {}


def _all_branch_reference(profile, spec, t, m, K, mesh):
    """Every branch solved for all K values and merged: the lowest records
    (value, error estimate, mu0, branch index, multiplicity) that cover K
    values with their multiplicities.  Kept per case, as several tests ask
    for the same one."""
    key = (repr(profile.to_dict()), tuple(spec.entries), t, m, K, mesh)
    if key not in _REFERENCES:
        _REFERENCES[key] = _solve_every_branch(profile, spec, m, K, mesh)
    return list(_REFERENCES[key])


def _solve_every_branch(profile, spec, m, K, mesh):
    merged = []
    for mu0, mult in spec.entries:
        res = solve_transformed(liouville_transform(
            BranchProblem.from_profile(profile, mu0, m=m)), K, mesh)
        merged += [(val, err, mu0, j, mult) for j, (val, err)
                   in enumerate(zip(res.values, res.error_estimates))]
    merged.sort()
    total = 0
    for i, rec in enumerate(merged):
        total += rec[4]
        if total >= K:
            return merged[:i + 1]


def _assert_reference_records(asked, profile, spec, t, m, K, mesh):
    """The records of ``asked`` are those of :func:`_all_branch_reference`,
    which shares no skip or step-count logic with the assembly: the same
    values, within the estimates, and, where no two branches share a
    potential, the same branches and indices (+mu0 and -mu0 do on a constant
    profile).  Asked for fewer values, the kernel may move a value within
    its 1e-10 tolerance, so two branches whose values lie that close, as
    +mu0 and -mu0 do on a spline through values 1 + 1e-11 sin(u), may trade
    places within one cluster.  Returns the reference."""
    reference = _all_branch_reference(profile, spec, t, m, K, mesh)
    assert asked.count == K and len(asked.values()) == K
    expanded = np.repeat([rec[0] for rec in reference],
                         [rec[4] for rec in reference])[:K]
    estimates = np.repeat([r.error_estimate for r in asked.records],
                          [r.multiplicity for r in asked.records])[:K]
    assert np.all(np.abs(asked.values() - expanded) <= estimates + 2e-10)
    if profile.kind != "constant":
        assert len(asked.records) == len(reference)
        for r, (value, _, *which) in zip(asked.records, reference):
            assert ([r.mu0, r.branch_index, r.multiplicity] == which
                    or abs(r.value - value) <= assemble.CLUSTER_TOL)
    return reference


def _drawn_profile(draw, kind, t, m):
    if kind == "exponential":
        return exponential_profile(m, t)
    if kind == "constant":
        return constant_profile(draw(st.floats(0.5, 2.0)), t)
    knots = np.linspace(0.0, t, draw(st.integers(5, 25)))
    amp, freq, phase = (draw(st.floats(0.0, 0.4)), draw(st.floats(0.3, 3.0)),
                        draw(st.floats(0.0, 3.0)))
    return WarpingProfile("sampled", t, knots=knots,
                          values=1.0 + amp * np.sin(freq * knots + phase),
                          order=int(kind[-1]))


@st.composite
def _bound_cases(draw):
    kind = draw(st.sampled_from(["exponential", "constant", "spline-order-3",
                                 "spline-order-4"]))
    t, m = draw(st.floats(1.0, 4.0)), draw(st.integers(2, 4))
    delta, truncation = draw(st.sampled_from([0.0, 0.5])), draw(st.integers(1, 4))
    entries = circle_spectrum(2 * T, delta, truncation).entries
    # one multiplicity per |mu0|, so +mu0 and -mu0 still pair up
    mults = {abs(mu0): draw(st.integers(1, 4)) for mu0, _ in entries}
    spec = TransverseSpectrum([(mu0, mults[abs(mu0)]) for mu0, _ in entries],
                              symmetric=True)
    return (_drawn_profile(draw, kind, t, m), spec, t, m,
            draw(st.integers(1, 12)))


@settings(max_examples=60, deadline=None)
@given(_bound_cases())
def test_the_ritz_bound_lies_above_the_kth_reference_value(case):
    profile, spec, t, m, K = case
    mesh = 256
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = _spy_ritz_bound(monkeypatch)
        asked = assemble_spectrum(profile, spec, t, m, K, mesh,
                                  strict_truncation=False)
    reference = _assert_reference_records(asked, profile, spec, t, m, K, mesh)
    value, err = reference[-1][:2]
    if built:
        assert built[0] >= value - err


def _shuffled_order(monkeypatch, seed):
    """Visit the branches in a seeded random order in place of ascending
    mean V."""
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(assemble, "_branch_order",
                        lambda mu0, s2, sh: rng.permutation(len(mu0)))


ORDER_CASES = ([(exponential_profile(m, t), circle_spectrum(2 * T, delta, 100),
                 t, m, 6, 512) for m, delta, t in STEP_ASKED]
               + [(exponential_profile(2, t), MIXED, t, 2, 7, 512)
                  for t in (T, 2.0, 4.0)]
               + [(profile, SPHERE, t, 4, K, 1024)
                  for t in (2.0, 4.0, 8.0) for K in (20, 40)
                  for profile in (exponential_profile(4, t),
                                  constant_profile(1.0, t))])


@pytest.mark.parametrize("case", range(len(ORDER_CASES)))
def test_the_records_do_not_rest_on_the_branch_order(case, monkeypatch):
    # the break tests the tail floor at the smallest |mu0| left, so it holds
    # in any order; a break on the visited branch's own min V- would cut off
    # lower branches that come later
    profile, spec, t, m, K, mesh = ORDER_CASES[case]
    _shuffled_order(monkeypatch, case)
    asked = assemble_spectrum(profile, spec, t, m, K, mesh)
    _assert_reference_records(asked, profile, spec, t, m, K, mesh)


_FD_VALUES = 8


def _fd_lowest(cells, t, per_cell):
    """Lowest ``_FD_VALUES`` Dirichlet eigenvalues of -y'' + V y for the step
    potential ``cells``, by central differences with ``per_cell`` intervals
    per cell; a node on a jump carries the mean of its two sides."""
    n = len(cells) * per_cell
    h = t / n
    v = np.repeat(cells, per_cell)
    node = 0.5 * (v[:-1] + v[1:])
    return eigvalsh_tridiagonal(2.0 / h**2 + node, np.full(n - 2, -1.0 / h**2),
                                select="i", select_range=(0, _FD_VALUES - 1))


def test_step_test_matches_finite_differences_on_random_steps():
    rng = np.random.default_rng(20)
    checked = hyperbolic = negative = crossed = 0
    for _ in range(300):
        t = rng.uniform(0.5, 4.0)
        width = t / assemble._CELLS
        cells = rng.uniform(-30.0, 30.0, assemble._CELLS)
        coarse, fine = _fd_lowest(cells, t, 64), _fd_lowest(cells, t, 128)
        lam, err = fine + (fine - coarse) / 3.0, np.abs(fine - coarse)
        # sigma near each of the lowest six, farther than the finite-difference
        # error from every value and below the highest one computed
        shifts = (rng.choice([-1.0, 1.0], (6, 2)) * (1.0 + np.abs(lam[:6, None]))
                  * 10.0 ** rng.uniform(-6.0, 0.0, (6, 2)))
        for sigma in (lam[:6, None] + shifts).ravel():
            if (np.any(np.abs(sigma - lam) <= err)
                    or sigma >= lam[-1] - err[-1]):
                continue
            count = assemble._step_count(cells.tolist(), width, sigma)
            assert count == np.sum(lam < sigma)
            assert (count == 0) == (lam[0] > sigma)
            checked += 1
            hyperbolic += bool(np.any(cells >= sigma))
            # y has the sign (-1)^(zeros so far); a sinh/cosh cell entered
            # after an odd count starts from y < 0
            for i in np.flatnonzero(cells >= sigma):
                before = assemble._step_count(cells[:i].tolist(), width, sigma)
                if before % 2:
                    negative += 1
                    crossed += assemble._step_count(
                        cells[:i + 1].tolist(), width, sigma) > before
    # most shifts are decided, about half of them across sinh/cosh cells;
    # such cells are often entered with y < 0, and some are crossed inside
    assert checked > 2500 and hyperbolic > 1400
    assert negative > 2000 and crossed > 200


@pytest.mark.parametrize("m", [2, 3])
def test_cell_bound_stays_below_a_smooth_minimum_between_samples(m):
    # on the exponential profile V = mu0^2 s^2 - mu0 s H has its minimum
    # -H^2/4 where mu0 s = H/2; put that halfway between samples 1000, 1001
    hc = 1.0 / (2 * (m - 1))
    u_min = 1000.5 * T / 2048
    mu0 = hc / 2 * math.exp(-hc * u_min)
    s2, sh, margin, _ = assemble._grid_samples(exponential_profile(m, T), T)
    sampled, _ = assemble._step_potentials(mu0, s2, sh,
                                           np.zeros((2, assemble._CELLS)))
    lower, _ = assemble._step_potentials(mu0, s2, sh, margin)
    assert sampled.min() > -hc**2 / 4 >= lower.min()


def _sampled_tail_floor(profile, nu, points):
    """Reference: min over ``points`` grid points of the floor
    min over x >= nu of s^2 x^2 - s |H| x."""
    grid = np.linspace(0.0, T, points)
    jet = profile.jet(grid, 1)
    s, habs = float(profile.rho(0.0)) / jet[0], np.abs(mean_curvature(jet))
    return np.min(np.where(nu >= habs / (2 * s), s**2 * nu**2 - s * habs * nu,
                           -(habs**2) / 4))


@pytest.mark.parametrize("nu", [0.5, 2.5, 40.0])
@pytest.mark.parametrize("order", [3, 5])
def test_tail_floor_stays_below_its_minimum_between_samples(order, nu):
    profile = _spline(order)
    dense = _sampled_tail_floor(profile, nu, 400001)
    # the 2049 samples miss the floor's minimum; the margin covers it
    assert _sampled_tail_floor(profile, nu, 2049) > dense
    floor = assemble._grid_samples(profile, T)[3](nu)
    assert floor <= dense


@pytest.mark.parametrize("t", [1000.0, 1e6])
def test_a_profile_float64_cannot_sample_is_refused(t):
    # at t = 1000 s = rho(0)/rho reaches e^500, whose square overflows; at
    # t = 1e6 rho underflows to 0; neither may reach a warning or a solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=f"samples at t = {t} are not finite"):
            assemble_spectrum(exponential_profile(2, t), HARMONIC, t, 2, K=1,
                              mesh=64)


def _per_call_samples(profile):
    """s, H, H' at the points of each cell and the reach, read from the
    profile as the sample pass reads them."""
    grid = np.linspace(0.0, T, assemble._SAMPLES)
    spacing = T / (assemble._SAMPLES - 1)
    rho0 = float(profile.rho(0.0))
    jet = profile.jet(grid, 2)
    cells = assemble._CELL_SAMPLES
    return ((rho0 / jet[0])[cells], mean_curvature(jet)[cells],
            mean_curvature_prime(jet)[cells], spacing / 2.0)


def _per_call_floor(nu, s, h, dh, reach):
    """Reference: the tail floor with every term computed in the call."""
    nu = min(nu, 1e100 / float(s.max()))
    habs = np.abs(h)
    ds2, dsh = np.abs(2.0 * s**2 * h), np.abs(s * h**2 + s * dh)
    on_nu = nu >= habs / (2.0 * s)
    floor = np.where(on_nu, s**2 * nu**2 - s * habs * nu, -(h**2) / 4.0)
    slope = np.where(on_nu, nu**2 * ds2 + nu * dsh, np.abs(h * dh) / 2.0)
    return float(np.min(floor.min(axis=1) - reach * slope.max(axis=1)))


FLOOR_PROFILES = {**{name: p for name, (p, _) in ORDERING_PROFILES.items()},
                  "spline-order-3": _spline(3)}


@pytest.mark.parametrize("name", sorted(FLOOR_PROFILES))
def test_the_sample_pass_floor_matches_the_per_call_floor(name):
    # nu = 0 and 0.1 lie on the vertex branch -H^2/4 at some points, twice
    # the largest vertex |H| / (2s) past it at all of them, and 1e200 above
    # the cap 1e100 / max s
    profile = FLOOR_PROFILES[name]
    s, h, dh, reach = _per_call_samples(profile)
    s2, sh, margin, floor = assemble._grid_samples(profile, T)
    # the margin and the samples are the per-call ones, bit for bit
    assert np.array_equal(s2, s**2) and np.array_equal(sh, s * h)
    assert np.array_equal(margin, reach * np.array(
        [np.abs(2.0 * s**2 * h).max(axis=1),
         np.abs(s * h**2 + s * dh).max(axis=1)]))
    vertex = np.abs(h) / (2.0 * s)
    assert (vertex > 0.1).any() and 1e200 > 1e100 / s.max()
    for nu in (0.0, 0.1, 2.5, 40.0, 2.0 * float(vertex.max()), 1e99, 1e200):
        assert floor(nu) == _per_call_floor(nu, s, h, dh, reach)


def test_the_floor_terms_are_built_once_per_call(monkeypatch):
    # one sample pass per assembly builds the floor's terms free of nu; a
    # floor evaluation takes no |.| of its own, so |H|, |(s^2)'|, |(sH)'|
    # and |H H'| come from the pass, however often the floor is evaluated
    passes, evaluations = [], []
    real = assemble._grid_samples

    def forbidden(*args, **kwargs):
        raise AssertionError("a floor evaluation recomputed a nu-free term")

    def counted(profile, t):
        passes.append(t)
        s2, sh, margin, floor = real(profile, t)

        def counted_floor(nu):
            evaluations.append(nu)
            with monkeypatch.context() as patch:
                patch.setattr(np, "abs", forbidden)
                return floor(nu)
        return s2, sh, margin, counted_floor

    monkeypatch.setattr(assemble, "_grid_samples", counted)
    counts = []
    for K in (2, 6, 12):
        passes.clear()
        evaluations.clear()
        assemble_spectrum(exponential_profile(3, T),
                          circle_spectrum(2 * T, 0.5, 60), T, 3, K=K, mesh=512)
        assert passes == [T]
        counts.append(len(evaluations))
    assert min(counts) > 1 and len(set(counts)) > 1


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_profile_whose_h_prime_alone_is_not_finite_is_refused(monkeypatch,
                                                                 bad):
    # s, s^2 and sH are finite at every sample; H' is not at one, which
    # leaves the margin built from it non-finite
    real = assemble.mean_curvature_prime

    def broken(jet):
        dh = real(jet).copy()
        dh[1000] = bad
        return dh

    monkeypatch.setattr(assemble, "mean_curvature_prime", broken)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=f"samples at t = {T} are not finite"):
            assemble_spectrum(exponential_profile(2, T), HARMONIC, T, 2, K=1,
                              mesh=64)


@pytest.mark.parametrize("t", [1e-76, 1e-80, 1e-160, 1e-300])
def test_a_t_too_short_for_the_mesh_is_refused_before_any_solve(monkeypatch,
                                                                 t):
    # the kernel squares -1/h^2, h = t / (mesh + 1); at t = 1e-80 dstebz
    # failed, and at t = 1e-160 pi^2/t^2 overflowed
    def refused(*args, **kwargs):
        raise AssertionError("reached a solve")

    monkeypatch.setattr(assemble, "_grid_samples", refused)
    monkeypatch.setattr(assemble, "solve_transformed", refused)
    with pytest.raises(ResolutionError, match=re.escape(
            f"t = {t!r} is too short for a mesh of 128 interior points")):
        assemble_spectrum(exponential_profile(2, t), HARMONIC, t, 2, K=6,
                          mesh=128)


def test_a_short_t_that_the_mesh_resolves_still_assembles():
    # at t = 1e-70 the spacing is 7.8e-73; the harmonic values are those at
    # t = 1 scaled by 1 / t^2, within the kernel's tolerance there (1e-10)
    # and its rounding here (about 1e-12 of each value)
    tiny = assemble_spectrum(exponential_profile(2, 1e-70), HARMONIC, 1e-70,
                             2, K=6, mesh=128)
    unit = assemble_spectrum(exponential_profile(2, 1.0), HARMONIC, 1.0, 2,
                             K=6, mesh=128)
    np.testing.assert_allclose(tiny.values() * 1e-140, unit.values(),
                               rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(unit.values(), (np.pi * np.arange(1, 7))**2,
                               rtol=1e-4)


@pytest.mark.parametrize("t", [1e-160, 1e-300])
def test_the_bound_refuses_a_t_whose_square_leaves_float64(t):
    # pi^2/t^2 overflows at 1e-160; t^2 underflows to 0 at 1e-300
    with pytest.raises(UsageError, match=re.escape(
            f"pi^2/t^2 at t = {t!r} overflows float64; raise t")):
        lowest_eigenvalue_bound(t, HARMONIC)
    assert lowest_eigenvalue_bound(1e-150, HARMONIC) == math.pi**2 / 1e-300


def test_a_branch_whose_potential_overflows_between_samples_is_refused():
    # every sample of V = mu0^2 s^2 - mu0 s H is finite for this mu0, but V
    # may rise above its largest sample by up to the margin, beyond float64
    p = exponential_profile(2, T)
    s2, sh, margin, _ = assemble._grid_samples(p, T)
    mu0 = math.sqrt(np.finfo(float).max / (s2.max() + margin[0].max() / 2))
    assert np.isfinite(mu0**2 * s2 - mu0 * sh).all()
    spec = TransverseSpectrum(entries=[(0.0, 1), (mu0, 1)], symmetric=False)
    with pytest.raises(UsageError, match=re.escape(f"mu0 = {mu0!r} is not")):
        assemble_spectrum(p, spec, T, 2, K=1, mesh=64)


def test_lowest_eigenvalue_bound():
    assert lowest_eigenvalue_bound(T, HARMONIC) == pytest.approx(1.0)
    assert lowest_eigenvalue_bound(2 * T, HARMONIC) == pytest.approx(0.25)
    no_harm = circle_spectrum(2 * T, 0.5, 1)
    with pytest.raises(UsageError):
        lowest_eigenvalue_bound(T, no_harm)
    with pytest.raises(UsageError):
        lowest_eigenvalue_bound(-1.0, HARMONIC)


def test_round_trip_and_rows():
    p = exponential_profile(2, T)
    asm = assemble_spectrum(p, HARMONIC, T, 2, K=3, mesh=512)
    doc = asm.to_dict()
    header, rows = asm.to_rows()
    assert header == ["index", "value", "mu0", "branch_id", "branch_index",
                      "multiplicity", "cluster", "error_estimate"]
    assert len(rows) == len(asm.records)
    assert doc["mesh_size"] == 512
    assert doc["truncation_safe"] is True
    assert [r["value"] for r in doc["eigenvalues"]] == \
        [r.value for r in asm.records]


def test_requires_harmonic_consistency_with_bound():
    # assembling with a non-harmonic spectrum still works; only the bound
    # helper insists on the harmonic branch
    p = exponential_profile(2, T)
    spec = circle_spectrum(2 * T, 0.5, 1)
    asm = assemble_spectrum(p, spec, T, 2, K=2, mesh=512,
                            strict_truncation=False)
    assert len(asm.records) == 2
    assert min(r.value for r in asm.records) > 1.0   # no harmonic floor
