"""Branch assembly: merging, provenance, truncation safety, branch skipping."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from diraclab import assemble
from diraclab.assemble import (AssembledSpectrum, assemble_spectrum,
                               lowest_eigenvalue_bound)
from diraclab.errors import TruncationRiskError, UsageError
from diraclab.profiles import (WarpingProfile, constant_profile,
                               exponential_profile, mean_curvature)
from diraclab.sturm import branch_potential, solve_transformed
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
                     "spline-order-1": (_spline(1), 1e-15),
                     "spline-order-5": (_spline(5), 1e-15)}


def _per_branch_minima(profile, mu0s, points):
    """Reference: the minimum of V on each cell of each branch, from its own
    pass of ``branch_potential`` over ``points`` grid points; cell j holds
    the samples j span .. (j + 1) span."""
    grid = np.linspace(0.0, profile.domain_length, points)
    jet = profile.jet(grid, 1)
    rho0, h = float(profile.rho(0.0)), mean_curvature(jet)
    span = (points - 1) // assemble._CELLS
    return np.array([[np.min(v[j * span:(j + 1) * span + 1])
                      for j in range(assemble._CELLS)]
                     for v in (branch_potential(mu0, rho0, jet[0], h)
                               for mu0 in mu0s)])


# truncations 6, 60, 300 give 13, 121, 601 branches, across the 64-row block
@pytest.mark.parametrize("truncation", [6, 60, 300])
@pytest.mark.parametrize("name", sorted(ORDERING_PROFILES))
def test_blocked_branch_minima_match_per_branch_passes(name, truncation,
                                                        monkeypatch):
    profile, rtol = ORDERING_PROFILES[name]
    spec = circle_spectrum(2 * T, 0.0, truncation)
    mu0s = np.array([mu0 for mu0, _ in spec.entries])
    grid = np.linspace(0.0, T, 2049)
    jet = profile.jet(grid, 1)
    s = float(profile.rho(0.0)) / jet[0]
    cells = assemble._CELL_SAMPLES
    sampled = assemble._branch_minima(mu0s, s[cells],
                                      (s * mean_curvature(jet))[cells],
                                      np.zeros((2, assemble._CELLS)))
    reference = _per_branch_minima(profile, mu0s, grid.size)
    np.testing.assert_allclose(sampled.min(axis=1), reference.min(axis=1),
                               rtol=rtol, atol=0.0)
    # cell minima away from u = 0 round apart on every profile
    np.testing.assert_allclose(sampled, reference, rtol=1e-15, atol=0.0)

    blocked = assemble_spectrum(profile, spec, T, 2, K=4, mesh=512,
                                strict_truncation=False)
    monkeypatch.setattr(
        assemble, "_branch_minima",
        lambda mu0, s, sh, margin: (
            _per_branch_minima(profile, mu0, grid.size)
            - np.column_stack([mu0**2, np.abs(mu0)]) @ margin))
    reference = assemble_spectrum(profile, spec, T, 2, K=4, mesh=512,
                                  strict_truncation=False)
    assert blocked.records == reference.records
    assert blocked.branches_solved == reference.branches_solved
    assert blocked.branches_skipped == reference.branches_skipped > 0


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


# values asked with the step count on, per (m, delta, t): 158 in all
STEP_ASKED = {(2, 0.5, 2.75): 14, (3, 0.0, 2.75): 13, (4, 0.0, 2.75): 14,
              (3, 0.5, 2.75): 14, (2, 0.0, 2.75): 14, (4, 0.5, 2.75): 14,
              (2, 0.5, 4.0): 12, (3, 0.0, 4.0): 13, (4, 0.0, 4.0): 13,
              (3, 0.5, 4.0): 13, (2, 0.0, 4.0): 11, (4, 0.5, 4.0): 13}


@pytest.mark.parametrize("t", [2.75, 4.0])
@pytest.mark.parametrize("m,delta", WIDE_PAIRS)
def test_step_counts_give_the_full_solve_spectrum(m, delta, t, monkeypatch):
    # every branch solved asks for at most as many values as V- has at or
    # below sigma; the reference asks each of the same branches for all K
    asked, full, requested = _asked_and_full(
        monkeypatch, exponential_profile(m, t),
        circle_spectrum(2 * T, delta, 100), t, m, 6, 512, step=True)
    _assert_same_spectrum(asked, full)
    assert sum(requested) == STEP_ASKED[m, delta, t]


# multiplicities 2 and 3, K = 7
MIXED = TransverseSpectrum(entries=[(-1.0, 3), (-0.5, 2), (0.0, 3), (0.5, 2),
                                   (1.0, 3)], symmetric=True)


@pytest.mark.parametrize("t", [T, 2.0, 4.0])
def test_window_rounds_up_per_multiplicity(t, monkeypatch):
    asked, full, requested = _asked_and_full(
        monkeypatch, exponential_profile(2, t), MIXED, t, 2, 7, 512)
    _assert_same_spectrum(asked, full)
    # mu0 in order of min V-, as mu0 (sampled min V, multiplicity): 0.5 (0, 2),
    # 0 (0, 3), 1 (0.5, 3), -0.5 (0.5, 2), -1 (1.5, 3).  Each sampled minimum
    # sits at u = 0, and V- lowers it by the first cell's margin
    # mu0^2 D1 + |mu0| D2, which is 0 for mu0 = 0 and larger for 1 than for
    # -0.5.  With the step count off every branch solved asks for
    # ceil(7 / mult) values: 4 at multiplicity 2, 3 at multiplicity 3.  At
    # t = 2 the last branch is cut: its min V- + pi^2/t^2, about 1.5 + 2.47,
    # exceeds the 7th value, about 3.60
    last = [] if t == 2.0 else [3]
    assert requested == [4, 3, 3, 4] + last


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
    # the order of test_window_rounds_up_per_multiplicity.  mu0 = 0.5 asks
    # for ceil(7 / 2) = 4 (sigma is infinite): 1.73, 5.06, 10.13, 17.15, so
    # sigma = 17.15.  The harmonic branch, V- = 0, has 4 values n^2 <= 17.15
    # and asks for ceil(7 / 3) = 3: 1, 4, 9; now 1 (x3), 1.73 (x2), 4 (x3)
    # cover K = 7 and sigma = 4.  V- of mu0 = 1 has one value at or below 4
    # (its own lowest is 4.04), and mu0 = -0.5 one (2.74, which enters), so
    # each asks for 1; sigma = 2.74.  V- of mu0 = -1 has none there: skipped
    assert requested == [4, 3, 1, 1]
    assert asked.branches_skipped == 1


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


def test_the_kth_record_is_the_last_value_asked_of_its_branch(monkeypatch):
    # t = pi and V = mu0^2, so the values are mu0^2 + (j + 1)^2.  mu0 = 0
    # (multiplicity 2) asks for ceil(30 / 2) = 15, and mu0 = 0.1
    # (multiplicity 24) for ceil(30 / 24) = 2.  After 1 (x2), 1.01 (x24) and
    # 4 (x2), the 30th value is 4.01: the second and last value asked of
    # mu0 = 0.1.  One value fewer would make it 9, branch 0's third
    spectrum = TransverseSpectrum(entries=((0.0, 2), (0.1, 24)),
                                  symmetric=False)
    asked, full, requested = _asked_and_full(
        monkeypatch, constant_profile(1.0, math.pi), spectrum, math.pi, 3, 30,
        1024, step=True)
    _assert_same_spectrum(asked, full)
    assert requested == [15, 2]
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


def _kinked_profile(offset):
    """Order-1 spline rising from 1 to 1.5 at a knot ``offset`` sample
    spacings past sample 1000, then falling back to 1 at t = pi."""
    knot = (1000 + offset) * T / 2048
    return WarpingProfile("sampled", T, knots=np.array([0.0, knot, T]),
                          values=np.array([1.0, 1.5, 1.0]), order=1), knot


@pytest.mark.parametrize("offset", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("mu0", [1.0, 3.0, 12.0])
def test_cell_bound_stays_below_a_dip_between_samples(mu0, offset):
    # V = (mu0^2 + mu0 rho') / rho^2 on each linear piece, so V drops at the
    # knot to its infimum (mu0^2 + mu0 rho'_right) / 1.5^2, approached from
    # the right and missed by every sample
    profile, knot = _kinked_profile(offset)
    s, h, dh, reach = assemble._grid_samples(profile, T)
    inf_v = (mu0**2 - mu0 * 0.5 / (T - knot)) / 1.5**2
    mu0s = np.array([mu0])
    sampled = assemble._branch_minima(mu0s, s, s * h,
                                      np.zeros((2, assemble._CELLS)))
    lower = assemble._branch_minima(mu0s, s, s * h,
                                    assemble._margin(s, h, dh, reach))
    assert sampled.min() > inf_v
    assert lower.min() <= inf_v
    assert np.all(lower <= sampled)


@pytest.mark.parametrize("m", [2, 3])
def test_cell_bound_stays_below_a_smooth_minimum_between_samples(m):
    # on the exponential profile V = mu0^2 s^2 - mu0 s H has its minimum
    # -H^2/4 where mu0 s = H/2; put that halfway between samples 1000, 1001
    hc = 1.0 / (2 * (m - 1))
    u_min = 1000.5 * T / 2048
    mu0 = hc / 2 * math.exp(-hc * u_min)
    s, h, dh, reach = assemble._grid_samples(exponential_profile(m, T), T)
    mu0s = np.array([mu0])
    sampled = assemble._branch_minima(mu0s, s, s * h,
                                      np.zeros((2, assemble._CELLS)))
    lower = assemble._branch_minima(mu0s, s, s * h,
                                    assemble._margin(s, h, dh, reach))
    assert sampled.min() > -hc**2 / 4 >= lower.min()


@pytest.mark.parametrize("mu0", [-3.0, -1.0, 1.0, 3.0])
def test_cell_bound_covers_knot_pieces_between_two_samples(mu0):
    # three knots between samples 1000 and 1001 leave two linear pieces that
    # hold no sample; rho rises 2 % on one and falls back on the other, so
    # for either sign of mu0 V drops far below its value mu0^2 at every
    # sample, where rho = 1
    delta = T / 2048
    bump = 1000 * delta + delta * np.array([0.2, 0.5, 0.8])
    knots = np.sort(np.concatenate([np.linspace(0.0, T, 41), bump]))
    profile = WarpingProfile("sampled", T, knots=knots,
                             values=np.where(knots == bump[1], 1.02, 1.0),
                             order=1)
    inside = np.linspace(bump[0], bump[2], 601)[1:-1]
    jet = profile.jet(inside, 1)
    v = branch_potential(mu0, 1.0, jet[0], mean_curvature(jet))
    s, h, dh, reach = assemble._grid_samples(profile, T)
    mu0s = np.array([mu0])
    lower = assemble._branch_minima(mu0s, s, s * h,
                                    assemble._margin(s, h, dh, reach))
    samples = assemble._branch_minima(
        mu0s, s[:, :assemble._SPAN + 1], (s * h)[:, :assemble._SPAN + 1],
        np.zeros((2, assemble._CELLS)))
    assert samples.min() == pytest.approx(mu0**2)
    assert v.min() < mu0**2 - 10.0
    assert lower[0, 1000 // assemble._SPAN] <= v.min()
    floor = assemble._tail_potential_floor(abs(mu0), s, h, dh, reach)
    assert floor <= v.min()


def _sampled_tail_floor(profile, nu, points):
    """Reference: min over ``points`` grid points of the floor
    min over x >= nu of s^2 x^2 - s |H| x."""
    grid = np.linspace(0.0, T, points)
    jet = profile.jet(grid, 1)
    s, habs = float(profile.rho(0.0)) / jet[0], np.abs(mean_curvature(jet))
    return np.min(np.where(nu >= habs / (2 * s), s**2 * nu**2 - s * habs * nu,
                           -(habs**2) / 4))


@pytest.mark.parametrize("nu", [0.5, 2.5, 40.0])
@pytest.mark.parametrize("order", [1, 3, 5])
def test_tail_floor_stays_below_its_minimum_between_samples(order, nu):
    profile = _spline(order)
    dense = _sampled_tail_floor(profile, nu, 400001)
    # the 2049 samples miss the floor's minimum; the margin covers it
    assert _sampled_tail_floor(profile, nu, 2049) > dense
    floor = assemble._tail_potential_floor(
        nu, *assemble._grid_samples(profile, T))
    assert floor <= dense


def test_order_one_sampled_profile_assembles(monkeypatch):
    # a piecewise-linear profile has no second derivative; the branch bound
    # takes H' = H^2 between its knots, and the Liouville route needs only
    # rho and rho'
    knots = np.linspace(0.0, T, 61)
    p = WarpingProfile("sampled", T, knots=knots,
                       values=1.0 + 0.25 * np.sin(1.7 * knots + 0.3), order=1)
    orders = []
    original = WarpingProfile.jet

    def counted(self, u, d):
        # each jet of a sampled profile is one evaluation of its spline
        orders.append(d)
        return original(self, u, d)

    monkeypatch.setattr(WarpingProfile, "jet", counted)
    asm = assemble_spectrum(p, circle_spectrum(2 * T, 0.0, 6), T, 2, K=4,
                            mesh=512)
    assert asm.truncation_safe and len(asm.values()) == 4
    assert max(orders) == 1


@pytest.mark.parametrize("t", [1000.0, 1e6])
def test_a_profile_float64_cannot_sample_is_refused(t):
    # at t = 1000 s = rho(0)/rho reaches e^500, whose square overflows; at
    # t = 1e6 rho underflows to 0; neither may reach a warning or a solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=f"samples at t = {t} are not finite"):
            assemble_spectrum(exponential_profile(2, t), HARMONIC, t, 2, K=1,
                              mesh=64)


def test_a_branch_whose_potential_overflows_between_samples_is_refused():
    # every sample of V = mu0^2 s^2 - mu0 s H is finite for this mu0, but V
    # may rise above its largest sample by up to the margin, beyond float64
    p = exponential_profile(2, T)
    s, h, dh, reach = assemble._grid_samples(p, T)
    margin = assemble._margin(s, h, dh, reach)
    mu0 = math.sqrt(np.finfo(float).max / ((s**2).max() + margin[0].max() / 2))
    assert np.isfinite(mu0**2 * s**2 - mu0 * s * h).all()
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
