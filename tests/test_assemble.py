"""Branch assembly: merging, provenance, truncation safety, branch skipping."""

import math

import numpy as np
import pytest

from diraclab import assemble
from diraclab.assemble import (AssembledSpectrum, assemble_spectrum,
                               lowest_eigenvalue_bound)
from diraclab.errors import TruncationRiskError, UsageError
from diraclab.profiles import (WarpingProfile, exponential_profile,
                               mean_curvature)
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


# profile and the relative tolerance of its blocked minima: on the
# exponential profile min V sits at u = 0, where s = 1, so both forms round
# alike; elsewhere the product rounds mu0^2 s^2 apart from (mu0 s)^2
ORDERING_PROFILES = {"exponential": (exponential_profile(2, T), 0.0),
                     "spline-order-1": (_spline(1), 1e-15),
                     "spline-order-5": (_spline(5), 1e-15)}


def _per_branch_minima(profile, mu0s, points):
    """Reference: min V of each branch from its own pass of
    ``branch_potential`` over ``points`` grid points."""
    grid = np.linspace(0.0, profile.domain_length, points)
    jet = profile.jet(grid, 1)
    rho0, h = float(profile.rho(0.0)), mean_curvature(jet)
    return np.array([np.min(branch_potential(mu0, rho0, jet[0], h))
                     for mu0 in mu0s])


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
    np.testing.assert_allclose(
        assemble._branch_minima(mu0s, s, s * mean_curvature(jet)),
        _per_branch_minima(profile, mu0s, grid.size), rtol=rtol, atol=0.0)

    blocked = assemble_spectrum(profile, spec, T, 2, K=4, mesh=512,
                                strict_truncation=False)
    monkeypatch.setattr(
        assemble, "_branch_minima",
        lambda mu0, s, sh: _per_branch_minima(profile, mu0, s.size))
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


def _windowed_and_full(monkeypatch, profile, spec, t, m, K, mesh):
    """The assembly as it runs, with the value count asked of each solved
    branch, and a reference that solves every branch for all K values."""
    requested = []

    def counted(problem, k, mesh):
        requested.append(k)
        return solve_transformed(problem, k, mesh)

    monkeypatch.setattr(assemble, "solve_transformed", counted)
    windowed = assemble_spectrum(profile, spec, t, m, K, mesh)
    monkeypatch.setattr(assemble, "solve_transformed",
                        lambda problem, k, mesh: solve_transformed(problem, K,
                                                                   mesh))
    full = assemble_spectrum(profile, spec, t, m, K, mesh)
    return windowed, full, requested


def _assert_same_spectrum(windowed, full):
    def provenance(asm):
        return [(r.branch_id, r.branch_index, r.multiplicity, r.cluster)
                for r in asm.records]

    assert provenance(windowed) == provenance(full)
    assert windowed.branches_solved == full.branches_solved
    assert windowed.branches_skipped == full.branches_skipped
    assert windowed.truncation_safe == full.truncation_safe
    # fewer values from the kernel move each one within its tolerance only
    for got, ref in zip(windowed.records, full.records):
        assert abs(got.value - ref.value) <= ref.error_estimate + 2e-10


# the (m, delta) pairs of the spectrum-wide benchmark workload
WIDE_PAIRS = [(2, 0.5), (3, 0.0), (4, 0.0), (3, 0.5), (2, 0.0), (4, 0.5)]


@pytest.mark.parametrize("t", [2.75, 4.0])
@pytest.mark.parametrize("m,delta", WIDE_PAIRS)
def test_windowed_branches_give_the_full_solve_spectrum(m, delta, t,
                                                        monkeypatch):
    K = 6
    windowed, full, requested = _windowed_and_full(
        monkeypatch, exponential_profile(m, t),
        circle_spectrum(2 * T, delta, 100), t, m, K, 512)
    _assert_same_spectrum(windowed, full)
    assert len(requested) == windowed.branches_solved
    assert sum(requested) < K * windowed.branches_solved


@pytest.mark.parametrize("t", [T, 2.0, 4.0])
def test_window_rounds_up_per_multiplicity(t, monkeypatch):
    spec = TransverseSpectrum(entries=[(-1.0, 3), (-0.5, 2), (0.0, 3),
                                       (0.5, 2), (1.0, 3)], symmetric=True)
    windowed, full, requested = _windowed_and_full(
        monkeypatch, exponential_profile(2, t), spec, t, 2, 7, 512)
    _assert_same_spectrum(windowed, full)
    # mu0 in order of min V, as mu0 (min V, multiplicity): 0 (0, 3),
    # 0.5 (0, 2), -0.5 (0.5, 2), 1 (0.5, 3), -1 (1.5, 3).  With nothing kept
    # below min V a branch asks for ceil(7 / mult) values; the one kept value
    # that gets below a min V is the harmonic bottom pi^2/t^2 (mult 3), under
    # mu0 = -1 once t > pi / sqrt(1.5), which leaves ceil((7 - 3) / 3) = 2
    last = 2 if t > math.pi / math.sqrt(1.5) else 3
    assert requested == [3, 4, 4, 3, last]


def test_order_one_sampled_profile_assembles(monkeypatch):
    # a piecewise-linear profile has no second derivative; the branch ordering
    # and the Liouville route need only rho and rho'
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
