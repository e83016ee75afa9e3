"""Branch assembly: merging, provenance, truncation safety, branch skipping."""

import math

import numpy as np
import pytest

from diraclab import assemble
from diraclab.assemble import (AssembledSpectrum, assemble_spectrum,
                               lowest_eigenvalue_bound)
from diraclab.errors import TruncationRiskError, UsageError
from diraclab.profiles import WarpingProfile, exponential_profile
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


def test_branch_vmin_runs_once_per_branch(monkeypatch):
    calls = []
    original = assemble.branch_potential

    def counted(mu0, rho0, rho, h):
        calls.append(mu0)
        return original(mu0, rho0, rho, h)

    monkeypatch.setattr(assemble, "branch_potential", counted)
    spec = circle_spectrum(2 * T, 0.0, 6)
    asm = assemble_spectrum(exponential_profile(2, T), spec, T, 2, K=4, mesh=512)
    assert sorted(calls) == sorted(mu0 for mu0, _ in spec.entries)
    assert asm.branches_skipped > 0


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
