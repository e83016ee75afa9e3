"""Collapse sweep: lowest-eigenvalue bounds and coefficient-norm growth."""

import math
import re

import pytest

from diraclab.errors import MAX_SOBOLEV_ORDER, UsageError
from diraclab.profiles import (MollifiedStep, constant_profile,
                               exponential_profile)
from diraclab.stretch import (run_stretch_sweep, sobolev_growth_fit,
                              sobolev_growth_fits)
from diraclab.transverse import TransverseSpectrum, circle_spectrum

HARMONIC = TransverseSpectrum(entries=[(0.0, 1)], symmetric=True)
TS = [2.0, 4.0, 8.0, 16.0]


def harmonic_sweep(mesh=512, panels=1024, **kw):
    kw.setdefault("norm_ks", (0, 1, 2, 3))
    return run_stretch_sweep(exponential_profile(2, TS[-1]), HARMONIC, TS,
                             mesh=mesh, panels=panels, **kw)


def test_bounds_are_quarters_and_hold():
    rep = harmonic_sweep()
    for row in rep.rows:
        assert row.bound == pytest.approx(math.pi**2 / row.t**2, rel=1e-14)
        assert row.lambda0 <= row.bound + rep.tolerance
    assert rep.bounds_hold
    assert rep.bounds_quarter_on_doubling


def test_harmonic_only_input_attains_the_bound():
    rep = harmonic_sweep()
    assert rep.harmonic_only
    assert rep.equality_defect is not None
    assert rep.equality_defect <= 1e-6


def test_a_harmonic_entry_within_tolerance_counts_as_harmonic_only():
    # the sweep's harmonic check and its harmonic-only flag use one rule:
    # |mu| <= 1e-12 is the harmonic branch
    near_zero = TransverseSpectrum(((1e-13, 1),), True)
    rep = run_stretch_sweep(exponential_profile(2, 4.0), near_zero, [2.0, 4.0],
                            mesh=256, norm_ks=[0], panels=64)
    assert rep.harmonic_only
    assert rep.equality_defect is not None


def test_cylinder_volume_decreases_with_stretch():
    rep = harmonic_sweep()
    vols = [r.vol_cylinder for r in rep.rows]
    assert all(b < a for a, b in zip(vols, vols[1:]))
    assert rep.cylinder_volume_decreasing


def test_normalized_volume_is_one():
    rep = harmonic_sweep()
    for row in rep.rows:
        assert row.vol_normalized == pytest.approx(1.0, abs=1e-9)
    assert rep.normalization_ok


def test_norm_ratios_stay_below_half_again():
    rep = harmonic_sweep()
    assert set(rep.norm_ratios) == {0, 1, 2, 3}
    for k, ratio in rep.norm_ratios.items():
        assert ratio >= 1.0
        assert ratio <= 1.5, f"H^{k} ratio {ratio}"


def test_sweep_passes_and_serializes():
    rep = harmonic_sweep()
    assert rep.passed
    header, rows = rep.to_rows()
    assert header[:4] == ["t", "bound", "lambda0", "margin"]
    assert len(rows) == len(TS)
    doc = rep.to_dict()
    assert doc["passed"] is True
    assert doc["harmonic_only"] is True
    assert [r["t"] for r in doc["rows"]] == TS


def test_full_circle_spectrum_still_bounded():
    spec = circle_spectrum(2 * math.pi, 0.0, 2)
    rep = run_stretch_sweep(exponential_profile(2, 8.0), spec, [2.0, 4.0],
                            mesh=512, panels=512)
    assert rep.bounds_hold
    assert not rep.harmonic_only
    assert rep.equality_defect is None


def test_sweep_input_validation():
    with pytest.raises(UsageError):
        run_stretch_sweep(constant_profile(1.0, 4.0), HARMONIC, TS)
    no_harm = TransverseSpectrum(entries=[(-1.0, 1), (1.0, 1)], symmetric=True)
    with pytest.raises(UsageError):
        run_stretch_sweep(exponential_profile(2, 4.0), no_harm, TS)
    with pytest.raises(UsageError):
        run_stretch_sweep(exponential_profile(2, 4.0), HARMONIC, [2.0])
    with pytest.raises(UsageError):
        run_stretch_sweep(exponential_profile(2, 4.0), HARMONIC, [4.0, 2.0])
    with pytest.raises(UsageError):
        run_stretch_sweep(exponential_profile(2, 4.0), HARMONIC, TS, mesh=256,
                          panels=64, norm_ks=(-1, 2))


@pytest.mark.parametrize("norm_ks", [(0, 1.5), (1.5, 2)])
def test_sweep_rejects_a_non_integer_order(norm_ks):
    with pytest.raises(UsageError):
        harmonic_sweep(mesh=256, panels=64, norm_ks=norm_ks)


@pytest.mark.parametrize("panels", [63, 0])
def test_sweep_rejects_a_bad_panel_count(panels):
    with pytest.raises(UsageError):
        harmonic_sweep(mesh=256, panels=panels)


@pytest.mark.parametrize("tolerance", [math.nan, -1.0])
def test_sweep_rejects_a_bad_tolerance(tolerance):
    # bad input, not a failed bound: no report with bounds_hold=False
    with pytest.raises(UsageError):
        harmonic_sweep(mesh=256, panels=64, tolerance=tolerance)


def test_sweep_measures_each_piece_once(monkeypatch):
    # the volumes and every requested H^k norm come from one order-max(k)
    # jet per piece, so asking for fewer orders evaluates no fewer cutoffs
    calls = []
    original = MollifiedStep._eval

    def counted(self, x, d):
        calls.append(d)
        return original(self, x, d)

    monkeypatch.setattr(MollifiedStep, "_eval", counted)
    counts, h3 = [], []
    for norm_ks in ((0, 1, 2, 3), (3,)):
        calls.clear()
        rep = harmonic_sweep(mesh=256, panels=64, norm_ks=norm_ks)
        counts.append(len(calls))
        h3.append([r.hk_norms[3] for r in rep.rows])
    assert counts[0] > 0
    assert counts[0] == counts[1]
    assert h3[0] == h3[1]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_growth_slopes_within_ceiling(k):
    fit = sobolev_growth_fit(k, TS, panels=1024)
    assert fit.limit == max(4.0, 2.0 * k) + 0.2
    assert fit.within_limit
    assert fit.slope > 0.0


@pytest.mark.parametrize("m", [2, 3])
def test_several_growth_fits_equal_their_single_k_calls(m):
    # one measure(max k) per t: each norm is a prefix sum of the same
    # per-order integrals, so every fit is its single-k call to the last bit
    ks = [3, 0, 2, 1, 2]
    fits = sobolev_growth_fits(ks, TS, m=m, panels=512)
    assert [f.to_dict() for f in fits] == [
        sobolev_growth_fit(k, TS, m=m, panels=512).to_dict() for k in ks]


def test_several_growth_fits_measure_each_metric_once(monkeypatch):
    from diraclab.metrics import PiecewiseMetric
    orders = []
    original = PiecewiseMetric.measure

    def counted(self, k, panels=4096):
        orders.append(k)
        return original(self, k, panels)

    monkeypatch.setattr(PiecewiseMetric, "measure", counted)
    sobolev_growth_fits([0, 1, 2, 3], TS, panels=64)
    assert orders == [3] * len(TS)


def test_several_growth_fits_validate_every_order():
    with pytest.raises(UsageError):
        sobolev_growth_fits([0, -1], TS, panels=64)
    assert sobolev_growth_fits([], TS, panels=64) == []


def test_growth_fit_validation():
    with pytest.raises(UsageError):
        sobolev_growth_fit(1, [2.0, 4.0, 8.0])             # too few
    with pytest.raises(UsageError):
        sobolev_growth_fit(1, [2.0, 3.0, 4.0, 6.0])        # span < 8x
    with pytest.raises(UsageError):
        sobolev_growth_fit(1, [-1.0, 2.0, 4.0, 16.0])      # nonpositive
    with pytest.raises(UsageError):
        sobolev_growth_fit(1.5, TS, panels=64)              # non-integer order


def test_the_highest_sobolev_order_measures_finite_norms():
    rows = harmonic_sweep(mesh=256, panels=256,
                          norm_ks=[MAX_SOBOLEV_ORDER]).rows
    fit = sobolev_growth_fit(MAX_SOBOLEV_ORDER, TS, panels=256)
    assert all(math.isfinite(r.hk_norms[MAX_SOBOLEV_ORDER]) for r in rows)
    assert all(map(math.isfinite, fit.norm_sqs)) and math.isfinite(fit.slope)


@pytest.mark.parametrize("k,ts", [(MAX_SOBOLEV_ORDER, [1e9, 2e9, 4e9, 1e10]),
                                  (4, [1e100, 2e100, 4e100, 1e101])])
def test_growth_fit_refuses_norms_beyond_float64(k, ts):
    # the pulled-back norms carry t^(2k); past float64 they are refused
    # with k and the first such t, not returned as inf or NaN
    with pytest.raises(UsageError, match=re.escape(
            f"H^0..H^{k} norms at t = {ts[0]!r} are not all finite")):
        sobolev_growth_fit(k, ts, panels=64)


def test_sweep_refuses_norms_beyond_float64(monkeypatch):
    from diraclab.metrics import PiecewiseMetric

    def overflowing(self, k, panels=4096):
        return {"cylinder": 1.0}, [math.inf] * (k + 1)

    monkeypatch.setattr(PiecewiseMetric, "measure", overflowing)
    with pytest.raises(UsageError, match=re.escape(
            "H^0..H^3 norms at t = 2.0 are not all finite")):
        harmonic_sweep(mesh=256, panels=64)


@pytest.mark.parametrize("panels", [63, 0])
def test_growth_fit_rejects_a_bad_panel_count(panels):
    with pytest.raises(UsageError):
        sobolev_growth_fit(1, TS, panels=panels)


def test_growth_fit_serializes():
    doc = sobolev_growth_fit(0, TS, panels=512).to_dict()
    assert doc["within_limit"] is True
    assert doc["t_values"] == TS
    assert len(doc["norm_sqs"]) == len(TS)
