"""Collapse sweep: lowest-eigenvalue bounds and coefficient-norm growth."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from diraclab import stretch
from diraclab.errors import MAX_SOBOLEV_ORDER, ResolutionError, UsageError
from diraclab.profiles import (MollifiedStep, constant_profile,
                               exponential_profile)
from diraclab.stretch import (StretchReport, StretchRow, run_stretch_sweep,
                              sobolev_growth_fit, sobolev_growth_fits)
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


def test_quarter_check_is_null_without_a_doubling_pair():
    # t = 2, 3 and 3, 5 double nowhere, so nothing is checked; t = 3, 6 does
    for ts, quarters in (([2.0, 3.0], None), ([3.0, 5.0], None),
                         ([2.0, 3.0, 6.0], True)):
        rep = run_stretch_sweep(exponential_profile(2, ts[-1]), HARMONIC, ts,
                                mesh=256, panels=256, norm_ks=(0,))
        assert rep.bounds_quarter_on_doubling is quarters
        assert rep.to_dict()["bounds_quarter_on_doubling"] is quarters


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
    # a lone number, not a list
    with pytest.raises(UsageError, match=re.escape(
            "Sobolev orders norm_ks must be a list, not 3")):
        run_stretch_sweep(exponential_profile(2, 4.0), HARMONIC, TS, norm_ks=3)
    with pytest.raises(UsageError, match=re.escape(
            "stretch parameters t_values must be a list, not 2.0")):
        run_stretch_sweep(exponential_profile(2, 4.0), HARMONIC, 2.0)


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
    with pytest.raises(UsageError, match=re.escape(
            "Sobolev orders k_values must be a list, not 3")):
        sobolev_growth_fits(3, TS, panels=64)
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
    with pytest.raises(UsageError, match=re.escape(
            "stretch parameters t_values must be a list, not 2.0")):
        sobolev_growth_fit(1, 2.0)                          # a lone t


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


@pytest.mark.parametrize("k,ts,advice", [
    (0, [1e160, 2e160, 4e160, 8e160], "lower t"),
    (3, [1e160, 2e160, 4e160, 8e160], "lower t"),
    (MAX_SOBOLEV_ORDER, [1e9, 2e9, 4e9, 1e10], "lower the Sobolev order k"),
])
def test_growth_fit_advice_names_the_cause(k, ts, advice):
    # t^2 in the pulled-back metric overflows from t ~ 1.3e154, so the
    # volumes are not finite and no lower k helps; at t = 1e9 only the
    # higher norms, which carry t^(2k), leave float64
    with pytest.raises(UsageError) as info:
        sobolev_growth_fit(k, ts, panels=64)
    assert str(info.value).endswith(f"are not all finite in float64; {advice}")


def test_sweep_refuses_norms_beyond_float64(monkeypatch):
    from diraclab.metrics import PiecewiseMetric

    def overflowing(self, k, panels=4096):
        return {"cylinder": 1.0}, [math.inf] * (k + 1)

    monkeypatch.setattr(PiecewiseMetric, "measure", overflowing)
    with pytest.raises(UsageError, match=re.escape(
            "H^0..H^3 norms at t = 2.0 are not all finite")):
        harmonic_sweep(mesh=256, panels=64)


@pytest.mark.parametrize("volume", [0.0, -0.0])
def test_sweep_refuses_a_cylinder_volume_that_underflows(monkeypatch, volume):
    # e^{-3t/2} 2 (1 - e^{-t/2}) is 0 in float64 from t ~ 497 (m = 3)
    from diraclab.metrics import PiecewiseMetric

    def underflowing(self, k, panels=4096):
        return {"cylinder": volume}, [1.0] * (k + 1)

    monkeypatch.setattr(PiecewiseMetric, "measure", underflowing)
    with pytest.raises(UsageError, match=re.escape(
            f"cylinder volume at t = 2.0 underflows to {volume!r}")):
        harmonic_sweep(mesh=256, panels=64)


@pytest.mark.parametrize("ts", [[1e-300, 1e-299], [1e-80, 2e-80]])
def test_sweep_refuses_a_t_too_short_for_its_mesh(ts):
    # the first t has the finest spacing; it is refused before any point
    with pytest.raises(ResolutionError, match=re.escape(
            f"t = {ts[0]!r} is too short for a mesh of 512 interior points")):
        run_stretch_sweep(exponential_profile(2, 1.0), HARMONIC, ts, mesh=512)


def test_growth_fit_names_raise_t_where_t_squared_underflows():
    # at t = 1e-300 the pulled-back metric's factor t^2 is 0 in float64
    with pytest.raises(UsageError, match=re.escape(
            "cylinder volume at t = 1e-300 underflows to 0.0 in float64; "
            "raise t")):
        sobolev_growth_fit(0, [1e-300, 2e-300, 4e-300, 8e-300], panels=64)


def _failed(report, **rows):
    """``report`` with its rows' fields replaced by ``rows`` (one list per
    field); its flags follow from the new rows."""
    fresh = [replace(r, **{key: values[i] for key, values in rows.items()})
             for i, r in enumerate(report.rows)]
    return replace(report, rows=fresh)


def test_each_failed_check_is_named_with_its_worst_margin():
    rep = run_stretch_sweep(exponential_profile(2, 4.0), HARMONIC,
                            [2.0, 4.0, 8.0], mesh=256, norm_ks=[0], panels=64)
    assert rep.passed and rep.failures() == []
    spoilt = dict(vol_cylinder=[1.0, 2.0, 1.5],
                  vol_normalized=[1.0, 1.0 + 3e-12, 1.0 - 1e-11])
    bad = _failed(rep, lambda0=[r.bound + d
                                for r, d in zip(rep.rows, [1e-3, 3e-3, 2e-3])],
                  **spoilt)
    assert not (bad.bounds_hold or bad.cylinder_volume_decreasing
                or bad.normalization_ok or bad.passed)
    # margins: tolerance 1e-6 less 1e-3, 3e-3, 2e-3; 1 - 2 and 2 - 1.5;
    # 1e-12 - 0, - 3e-12 and - 1e-11
    assert bad.failures() == [
        "bounds_hold: worst margin bound + tolerance - lambda0 = -0.003 "
        "at t = 4.0",
        "cylinder_volume_decreasing: worst margin vol_cylinder(t = 2.0) "
        "- vol_cylinder(t = 4.0) = -1",
        "normalization_ok: worst margin 1e-12 - |vol_normalized - 1| "
        "= -9e-12 at t = 8.0"]
    # a check that passes is not named: each lambda0 at its bound
    good = _failed(rep, lambda0=[r.bound for r in rep.rows], **spoilt)
    assert good.bounds_hold and not good.passed
    assert good.failures() == bad.failures()[1:]


@pytest.mark.parametrize("panels", [63, 0])
def test_growth_fit_rejects_a_bad_panel_count(panels):
    with pytest.raises(UsageError):
        sobolev_growth_fit(1, TS, panels=panels)


def test_growth_fit_serializes():
    doc = sobolev_growth_fit(0, TS, panels=512).to_dict()
    assert doc["within_limit"] is True
    assert doc["t_values"] == TS
    assert len(doc["norm_sqs"]) == len(TS)


# flag parity: each flag equals the rule it had when it was written as its
# own all(...), on random rows full of exact ties and of the floats on either
# side of each boundary
_UP, _DOWN = math.inf, -math.inf


def _random_rows(rng, tolerance, volume_tol):
    n = int(rng.integers(2, 6))
    ts = np.cumsum(rng.uniform(0.5, 4.0, n)).tolist()
    rows = []
    vol = float(rng.uniform(0.5, 2.0))
    for i, t in enumerate(ts):
        bound = math.pi**2 / t**2 * float(rng.choice([1.0, rng.uniform(0.5, 2.0)]))
        tie = bound + tolerance                     # lambda0 = bound + tolerance
        lambda0 = float(rng.choice([tie, math.nextafter(tie, _UP),
                                    math.nextafter(tie, _DOWN),
                                    bound - rng.uniform(0.0, 1e-3),
                                    bound + rng.uniform(0.0, 3e-6)]))
        if i:                   # equal, barely smaller or larger, or falling
            vol = float(rng.choice([vol, math.nextafter(vol, _DOWN),
                                    math.nextafter(vol, _UP),
                                    vol * rng.uniform(0.2, 0.99),
                                    vol * rng.uniform(0.2, 0.99)]))
        sign = float(rng.choice([1.0, -1.0]))
        edge = 1.0 + sign * volume_tol              # |vol_normalized - 1| ~ tol
        normalized = float(rng.choice([1.0, edge, math.nextafter(edge, _UP),
                                       math.nextafter(edge, _DOWN),
                                       1.0 + sign * rng.uniform(0.0, 2.0) * volume_tol]))
        rows.append(StretchRow(t=t, bound=bound, lambda0=lambda0,
                               lambda0_error=0.0, margin=bound - lambda0,
                               vol_cylinder=vol, vol_total=2.0 * vol,
                               vol_normalized=normalized, hk_norms={}))
    return rows


# 1e-12, the tolerance in use, is no difference of floats near 1, so
# |vol_normalized - 1| only straddles it; 2^-40 is one, and ties exactly
@pytest.mark.parametrize("volume_tol", [1e-12, 2.0**-40])
def test_sweep_flags_equal_their_all_rules_on_ties(monkeypatch, volume_tol):
    monkeypatch.setattr(stretch, "_VOLUME_TOL", volume_tol)
    rng = np.random.default_rng(30)
    seen = {name: set() for name in ("bounds", "volume", "normalization")}
    for _ in range(150):
        tolerance = float(rng.choice([1e-6, 2.0**-20, rng.uniform(1e-9, 1e-3)]))
        rows = _random_rows(rng, tolerance, volume_tol)
        report = StretchReport(rows=rows, m=2, mesh=256, tolerance=tolerance,
                               harmonic_only=True,
                               bounds_quarter_on_doubling=True, norm_ratios={},
                               equality_defect=None)
        bounds = all(r.lambda0 <= r.bound + tolerance for r in rows)
        volume = all(b.vol_cylinder < a.vol_cylinder
                     for a, b in zip(rows, rows[1:]))
        normalization = all(abs(r.vol_normalized - 1.0) <= volume_tol
                            for r in rows)
        assert report.bounds_hold is bounds
        assert report.cylinder_volume_decreasing is volume
        assert report.normalization_ok is normalization
        assert report.passed is (bounds and volume and normalization)
        doc = report.to_dict()
        assert (doc["bounds_hold"], doc["cylinder_volume_decreasing"],
                doc["normalization_ok"], doc["passed"]) == (
            bounds, volume, normalization, report.passed)
        failed = [name for name, holds in [
            ("bounds_hold", bounds), ("cylinder_volume_decreasing", volume),
            ("normalization_ok", normalization)] if not holds]
        assert [line.split(":")[0] for line in report.failures()] == failed
        for name, holds in zip(seen, (bounds, volume, normalization)):
            seen[name].add(holds)
        # the ties themselves, which the all(...) rules pass
        if any(r.lambda0 == r.bound + tolerance for r in rows) and bounds:
            seen["bounds"].add("tie")
        if any(a.vol_cylinder == b.vol_cylinder
               for a, b in zip(rows, rows[1:])):
            seen["volume"].add("tie")
        if any(abs(r.vol_normalized - 1.0) == volume_tol for r in rows):
            seen["normalization"].add("tie")
    assert seen["bounds"] == {True, False, "tie"}
    assert seen["volume"] == {True, False, "tie"}
    assert {True, False} <= seen["normalization"]
    assert ("tie" in seen["normalization"]) == (volume_tol == 2.0**-40)


@pytest.mark.parametrize("slope,within", [
    (4.2, True), (math.nextafter(4.2, _DOWN), True),
    (math.nextafter(4.2, _UP), False), (5.0, False)])
def test_a_growth_fit_holds_at_its_limit(slope, within):
    fit = replace(sobolev_growth_fit(0, TS, panels=256), slope=slope)
    assert fit.limit == 4.2
    assert fit.within_limit is within is (slope <= fit.limit)
    assert fit.to_dict()["within_limit"] is within
