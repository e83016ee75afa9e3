"""Piecewise neck metrics: volumes, Sobolev norms, gluing continuity."""

import math
import warnings

import numpy as np
import pytest

from diraclab.errors import DiracLabError, UsageError
from diraclab.metrics import (CylinderPiece, PiecewiseMetric, _StepJets,
                              build_neck_family, flat_cylinder,
                              pullback_cylinder_metric)
from diraclab.profiles import (MollifiedStep, constant_profile, exp_jet,
                               exponential_profile, step_jet)
from diraclab.stretch import run_stretch_sweep
from diraclab.transverse import circle_spectrum


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

def test_cylinder_volume_closed_form():
    # m = 4 exponential: dvol density is rho^{m-1} = e^{-u/2};
    # integral over [0, ln 4] is 2 (1 - 1/2) = 1 exactly.
    t = math.log(4.0)
    fam = build_neck_family(exponential_profile(4, t), m=4)
    cyl = fam.stretched.piece("cylinder")
    assert cyl.measure(0, 4)[0] == pytest.approx(1.0, rel=1e-12)


def test_cylinder_volume_two_resolutions_agree():
    fam = build_neck_family(exponential_profile(3, 5.0), m=3)
    cyl = fam.rescaled.piece("cylinder")
    v1 = cyl.measure(0, 3, panels=512)[0]
    v2 = cyl.measure(0, 3, panels=4096)[0]
    assert v1 == pytest.approx(v2, rel=1e-6)


def test_flat_cylinder_h0_norm():
    # a = 1, r^2 = 1: ||g||^2_{H^0} = (1 + (m-1)) * t = m t
    for m, t in ((2, 3.0), (5, 2.0)):
        fc = flat_cylinder(m, t)
        assert fc.hk_norm_sq(0) == pytest.approx(m * t, rel=1e-12)
        # constant coefficients: derivative terms vanish identically
        assert fc.hk_norm_sq(3) == pytest.approx(m * t, rel=1e-12)


def test_pullback_norm_closed_form():
    # pullback to [0, 1] of the m = 2 exponential neck: a = t^2,
    # r^2 = e^{-t u}, so  ||.||^2_{H^0} = t^4 + (1 - e^{-2t}) / (2t).
    for t in (2.0, 5.0, 16.0):
        pb = pullback_cylinder_metric(exponential_profile(2, t), t)
        expect = t**4 + (1.0 - math.exp(-2.0 * t)) / (2.0 * t)
        assert pb.hk_norm_sq(0) == pytest.approx(expect, rel=1e-10)


def test_hk_norm_monotone_in_k():
    pb = pullback_cylinder_metric(exponential_profile(2, 4.0), 4.0)
    norms = [pb.hk_norm_sq(k) for k in range(4)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))


# build_neck_family(exponential_profile(m, 3.0)).rescaled.hk_norm_sq(k,
# panels=512) for k = 0..3, computed with one tree evaluation per derivative
# order (no jets)
GLUED_HK_TABLE = {
    2: [2.468737439076875, 6.91382256090488, 83.79285065242514,
        6741.644703691601],
    3: [3.0411157431590636, 9.108828231131149, 114.18232765406091,
        9257.917182023877],
}


@pytest.mark.parametrize("m", sorted(GLUED_HK_TABLE))
def test_glued_family_hk_norms_match_frozen_table(m):
    fam = build_neck_family(exponential_profile(m, 3.0))
    got = [fam.rescaled.hk_norm_sq(k, panels=512) for k in range(4)]
    assert got == pytest.approx(GLUED_HK_TABLE[m], rel=1e-13)


def test_hk_norm_evaluates_each_coefficient_once(monkeypatch):
    calls = []
    original = MollifiedStep._eval

    def counted(self, x, d):
        calls.append(d)
        return original(self, x, d)

    monkeypatch.setattr(MollifiedStep, "_eval", counted)
    fam = build_neck_family(exponential_profile(2, 3.0))
    counts = []
    for k in range(4):
        calls.clear()
        fam.rescaled.hk_norm_sq(k, panels=64)
        counts.append(len(calls))
    # one jet per cutoff leaf, whatever the order k
    assert counts[0] > 0
    assert counts == [counts[0]] * 4


def test_measure_evaluates_each_step_leaf_once_per_piece(monkeypatch):
    # both coefficients of a rescaled collar hold the damping cutoff phi_t,
    # whose two steps are psi = step(u + 1) and step(u - 1); the family's
    # store evaluates each of them once per grid.  The exit collar's chi is
    # the stored step(u - 1) wherever the shift by t - 1 is exact, as it is
    # at every node for t = 3 and 64 panels, and its step(u - 1) is the
    # entry collar's step(u + 1), the same argument array.  The cylinder,
    # where phi_t is the constant e^{-t}, takes no step.
    calls = []
    original = MollifiedStep._eval

    def counted(self, x, d):
        calls.append(d)
        return original(self, x, d)

    monkeypatch.setattr(MollifiedStep, "_eval", counted)
    fam = build_neck_family(exponential_profile(2, 3.0))
    calls.clear()
    fam.rescaled.measure(3, 64)
    steps_per_piece = {"collar_in": 2, "cylinder": 0, "collar_out": 1}
    assert len(calls) == sum(steps_per_piece.values())
    assert calls == [3] * len(calls)
    calls.clear()
    fam.rescaled.measure(3, 64)          # the second measure reads the store
    assert calls == []


def test_scaling_a_metric_scales_volume_and_norm():
    fam = build_neck_family(exponential_profile(2, 2.0), m=2)
    g = fam.stretched
    c = 0.3
    scaled = g.scaled(c)
    # tensor scale c multiplies dvol by c^{m/2} and the H^0 integrand by c^2
    assert scaled.total_volume() == pytest.approx(
        c ** (g.m / 2) * g.total_volume(), rel=1e-9)
    assert scaled.hk_norm_sq(0) == pytest.approx(
        c**2 * g.hk_norm_sq(0), rel=1e-9)


def test_normalized_unit_volume():
    fam = build_neck_family(exponential_profile(4, 10.0), m=4)
    volume = fam.rescaled.total_volume()
    unit, factor = fam.rescaled.normalized_unit_volume(volume)
    assert unit.total_volume() == pytest.approx(1.0, abs=1e-12)
    assert factor == pytest.approx(fam.rescaled.total_volume() ** (-2.0 / 4.0),
                                   rel=1e-12)


def test_volumes_do_not_depend_on_the_measured_order():
    # the stretch sweep normalizes with the volume of its order-k pass, so
    # it must be the order-0 volume to the last bit
    g = build_neck_family(exponential_profile(3, 5.0)).rescaled
    for k in range(4):
        volumes, _ = g.measure(k, panels=512)
        assert float(sum(volumes.values())) == g.total_volume(512)


@pytest.mark.parametrize("k,panels", [(1.5, 64), (-1, 64), (1, 63), (1, 0),
                                      (1, 64.5)])
def test_measure_rejects_bad_order_or_panels(k, panels):
    g = flat_cylinder(2, 1.0)
    with pytest.raises(UsageError):
        g.measure(k, panels)


def test_measure_reads_integral_floats_as_integers():
    g = flat_cylinder(2, 1.0)
    assert g.measure(1.0, 64.0) == g.measure(1, 64)


# ---------------------------------------------------------------------------
# gluing continuity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,t", [(2, 2.0), (2, 16.0), (4, 10.0), (3, 1.0)])
def test_neck_family_interfaces_are_continuous(m, t):
    fam = build_neck_family(exponential_profile(m, t), m=m)
    assert fam.stretched.max_interface_defect() <= 1e-12
    assert fam.rescaled.max_interface_defect() <= 1e-12


def test_interface_defect_detects_a_gap():
    a = CylinderPiece("left", 0.0, 1.0, lambda u, k: (
        exp_jet(1.0, 0.0, u, k), exp_jet(1.0, 0.0, u, k)))
    b = CylinderPiece("right", 1.0, 2.0, lambda u, k: (
        exp_jet(1.0, 0.0, u, k), exp_jet(4.0, 0.0, u, k)))
    g = PiecewiseMetric((a, b), m=2)
    assert g.max_interface_defect() == pytest.approx(1.0)   # r jumps 1 -> 2


def test_gluing_check_evaluates_each_piece_once(monkeypatch):
    # the interface check evaluates each cylinder piece once, at both ends.
    # The family's store takes each step of phi_t once per argument: the
    # ends of the entry and exit collars shifted by +-1 give three distinct
    # pairs, the entry collar's step(u + 1) being the exit collar's
    # step(u - 1) and shared by both metrics.  The stretched exit collar
    # adds its chi, and the rescaled one reads step(u - 1); the rescaled
    # cylinder takes no step.
    calls = []
    original = MollifiedStep._eval

    def counted(self, x, d):
        calls.append(d)
        return original(self, x, d)

    monkeypatch.setattr(MollifiedStep, "_eval", counted)
    build_neck_family(exponential_profile(2, 3.0))
    assert len(calls) == 3 + 1


# ---------------------------------------------------------------------------
# the step store of a stretch sweep
# ---------------------------------------------------------------------------

SWEEP_PANELS = 256
HARMONIC = circle_spectrum(2.0 * math.pi, 0.0, 0)


def sweep(m, ts, norm_ks=(0, 1, 2, 3)):
    return run_stretch_sweep(exponential_profile(m, ts[-1]), HARMONIC, ts,
                             mesh=128, norm_ks=norm_ks, panels=SWEEP_PANELS)


@pytest.mark.parametrize("m,ts", [(2, [2.0, 4.0]), (3, [1.3, 2.9, 5.71, 9.07])])
def test_sweep_rows_equal_fresh_per_point_measures(m, ts):
    # the shared store changes no bit of any row: each row's metric fields
    # equal a fresh family's own measure and normalized re-measure
    report = sweep(m, ts)
    for t, row in zip(ts, report.rows):
        metric = build_neck_family(exponential_profile(m, t)).rescaled
        volumes, norms = metric.measure(3, SWEEP_PANELS)
        total = float(sum(volumes.values()))
        normalized, _ = metric.normalized_unit_volume(total)
        fresh = {"vol_cylinder": volumes["cylinder"], "vol_total": total,
                 "vol_normalized": normalized.total_volume(SWEEP_PANELS),
                 **{f"h{k}_norm_sq": norms[k] for k in range(4)}}
        doc = row.to_dict()
        assert {key: doc[key] for key in fresh} == fresh


def test_sweep_takes_each_skeleton_step_once(monkeypatch):
    # psi = step(u + 1) and step(u - 1) on the Simpson nodes of the three
    # rescaled pieces: at most six arguments, each taken once per sweep,
    # whatever the number of t values.  Every other evaluation is at the
    # two ends of a piece, or the stretched exit collar's chi; none spans
    # a whole grid.
    grids = []
    original = MollifiedStep._eval

    def counted(self, x, d):
        if np.size(x) == SWEEP_PANELS + 1:
            grids.append(np.asarray(x).tobytes())
        return original(self, x, d)

    monkeypatch.setattr(MollifiedStep, "_eval", counted)
    counts = []
    for ts in ([2.0, 4.0], [1.3, 2.9, 5.71, 9.07, 15.3]):
        grids.clear()
        sweep(2, ts)
        assert len(grids) == len(set(grids))
        counts.append(len(grids))
    assert 0 < counts[0] == counts[1] <= 3 * 2


def test_store_slices_a_stored_higher_order():
    steps = _StepJets()
    x = np.linspace(-0.25, 1.25, 33)
    high = steps(x, 3)
    low = steps(x, 1)
    assert np.shares_memory(high, low)
    np.testing.assert_array_equal(high[:2], low)
    np.testing.assert_array_equal(low, step_jet(x, 1))
    assert not low.flags.writeable


def test_stretched_radius_at_the_far_end():
    # r(t) on the neck must hit rho(t) = e^{-t/(2(m-1))}
    m, t = 4, 10.0
    fam = build_neck_family(exponential_profile(m, t), m=m)
    cyl = fam.stretched.piece("cylinder")
    assert cyl.r(t) == pytest.approx(math.exp(-10.0 / 6.0), rel=1e-12)
    assert cyl.r(0.0) == pytest.approx(1.0, rel=1e-12)


def test_rescaled_family_at_unit_length_is_conformal_to_stretched():
    # at t = 1 the squeezed description is phi_1 times the stretched one,
    # piece by piece, because the reparametrization is the identity
    # (the damping cutoff phi_t is the du^2 coefficient of the rescaled
    # entry collar, read here on each piece's span)
    fam = build_neck_family(exponential_profile(2, 1.0), m=2)
    damped_collar = fam.rescaled.piece("collar_in")
    for label in ("collar_in", "cylinder", "collar_out"):
        a = fam.stretched.piece(label)
        b = fam.rescaled.piece(label)
        assert (a.u_start, a.u_end) == (b.u_start, b.u_end)
        u = np.linspace(a.u_start, a.u_end, 33)
        phi = damped_collar.jets(u, 0)[0][0]
        for plain, damped in zip(a.jets(u, 0), b.jets(u, 0)):
            np.testing.assert_allclose(damped[0], phi * plain[0],
                                       rtol=1e-12, atol=1e-14)


def test_core_block_scales():
    m, t = 2, 3.0
    p = exponential_profile(m, t)
    fam = build_neck_family(p, m=m)
    rho = lambda u: math.exp(-u / (2 * (m - 1)))
    vols_s = fam.stretched.piece_volumes()
    vols_r = fam.rescaled.piece_volumes()
    # block volume = scale^{m/2}
    assert vols_s["core"] == pytest.approx(rho(t + 1.0) ** m, rel=1e-12)
    assert vols_r["core"] == pytest.approx(rho(2.0) ** m, rel=1e-12)
    assert vols_s["complement"] == pytest.approx(1.0)


def test_collar_in_interpolates_between_unit_and_profile_start():
    # inner collar: r^2 goes from the unit cross-section at u = -1 to
    # rho(0)^2 = 1 at u = 0 (exponential profiles start at 1, so it is flat)
    fam = build_neck_family(exponential_profile(2, 2.0), m=2)
    col = fam.stretched.piece("collar_in")
    assert col.r(-1.0) == pytest.approx(1.0, rel=1e-12)
    assert col.r(0.0) == pytest.approx(1.0, rel=1e-12)


def test_rescaled_cylinder_volume_closed_form():
    # Vol(neck, squeezed metric) = e^{-t m / 2} * int_0^t rho^{m-1} du, and
    # rho^{m-1} = e^{-u/2}: int_0^t e^{-u/2} du = 2 (1 - e^{-t/2}).  At large
    # t the volume is far below the scale e^{-t} of the cylinder.
    for m in (2, 3, 4):
        for t in (math.pi, 4.0, 8.0 * math.pi, 30.0, 40.0):
            fam = build_neck_family(exponential_profile(m, t), m=m)
            got = fam.rescaled.piece_volumes()["cylinder"]
            expect = math.exp(-t * m / 2.0) * 2.0 * (1.0 - math.exp(-t / 2.0))
            assert got == pytest.approx(expect, rel=1e-10, abs=0.0), (m, t)


def test_rescaled_cylinder_is_the_pullback_at_scale_e_minus_t():
    # on [0, 1] the damping cutoff is the constant e^{-t}, a tensor scale
    u = np.linspace(0.0, 1.0, 65)
    for m, t in ((2, 3.0), (3, 8.0 * math.pi), (4, 40.0)):
        p = exponential_profile(m, t)
        rescaled = build_neck_family(p).rescaled.piece("cylinder")
        pulled = pullback_cylinder_metric(p, t).piece("cylinder")
        assert (rescaled.u_start, rescaled.u_end) == (0.0, 1.0)
        for got, plain in zip(rescaled.jets(u, 3), pulled.jets(u, 3)):
            np.testing.assert_array_equal(got, math.exp(-t) * plain)


def test_a_damping_factor_that_underflows_is_refused():
    # e^{-t} is 0 in float64 from t = 745.14 on
    with pytest.raises(UsageError, match="t = 800.0"):
        build_neck_family(exponential_profile(3, 800.0))


def test_cylinder_volume_decreases_with_t():
    vols = []
    for t in (1.0, 2.0, 4.0, 8.0):
        fam = build_neck_family(exponential_profile(2, t), m=2)
        vols.append(fam.rescaled.piece_volumes()["cylinder"])
    assert all(b < a for a, b in zip(vols, vols[1:]))


# ---------------------------------------------------------------------------
# construction contract
# ---------------------------------------------------------------------------

def test_build_requires_m_for_non_exponential():
    from diraclab.profiles import constant_profile
    p = constant_profile(1.0, 2.0)
    with pytest.raises(UsageError):
        build_neck_family(p)
    fam = build_neck_family(p, m=3)
    assert fam.m == 3


def test_cylinder_metric_matches_family_piece():
    # the stretched cylinder is du^2 + rho(u)^2 dsigma^2 on [0, t]
    p = exponential_profile(2, 3.0)
    fam = build_neck_family(p, m=2)
    cyl = fam.stretched.piece("cylinder")
    u = np.linspace(0.0, 3.0, 11)
    a, r2 = cyl.jets(u, 2)
    np.testing.assert_array_equal(a, [np.ones_like(u), np.zeros_like(u),
                                      np.zeros_like(u)])
    np.testing.assert_allclose(r2, p.rho_sq_jet(u, 2), rtol=1e-13)


@pytest.mark.parametrize("build", [
    lambda: build_neck_family(exponential_profile(2, 3.0)).rescaled
    .normalized_unit_volume(0.0),
    lambda: build_neck_family(exponential_profile(3, 3.0)).rescaled
    .normalized_unit_volume(-1.0),
    lambda: pullback_cylinder_metric(exponential_profile(2, 3.0), math.inf),
    lambda: flat_cylinder(2, math.inf),
    lambda: flat_cylinder(2, 1.0).scaled(math.inf),
], ids=["zero-volume", "negative-volume", "infinite-pullback-t",
        "infinite-flat-t", "infinite-scale"])
def test_bad_metric_input_fails_closed(build):
    with pytest.raises(UsageError):
        build()


def test_metrics_on_a_constant_profile_with_a_huge_c_build_or_are_refused():
    # rho^2 = c^2 leaves float64 beyond c ~ 1.34e154: the pulled-back metric
    # builds and measures an infinite norm, the neck family is refused
    profile = constant_profile(1e200, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metric = pullback_cylinder_metric(profile, 2.0, m=3)
        assert metric.hk_norm_sq(1, panels=64) == math.inf
        with pytest.raises(UsageError, match=r"^rho\^2 at u = 0.0 is inf, "
                                             "beyond float64$"):
            build_neck_family(profile, m=3)
