"""Piecewise neck metrics: volumes, Sobolev norms, gluing continuity."""

import math

import numpy as np
import pytest

from diraclab.errors import DiracLabError, UsageError
from diraclab.metrics import (CylinderPiece, PiecewiseMetric,
                              build_neck_family, cylinder_metric,
                              flat_cylinder, pullback_cylinder_metric)
from diraclab.profiles import Const, MollifiedStep, exponential_profile


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
    # both coefficients of a rescaled piece hold the damping cutoff phi_t,
    # whose two steps are psi = step(u + 1) and step(u - 1); one memo per
    # piece evaluates each of them once.  The exit collar also holds chi, met
    # twice inside the shifted stretched collar and evaluated once there.
    calls = []
    original = MollifiedStep._eval

    def counted(self, x, d):
        calls.append(d)
        return original(self, x, d)

    monkeypatch.setattr(MollifiedStep, "_eval", counted)
    fam = build_neck_family(exponential_profile(2, 3.0))
    calls.clear()
    fam.rescaled.measure(3, 64)
    steps_per_piece = {"collar_in": 2, "cylinder": 2, "collar_out": 3}
    assert len(calls) == sum(steps_per_piece.values())
    assert calls == [3] * len(calls)


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
    a = CylinderPiece("left", 0.0, 1.0, Const(1.0), Const(1.0))
    b = CylinderPiece("right", 1.0, 2.0, Const(1.0), Const(4.0))
    g = PiecewiseMetric((a, b), m=2)
    assert g.max_interface_defect() == pytest.approx(1.0)   # r jumps 1 -> 2


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
    fam = build_neck_family(exponential_profile(2, 1.0), m=2)
    phi = fam.cutoffs.phi_t
    for label in ("collar_in", "cylinder", "collar_out"):
        a = fam.stretched.piece(label)
        b = fam.rescaled.piece(label)
        assert (a.u_start, a.u_end) == (b.u_start, b.u_end)
        u = np.linspace(a.u_start, a.u_end, 33)
        np.testing.assert_allclose(b.longitudinal(u), phi(u) * a.longitudinal(u),
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(b.radial_sq(u), phi(u) * a.radial_sq(u),
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
    # Vol(neck, squeezed metric) = e^{-t m / 2} * int_0^t rho^{m-1} du
    m, t = 2, 4.0
    fam = build_neck_family(exponential_profile(m, t), m=m)
    got = fam.rescaled.piece_volumes()["cylinder"]
    # int_0^t e^{-u/2} du = 2 (1 - e^{-t/2})
    expect = math.exp(-t * m / 2.0) * 2.0 * (1.0 - math.exp(-t / 2.0))
    assert got == pytest.approx(expect, rel=1e-10)


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
    p = exponential_profile(2, 3.0)
    g = cylinder_metric(p)
    fam = build_neck_family(p, m=2)
    cyl = fam.stretched.piece("cylinder")
    u = np.linspace(0.0, 3.0, 11)
    np.testing.assert_allclose(g.pieces[0].radial_sq(u), cyl.radial_sq(u),
                               rtol=1e-13)
