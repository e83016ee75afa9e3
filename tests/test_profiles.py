"""Warping profiles, jets, the mollified step, the neck cutoffs, and mean
curvature."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.errors import InvalidProfileError, ResolutionError, UsageError
from diraclab.metrics import build_neck_family
from diraclab.profiles import (WarpingProfile, constant_profile, exp_jet,
                               exponential_profile, leibniz,
                               mean_curvature, mean_curvature_prime,
                               resolve_m, step_jet)
from diraclab.sturm import BranchProblem
from diraclab.transverse import TransverseSpectrum


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_exponential_profile_closed_form():
    # rho(u) = exp(-u / (2(m-1))); derivatives just multiply by the rate
    for m in (2, 3, 4, 7):
        p = exponential_profile(m, 5.0)
        rate = -1.0 / (2.0 * (m - 1))
        u = np.linspace(0.0, 5.0, 41)
        for d in range(4):
            np.testing.assert_allclose(p.rho(u, d), rate**d * np.exp(rate * u),
                                       rtol=1e-13)


def test_exponential_rho_sq_is_exponential_in_its_own_right():
    p = exponential_profile(4, 3.0)
    u = np.linspace(0.0, 3.0, 17)
    r2 = p.rho_sq_jet(u, 1)
    np.testing.assert_allclose(r2[0], p.rho(u) ** 2, rtol=1e-13)
    np.testing.assert_allclose(r2[1], 2 * p.rho(u) * p.rho(u, 1), rtol=1e-13)


def test_constant_profile():
    p = constant_profile(0.7, 2.0)
    assert p.rho(1.3) == 0.7
    assert p.rho(0.2, 1) == 0.0
    assert mean_curvature(p.jet(1.0, 1)) == 0.0
    assert mean_curvature_prime(p.jet(1.5, 2)) == 0.0


def test_profile_validation():
    with pytest.raises(InvalidProfileError):
        exponential_profile(1, 2.0)         # m must be >= 2
    with pytest.raises(InvalidProfileError):
        exponential_profile(3, -1.0)
    with pytest.raises(InvalidProfileError):
        constant_profile(0.0, 1.0)
    with pytest.raises(InvalidProfileError):
        WarpingProfile.from_dict({"kind": "sampled", "domain_length": 1.0,
                                  "knots": [0.0, 0.5, 1.0],
                                  "values": [1.0, -0.2, 0.5]})


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_spline_below_order_three_is_refused_at_construction(order):
    # V' jumps at the knots of an order-2 spline and V at those of an
    # order-1 one, where the Richardson estimates miss; order 0 has no rho'.
    # A profile refuses them when it is built, before any jet or solve
    knots = [0.0, 0.4, 0.7, 1.2, 1.9, 2.4, 3.0]
    values = [1.0, 1.2, 1.3, 1.0, 0.8, 0.95, 1.1]
    named = f"spline order must be an integer >= 3, not {order}$"
    with pytest.raises(InvalidProfileError, match=named):
        WarpingProfile("sampled", 3.0, knots=knots, values=values, order=order)
    with pytest.raises(InvalidProfileError, match=named):
        WarpingProfile.from_dict({"kind": "sampled", "domain_length": 3.0,
                                  "knots": knots, "values": values,
                                  "order": order})


# a cubic through positive values that dips below zero between two knots
DIPPING = {"kind": "sampled", "domain_length": 3.0, "order": 3,
           "knots": [0.0, 0.3, 0.35, 1.0, 1.5, 2.0, 3.0],
           "values": [1.0, 1.0, 0.05, 1.0, 1.0, 1.0, 1.0]}


def test_a_sampled_profile_must_be_positive_between_its_knots():
    # rho reaches -1.595 at u = 0.5623; 502 of 3001 points on [0, 3] lie
    # at or below zero, and the branches of D^2 came out negative
    with pytest.raises(InvalidProfileError, match=re.escape(
            "must be positive on [0, domain_length], but rho reaches -1.6 "
            "at u = 0.562345")):
        WarpingProfile.from_dict(DIPPING)


def test_a_sampled_profile_must_be_positive_beyond_its_last_knot():
    # the one cubic piece through these knots falls to -0.2 at u = 4: it
    # may be read up to 3, not up to 4
    doc = {"kind": "sampled", "domain_length": 3.0, "order": 3,
           "knots": [0.0, 1.0, 2.0, 3.0], "values": [1.0, 0.9, 0.6, 0.2]}
    assert WarpingProfile.from_dict(doc).rho(3.0) == pytest.approx(0.2)
    with pytest.raises(InvalidProfileError,
                       match="rho reaches -0.2 at u = 4$"):
        WarpingProfile.from_dict({**doc, "domain_length": 4.0})
    # read up to 1e300, where its Taylor bound overflows without a warning,
    # its least value is the local minimum at u = 5.887
    with pytest.raises(InvalidProfileError,
                       match="rho reaches -0.602 at u = 5.88675$"):
        WarpingProfile.from_dict({**doc, "domain_length": 1e300})


INF, NAN = math.inf, math.nan
# an order-3 spline through four knots: the least order and knot count
KNOTS, VALUES = [0.0, 0.5, 1.0, 2.0], [1.0, 0.9, 0.8, 0.7]


@pytest.mark.parametrize("build,error", [
    (lambda: exponential_profile(2, INF), InvalidProfileError),
    (lambda: constant_profile(INF, 2.0), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=[0.0, NAN, 1.0, 2.0],
                            values=VALUES, order=3), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=[0.0, 0.5, 1.0, INF],
                            values=VALUES, order=3), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=KNOTS,
                            values=[1.0, NAN, 0.8, 0.7], order=3),
     InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=KNOTS,
                            values=[1.0, INF, 0.8, 0.7], order=3),
     InvalidProfileError),
    (lambda: TransverseSpectrum([(0.0, 1), (NAN, 1)], symmetric=False), UsageError),
    (lambda: TransverseSpectrum([(0.0, 1), (INF, 1)], symmetric=False), UsageError),
    (lambda: TransverseSpectrum([(0.0, 1)], symmetric=True,
                                omitted_abs_min=NAN), UsageError),
    # a negative gap and a non-integral m fail closed as well
    (lambda: TransverseSpectrum([(0.0, 1)], symmetric=True,
                                omitted_abs_min=-3.0), UsageError),
    (lambda: TransverseSpectrum([(0.0, 1)], symmetric=True,
                                omitted_abs_min=-1.5), UsageError),
    (lambda: TransverseSpectrum([(0.0, 1)], symmetric=True,
                                omitted_abs_min=-INF), UsageError),
    (lambda: exponential_profile(2.5, 1.0), InvalidProfileError),
    (lambda: exponential_profile(INF, 1.0), InvalidProfileError),
    (lambda: exponential_profile(NAN, 1.0), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=KNOTS,
                            values=VALUES, order=3.5), InvalidProfileError),
    (lambda: WarpingProfile.from_dict({"kind": "sampled", "domain_length": 2.0,
                                       "knots": KNOTS, "values": VALUES,
                                       "order": 3.5}), InvalidProfileError),
    (lambda: resolve_m(constant_profile(1.0, 1.0), 2.7), UsageError),
    (lambda: resolve_m(constant_profile(1.0, 1.0), INF), UsageError),
    (lambda: resolve_m(constant_profile(1.0, 1.0), NAN), UsageError),
    (lambda: BranchProblem.from_profile(exponential_profile(2, 1.0), 0.0,
                                        m=2.7), UsageError),
    (lambda: WarpingProfile.from_dict({"kind": "constant", "c": 1.0}),
     InvalidProfileError),
    (lambda: constant_profile(1.0, "2.0"), InvalidProfileError),
    (lambda: constant_profile("abc", 1.0), InvalidProfileError),
    (lambda: constant_profile("0.5", 1.0), InvalidProfileError),
    (lambda: constant_profile(NAN, 1.0), InvalidProfileError),
    (lambda: constant_profile(-0.5, 1.0), InvalidProfileError),
    (lambda: WarpingProfile.from_dict({"kind": "constant", "domain_length": 1.0}),
     InvalidProfileError),
], ids=["infinite-length", "infinite-c", "nan-knot", "infinite-knot",
        "nan-value", "infinite-value", "nan-mu", "infinite-mu", "nan-gap",
        "negative-gap", "negative-half-gap", "minus-infinite-gap",
        "fractional-m", "infinite-m", "nan-m", "fractional-order",
        "fractional-order-from-dict", "fractional-resolve-m",
        "infinite-resolve-m", "nan-resolve-m", "fractional-branch-m",
        "missing-length", "non-numeric-length", "non-numeric-c",
        "numeric-string-c", "nan-c", "negative-c", "missing-c"])
def test_non_finite_input_fails_closed(build, error):
    with pytest.raises(error):
        build()


SAMPLED = {"kind": "sampled", "domain_length": 2.0, "knots": KNOTS,
           "values": VALUES, "order": 3}


@pytest.mark.parametrize("doc,field", [
    ({"kind": "exponential", "domain_length": 2.0, "m": 2, "c": 0.5}, "c"),
    ({"kind": "exponential", "domain_length": 2.0, "m": 2, "order": 3}, "order"),
    ({"kind": "exponential", "domain_length": 2.0, "m": 2, "c": 0.5,
      "order": 3, "knots": KNOTS, "values": VALUES},
     "c, knots, values, order"),
    ({"kind": "constant", "domain_length": 2.0, "c": 0.7, "m": 3}, "m"),
    ({"kind": "constant", "domain_length": 2.0, "c": 0.7, "values": [1.0]},
     "values"),
    ({**SAMPLED, "m": 2}, "m"),
    ({**SAMPLED, "c": 1.0}, "c"),
    ({"kind": "exponential", "domain_length": 2.0, "m": 2, "rate": 1.0},
     "rate"),
], ids=["exponential-c", "exponential-order", "exponential-all",
        "constant-m", "constant-values", "sampled-m", "sampled-c",
        "unknown-field"])
def test_profile_rejects_fields_its_kind_does_not_use(doc, field):
    with pytest.raises(InvalidProfileError, match=field):
        WarpingProfile.from_dict(doc)
    if field != "rate":
        fields = {k: v for k, v in doc.items() if k not in ("kind", "domain_length")}
        with pytest.raises(InvalidProfileError, match=field):
            WarpingProfile(doc["kind"], doc["domain_length"], **fields)


def test_sampled_profile_matches_source_function():
    # sample exp(-u/4) densely; the quintic spline should reproduce value and
    # first two derivatives well inside the knot range
    knots = np.linspace(0.0, 1.0, 33)
    doc = {"kind": "sampled", "domain_length": 1.0, "knots": list(knots),
           "values": list(np.exp(-knots / 4.0)), "order": 5}
    p = WarpingProfile.from_dict(doc)
    u = np.linspace(0.05, 0.95, 19)
    np.testing.assert_allclose(p.rho(u), np.exp(-u / 4), rtol=1e-9)
    np.testing.assert_allclose(p.rho(u, 1), -0.25 * np.exp(-u / 4), rtol=1e-6)
    with pytest.raises(ResolutionError):
        p.rho(0.5, 9)  # beyond the spline order


def test_profile_round_trip():
    for p in (exponential_profile(3, 2.5), constant_profile(1.2, 4.0)):
        q = WarpingProfile.from_dict(p.to_dict())
        u = np.linspace(0.0, p.domain_length, 9)
        np.testing.assert_allclose(q.rho(u), p.rho(u), rtol=0, atol=0)


@pytest.mark.parametrize("doc", [
    {"kind": "exponential", "domain_length": 2.5, "m": 3},
    {"kind": "constant", "domain_length": 4.0, "c": 1.2},
    SAMPLED,
], ids=["exponential", "constant", "sampled"])
def test_to_dict_writes_its_kind_fields_as_plain_values(doc):
    # the same keys in the same order, and JSON that reads the same: knots
    # and values as lists of floats, m and order as ints
    got = WarpingProfile.from_dict(doc).to_dict()
    assert list(got) == list(doc)
    assert json.dumps(got) == json.dumps(doc)


@pytest.mark.parametrize("field,samples", [
    ("knots", [0, 0.5, 1, 10**400]),
    ("knots", ["a", 0.5, 1, 2]),
    ("knots", [0, 0.5, 1, object()]),
    ("values", [1, 1, -(10**400), 1]),
    ("values", [1, "b", 1, 1]),
    ("values", [[1, 1], [1]]),
], ids=["huge-knot", "string-knot", "object-knot", "huge-value",
        "string-value", "ragged-values"])
def test_samples_that_are_not_numbers_are_refused(field, samples):
    doc = {**SAMPLED, "values": [1, 1, 1, 1], field: samples}
    with pytest.raises(InvalidProfileError,
                       match="^knots and values must be finite numbers$"):
        WarpingProfile.from_dict(doc)


@pytest.mark.parametrize("missing", ["knots", "values"])
def test_a_sampled_profile_without_samples_is_refused_as_such(missing):
    doc = {key: value for key, value in SAMPLED.items() if key != missing}
    with pytest.raises(InvalidProfileError,
                       match="^sampled profile needs matching 1-D knots/values$"):
        WarpingProfile.from_dict(doc)


def test_a_constant_profile_builds_for_any_finite_c():
    # c^2 overflows float64 beyond c ~ 1.34e154; only rho^2 reads it
    p = constant_profile(1e200, 1.0)
    assert p.to_dict() == {"kind": "constant", "domain_length": 1.0, "c": 1e200}
    assert _bits(p.jet(U, 2)) == _bits(_old_const_jet(1e200, U, 2))
    assert p.rho(0.5) == 1e200


def _old_const_jet(c, u, d):
    # the constant's jet as profiles wrote it before exp_jet read rate 0
    out = np.zeros((d + 1,) + np.shape(u))
    out[0] = c
    return out


def _old_exp_jet(c, r, u, d):
    # exp_jet as it was, with an exp pass at every rate
    e = np.exp(r * u)
    out = np.empty((d + 1,) + e.shape)
    for j in range(d + 1):
        out[j] = c * r**j * e
    return out


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("c", [1.0, 0.7, 0.49, 1e-300, 1e300, -2.0, -0.0, INF])
def test_rate_zero_is_the_old_constant_jet_bit_for_bit(c):
    for u in (U, 0.5, np.linspace(0.0, 1.0, 6).reshape(2, 3)):
        for d in range(5):
            assert _bits(exp_jet(c, 0.0, u, d)) == _bits(_old_const_jet(c, u, d))


@pytest.mark.parametrize("m", [2, 3, 4, 7, 10**6])
def test_the_closed_forms_keep_their_bits(m):
    # rho and rho^2 of both closed-form kinds, against the jets they were
    # read from before one closed form served both
    u = np.linspace(-1.0, 5.0, 61)
    exp, const = exponential_profile(m, 5.0), constant_profile(0.7, 5.0)
    for d in range(5):
        assert _bits(exp.jet(u, d)) == _bits(
            _old_exp_jet(1.0, -1.0 / (2.0 * (m - 1)), u, d))
        assert _bits(exp.rho_sq_jet(u, d)) == _bits(
            _old_exp_jet(1.0, -1.0 / (m - 1), u, d))
        assert _bits(const.jet(u, d)) == _bits(_old_const_jet(0.7, u, d))
        assert _bits(const.rho_sq_jet(u, d)) == _bits(_old_const_jet(0.7**2, u, d))
        assert _bits(exp_jet(2.0, 0.5, u, d)) == _bits(_old_exp_jet(2.0, 0.5, u, d))


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

U = np.linspace(-1.0, 1.5, 23)


def _f(u, j):
    # f = 2 e^{u/2} + e^{-3u/2}, with every derivative in closed form
    return 2.0 * 0.5**j * np.exp(0.5 * u) + (-1.5) ** j * np.exp(-1.5 * u)


def _f_sq(u, j):
    # f^2 = 4 e^u + 4 e^{-u} + e^{-3u}
    return (4.0 * np.exp(u) + 4.0 * (-1.0) ** j * np.exp(-u)
            + (-3.0) ** j * np.exp(-3.0 * u))


def _f_jet(u):
    return exp_jet(2.0, 0.5, u, 3) + exp_jet(1.0, -1.5, u, 3)


@pytest.mark.parametrize("jet,closed_form", [
    (lambda: _f_jet(U), _f),
    (lambda: leibniz(_f_jet(U), _f_jet(U)), _f_sq),
    # two different factors: f(u + 1/2) f(u)
    (lambda: leibniz(_f_jet(U + 0.5), _f_jet(U)), lambda u, j: sum(
        math.comb(j, i) * _f(u + 0.5, i) * _f(u, j - i) for i in range(j + 1))),
    # -2 f: a constant factor only scales
    (lambda: leibniz(exp_jet(-2.0, 0.0, U, 3), _f_jet(U)),
     lambda u, j: -2.0 * _f(u, j)),
], ids=["exp", "square", "shifted-product", "const-product"])
def test_jets_match_closed_form(jet, closed_form):
    got = jet()
    assert got.shape == (4,) + U.shape
    for j in range(4):
        np.testing.assert_allclose(got[j], closed_form(U, j), rtol=1e-13)


@pytest.mark.parametrize("product", [
    lambda f, one: leibniz(one + f, f),
    lambda f, one: leibniz(f, f + one),
], ids=["const-sum-left", "const-sum-right"])
def test_shared_nodes_match_closed_form(product):
    # one jet of f is shared by both factors of (1 + f) f, on either side;
    # adding the constant must not change the shared jet in place
    f = _f_jet(U)
    got = product(f, exp_jet(1.0, 0.0, U, 3))
    for j in range(4):
        np.testing.assert_allclose(got[j], _f(U, j) + _f_sq(U, j), rtol=1e-13)
        np.testing.assert_allclose(f[j], _f(U, j), rtol=1e-13)


def test_leibniz_leaves_its_factors_intact():
    f = _f_jet(U)
    leibniz(f, f)
    for j in range(4):
        np.testing.assert_allclose(f[j], _f(U, j), rtol=1e-13)


# ---------------------------------------------------------------------------
# mollified step
# ---------------------------------------------------------------------------

def test_smooth_step_plateaus_and_midpoint():
    assert step_jet(-2.0, 0)[0] == 0.0
    assert step_jet(0.0, 0)[0] == 0.0
    assert step_jet(1.0, 0)[0] == 1.0
    assert step_jet(3.0, 0)[0] == 1.0
    assert step_jet(0.5, 0)[0] == pytest.approx(0.5, abs=1e-12)


def test_smooth_step_derivatives_vanish_at_plateaus():
    for d in range(1, 5):
        assert step_jet(-0.5, d)[d] == 0.0
        assert step_jet(1.5, d)[d] == 0.0
        # C-infinity flatness: derivatives approach 0 at the joints
        assert abs(step_jet(1e-4, d)[d]) < 1e-3
        assert abs(step_jet(1.0 - 1e-4, d)[d]) < 1e-3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_smooth_step_derivative_matches_fd(d):
    x = np.linspace(0.1, 0.9, 17)
    h = 1e-6
    fd = (step_jet(x + h, d - 1)[d - 1]
          - step_jet(x - h, d - 1)[d - 1]) / (2 * h)
    np.testing.assert_allclose(step_jet(x, d)[d], fd, rtol=1e-7, atol=1e-9)


# step_jet(x, d)[d] at x = 0.05, 0.2, 0.5, 0.73, 0.95, from the symbolic
# derivatives of e^{-1/x} / (e^{-1/x} + e^{-1/(1-x)}) at 30 significant digits
STEP_TABLE_X = [0.05, 0.2, 0.5, 0.73, 0.95]
STEP_TABLE = {
    0: [5.90557848413484785718439541927e-9, 0.0229773699100256149539038866902,
        0.5, 0.911641199681631542346065118509, 0.999999994094421515865152142816],
    1: [2.36877495693269208445061181141e-6, 0.596312463273029523583514746366,
        2.0, 1.25611607956679200351840439419, 2.36877495693269208445061181141e-6],
    2: [8.55659173707527783239342924658e-4, 9.58698782929661797843346505447,
        0.0, -8.35554186076674277200808618466, -8.55659173707527783239342924658e-4],
    3: [0.273091412113093031891428698485, 28.5653475532398466370094524790,
        -16.0, -48.8191026392353963214048147417, 0.273091412113093031891428698485],
    4: [74.8420776159552105443435696830, -1671.63871829466011362151711226,
        0.0, 456.096254277673538852152531420, -74.8420776159552105443435696830],
}


@pytest.mark.parametrize("d", sorted(STEP_TABLE))
def test_smooth_step_matches_frozen_table(d):
    got = step_jet(np.array(STEP_TABLE_X), d)[d]
    for value, expect in zip(got, STEP_TABLE[d]):
        # the even derivatives vanish exactly at the symmetry point x = 1/2
        assert value == pytest.approx(expect, rel=1e-12, abs=1e-12 if expect == 0 else 0)


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_smooth_step_range_and_symmetry(x):
    s = float(step_jet(x, 0)[0])
    assert 0.0 <= s <= 1.0
    # the gluing is symmetric about x = 1/2
    assert s + float(step_jet(1.0 - x, 0)[0]) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_smooth_step_monotone(x, dx):
    assert float(step_jet(x + dx, 0)[0]) >= float(step_jet(x, 0)[0]) - 1e-12


# ---------------------------------------------------------------------------
# neck cutoffs, read from the coefficients of the neck pieces
# ---------------------------------------------------------------------------

def _coefficient(metric, label, part, u, d=0):
    """Order d of coefficient ``part`` (0: a, 1: r^2) of a piece at u."""
    return metric.piece(label).jets(np.atleast_1d(u), d)[part][d]


def test_cutoff_plateaus():
    # psi = step(u + 1) carries the entry collar from the unit section to
    # rho(0)^2 = 4 over [-1, 0]; chi = step(u - t) carries the exit collar
    # from rho(u)^2 to rho(t)^2 over [t, t + 1].  On their plateaus the
    # collars hold those radii exactly.
    t = 3.0
    entry = build_neck_family(constant_profile(2.0, t), m=2).stretched
    for u in (-1.0, -1.7):
        assert _coefficient(entry, "collar_in", 1, u) == 1.0
    for u in (0.0, t / 2):
        assert _coefficient(entry, "collar_in", 1, u) == 4.0
    p = exponential_profile(2, t)
    exit_ = build_neck_family(p).stretched
    for u in (t, 0.5):
        assert _coefficient(exit_, "collar_out", 1, u) == p.rho_sq_jet(u, 0)[0]
    for u in (t + 1.0, t + 2.0):
        assert _coefficient(exit_, "collar_out", 1, u) == float(p.rho(t) ** 2)


def test_phi_cutoffs():
    # every rescaled piece is damped by phi_t: it is the du^2 coefficient of
    # both collars and, times t^2, of the pulled-back cylinder on its span
    # [0, 1], where phi_t is the cylinder's tensor scale e^{-t}
    t = 3.0
    g = build_neck_family(exponential_profile(2, t)).rescaled
    u = np.linspace(-2.0, 3.0, 101)
    phi_t = _coefficient(g, "collar_in", 0, u)
    np.testing.assert_array_equal(_coefficient(g, "collar_out", 0, u), phi_t)
    span = (u >= 0.0) & (u <= 1.0)
    np.testing.assert_array_equal(_coefficient(g, "cylinder", 0, u[span]),
                                  phi_t[span] * (t * t))
    for x in (-1.0, -2.0, 2.0, 5.0):
        assert _coefficient(g, "collar_in", 0, x) == 1.0
    for x in (0.0, 0.25, 0.5, 1.0):
        assert _coefficient(g, "collar_in", 0, x) == pytest.approx(
            math.exp(-t), rel=1e-13)
    # interpolation formula everywhere, not only on the plateaus
    phi_inf = 1.0 - step_jet(u + 1.0, 0)[0] + step_jet(u - 1.0, 0)[0]
    np.testing.assert_allclose(
        phi_t, 1.0 - (1.0 - math.exp(-t)) * (1.0 - phi_inf), rtol=0, atol=1e-14)


def test_cutoffs_are_smooth_at_the_joints():
    fam = build_neck_family(exponential_profile(2, 2.0))
    u = np.linspace(-2.5, 4.5, 281)
    for g in (fam.stretched, fam.rescaled):
        for piece in g.cylinder_pieces():
            for d in (1, 2, 3):
                for jet in piece.jets(u, d):
                    assert np.all(np.isfinite(jet))


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------

def test_mean_curvature_exponential_is_constant():
    for m in (2, 3, 5, 9):
        rho = exponential_profile(m, 4.0).jet(np.linspace(0.0, 4.0, 21), 2)
        np.testing.assert_allclose(mean_curvature(rho), 1.0 / (2 * (m - 1)),
                                   rtol=1e-13)
        np.testing.assert_allclose(mean_curvature_prime(rho), 0.0, atol=1e-13)


def test_mean_curvature_matches_finite_differences():
    # sampled non-trivial profile: rho = 1 + 0.3 sin(u)
    knots = np.linspace(0.0, 2.0, 65)
    p = WarpingProfile.from_dict({
        "kind": "sampled", "domain_length": 2.0, "knots": list(knots),
        "values": list(1.0 + 0.3 * np.sin(knots)), "order": 5})
    u = np.linspace(0.2, 1.8, 9)
    jet = p.jet(u, 2)
    rho = 1.0 + 0.3 * np.sin(u)
    rho_p = 0.3 * np.cos(u)
    rho_pp = -0.3 * np.sin(u)
    np.testing.assert_allclose(mean_curvature(jet), -rho_p / rho, rtol=1e-6)
    np.testing.assert_allclose(mean_curvature_prime(jet),
                               -rho_pp / rho + (rho_p / rho) ** 2, rtol=1e-4)
