"""Warping profiles, the mollified step, cutoffs, and mean curvature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.errors import InvalidProfileError, ResolutionError, UsageError
from diraclab.profiles import (AffineOf, Const, ExpLin, Product, Sum,
                               WarpingProfile, constant_profile,
                               exponential_profile, jets, make_cutoffs,
                               mean_curvature, mean_curvature_prime,
                               resolve_m, smooth_step)
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
    r2 = p.rho_sq_fn()
    u = np.linspace(0.0, 3.0, 17)
    np.testing.assert_allclose(r2(u), p.rho(u) ** 2, rtol=1e-13)
    np.testing.assert_allclose(r2(u, 1), 2 * p.rho(u) * p.rho(u, 1),
                               rtol=1e-13)


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


INF, NAN = math.inf, math.nan
KNOTS = [0.0, 1.0, 2.0]


@pytest.mark.parametrize("build,error", [
    (lambda: exponential_profile(2, INF), InvalidProfileError),
    (lambda: constant_profile(INF, 2.0), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=[0.0, NAN, 2.0],
                            values=[1.0, 0.9, 0.8], order=1), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=[0.0, 1.0, INF],
                            values=[1.0, 0.9, 0.8], order=1), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=KNOTS,
                            values=[1.0, NAN, 0.8], order=1), InvalidProfileError),
    (lambda: WarpingProfile("sampled", 2.0, knots=KNOTS,
                            values=[1.0, INF, 0.8], order=1), InvalidProfileError),
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
                            values=[1.0, 0.9, 0.8], order=1.5), InvalidProfileError),
    (lambda: WarpingProfile.from_dict({"kind": "sampled", "domain_length": 2.0,
                                       "knots": KNOTS, "values": [1.0, 0.9, 0.8],
                                       "order": 1.5}), InvalidProfileError),
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
           "values": [1.0, 0.9, 0.8], "order": 1}


@pytest.mark.parametrize("doc,field", [
    ({"kind": "exponential", "domain_length": 2.0, "m": 2, "c": 0.5}, "c"),
    ({"kind": "exponential", "domain_length": 2.0, "m": 2, "order": 3}, "order"),
    ({"kind": "exponential", "domain_length": 2.0, "m": 2, "c": 0.5,
      "order": 3, "knots": KNOTS, "values": [1.0, 0.9, 0.8]},
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


# ---------------------------------------------------------------------------
# graph evaluation: shared nodes and folded constants
# ---------------------------------------------------------------------------

U = np.linspace(-1.0, 1.5, 23)
# f = 2 e^{u/2} + e^{-3u/2}, with every derivative in closed form
F = Sum(ExpLin(2.0, 0.5), ExpLin(1.0, -1.5))


def _f(u, j):
    return 2.0 * 0.5**j * np.exp(0.5 * u) + (-1.5) ** j * np.exp(-1.5 * u)


def _f_sq(u, j):
    # f^2 = 4 e^u + 4 e^{-u} + e^{-3u}
    return (4.0 * np.exp(u) + 4.0 * (-1.0) ** j * np.exp(-u)
            + (-3.0) ** j * np.exp(-3.0 * u))


@pytest.mark.parametrize("node,closed_form", [
    (Sum(F, F), lambda u, j: 2.0 * _f(u, j)),
    (Product(F, F), _f_sq),
    # a constant child must not change the memoized jet of f in place
    (Product(Sum(Const(1.0), F), F), lambda u, j: _f(u, j) + _f_sq(u, j)),
    (Product(F, Sum(F, Const(1.0))), lambda u, j: _f(u, j) + _f_sq(u, j)),
    (Product(Const(-2.0), F) + F, lambda u, j: -_f(u, j)),
    # the shared f is evaluated at u and, under its own memo, at 2u + 1
    (Sum(F, AffineOf(F, 2.0, 1.0)),
     lambda u, j: _f(u, j) + 2.0**j * _f(2.0 * u + 1.0, j)),
    (Product(AffineOf(F, 1.0, 0.5), F), lambda u, j: sum(
        math.comb(j, i) * _f(u + 0.5, i) * _f(u, j - i) for i in range(j + 1))),
], ids=["sum-shared", "product-shared", "const-sum-left", "const-sum-right",
        "const-product", "affine-shared", "affine-product"])
def test_shared_nodes_match_closed_form(node, closed_form):
    jet = node.jet(U, 3)
    for j in range(4):
        np.testing.assert_allclose(jet[j], closed_form(U, j), rtol=1e-13)


def test_graphs_under_one_memo_leave_shared_jets_intact():
    # jets() evaluates F once for both graphs; folding the constant into the
    # first graph must leave the second one's F untouched
    shifted, plain = jets(U, 2, Sum(F, Const(3.0)), F)
    for j in range(3):
        np.testing.assert_allclose(plain[j], _f(U, j), rtol=1e-13)
        np.testing.assert_allclose(shifted[j], _f(U, j) + 3.0 * (j == 0), rtol=1e-13)


# ---------------------------------------------------------------------------
# mollified step
# ---------------------------------------------------------------------------

def test_smooth_step_plateaus_and_midpoint():
    assert smooth_step(-2.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(3.0) == 1.0
    assert smooth_step(0.5) == pytest.approx(0.5, abs=1e-12)


def test_smooth_step_derivatives_vanish_at_plateaus():
    for d in range(1, 5):
        assert smooth_step(-0.5, d) == 0.0
        assert smooth_step(1.5, d) == 0.0
        # C-infinity flatness: derivatives approach 0 at the joints
        assert abs(smooth_step(1e-4, d)) < 1e-3
        assert abs(smooth_step(1.0 - 1e-4, d)) < 1e-3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_smooth_step_derivative_matches_fd(d):
    x = np.linspace(0.1, 0.9, 17)
    h = 1e-6
    fd = (smooth_step(x + h, d - 1) - smooth_step(x - h, d - 1)) / (2 * h)
    np.testing.assert_allclose(smooth_step(x, d), fd, rtol=1e-7, atol=1e-9)


# smooth_step(x, d) at x = 0.05, 0.2, 0.5, 0.73, 0.95, from the symbolic
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
    got = smooth_step(np.array(STEP_TABLE_X), d)
    for value, expect in zip(got, STEP_TABLE[d]):
        # the even derivatives vanish exactly at the symmetry point x = 1/2
        assert value == pytest.approx(expect, rel=1e-12, abs=1e-12 if expect == 0 else 0)


@given(st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_smooth_step_range_and_symmetry(x):
    s = float(smooth_step(x))
    assert 0.0 <= s <= 1.0
    # the gluing is symmetric about x = 1/2
    assert s + float(smooth_step(1.0 - x)) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_smooth_step_monotone(x, dx):
    assert float(smooth_step(x + dx)) >= float(smooth_step(x)) - 1e-12


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

def test_cutoff_plateaus():
    t = 3.0
    cs = make_cutoffs(t)
    # psi ramps up over [-1, 0]
    assert cs.psi(-1.0) == 0.0 and cs.psi(-1.7) == 0.0
    assert cs.psi(0.0) == 1.0 and cs.psi(t / 2) == 1.0
    # chi ramps up over [t, t+1]
    assert cs.chi(t) == 0.0 and cs.chi(0.5) == 0.0
    assert cs.chi(t + 1.0) == 1.0 and cs.chi(t + 2.0) == 1.0


def test_phi_cutoffs():
    t = 3.0
    cs = make_cutoffs(t)
    for u in (-1.0, -2.0, 2.0, 5.0):
        assert cs.phi_inf(u) == 1.0
        assert cs.phi_t(u) == 1.0
    for u in (0.0, 0.25, 0.5, 1.0):
        assert cs.phi_inf(u) == 0.0
        assert cs.phi_t(u) == pytest.approx(math.exp(-t), rel=1e-13)
    # interpolation formula everywhere, not only on the plateaus
    u = np.linspace(-2.0, 3.0, 101)
    np.testing.assert_allclose(
        cs.phi_t(u), 1.0 - (1.0 - math.exp(-t)) * (1.0 - cs.phi_inf(u)),
        rtol=0, atol=1e-14)


def test_cutoffs_are_smooth_at_the_joints():
    cs = make_cutoffs(2.0)
    for fn in (cs.psi, cs.chi, cs.phi_inf, cs.phi_t):
        for d in (1, 2, 3):
            vals = fn(np.linspace(-2.5, 4.5, 281), d)
            assert np.all(np.isfinite(vals))


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


def test_cutoff_argument_validation():
    with pytest.raises(UsageError):
        make_cutoffs(0.0)
    with pytest.raises(UsageError):
        make_cutoffs(-1.0)
