"""The in-package interpolating spline against scipy's ``make_interp_spline``.

scipy is imported here only, as an oracle: the knots and the B-spline
coefficients must be scipy's bit for bit, and the jets must agree within
per-order tolerances.  The interpolation conditions are checked on their own.
"""

import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from diraclab._spline import Spline, _coefficients, knot_vector
from diraclab.errors import InvalidProfileError
from diraclab.profiles import WarpingProfile

ORDERS = range(8)
EPS = np.finfo(float).eps


def _sites(kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return np.linspace(0.0, 3.0, 41)
    if kind == "random":
        return np.sort(rng.uniform(0.0, 3.0, 41))
    return 3.0 * np.sort(rng.uniform(0.0, 1.0, 41)) ** 3     # clustered at 0


def _values(x):
    return 1.0 + 0.3 * np.sin(2.2 * x + 0.7)


CASES = [(kind, seed) for kind in ("uniform", "random", "clustered")
         for seed in ((0,) if kind == "uniform" else (0, 1, 2))]
CASE_IDS = [f"{kind}-{seed}" for kind, seed in CASES]


def _oracle(x, k, r, u):
    s = make_interp_spline(x, _values(x), k=k)
    return (s.derivative(r) if r else s)(u)


@pytest.mark.parametrize("kind,seed", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("k", ORDERS)
def test_knots_and_coefficients_are_scipys_bit_for_bit(kind, seed, k):
    x = _sites(kind, seed)
    y = _values(x)
    s = make_interp_spline(x, y, k=k)
    t = knot_vector(x, k)
    np.testing.assert_array_equal(t, s.t)
    if k >= 2:
        np.testing.assert_array_equal(_coefficients(x, y, t, k), s.c)


# largest |difference| over the largest |scipy value| in the same region, per
# derivative order: inside [x_0, x_n] (mesh points and every knot and site),
# and beyond both ends, up to two end pieces out on any sites and a full unit
# out on uniform sites (the neck's exit collar)
INSIDE_TOL = {0: 2e-14, 1: 5e-14, 2: 1e-13}
NEAR_TOL = {0: 1e-10, 1: 3e-11, 2: 5e-12}
FAR_TOL = {0: 2e-10, 1: 3e-11, 2: 1e-11}


@pytest.mark.parametrize("kind,seed", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("k", ORDERS)
def test_jets_match_scipy_inside_at_knots_and_beyond(kind, seed, k):
    x = _sites(kind, seed)
    spline = Spline(x, _values(x), k)
    ends = np.unique(knot_vector(x, k))
    wl, wr = ends[1] - ends[0], ends[-1] - ends[-2]
    regions = {
        "inside": (np.r_[np.linspace(x[0], x[-1], 1536), x, ends], INSIDE_TOL),
        "near": (np.r_[x[0] - np.linspace(0.0, 2.0 * wl, 20),
                       x[-1] + np.linspace(0.0, 2.0 * wr, 20)], NEAR_TOL)}
    if kind == "uniform":
        regions["far"] = (np.r_[np.linspace(x[0] - 1.0, x[0], 50),
                                np.linspace(x[-1], x[-1] + 1.0, 50)], FAR_TOL)
    d = min(k, 2)
    for name, (u, tol) in regions.items():
        jet = spline.jet(u, d)
        for r in range(d + 1):
            ref = _oracle(x, k, r, u)
            err = np.max(np.abs(jet[r] - ref)) / np.max(np.abs(ref))
            assert err <= tol[r], (name, r, err)


@pytest.mark.parametrize("kind,seed", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("k", ORDERS)
def test_the_spline_interpolates_its_data_to_rounding(kind, seed, k):
    # S(x_i) = y_i, independently of scipy
    x = _sites(kind, seed)
    y = _values(x)
    got = Spline(x, y, k).jet(x, 0)[0]
    assert np.max(np.abs(got - y)) <= 16 * EPS * np.max(np.abs(y))


def test_a_knot_reads_the_piece_to_its_right_and_the_last_piece_is_closed():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([1.0, 2.0, 4.0, 8.0])
    linear = Spline(x, y, 1)
    # slopes 1, 2, 4 on the three pieces; x = 3 closes the last one
    np.testing.assert_array_equal(linear.jet(x, 1)[1], [1.0, 2.0, 4.0, 4.0])
    step = Spline(x, y, 0)
    # order 0 holds each value up to the next site, and y[-1] from x[-1] on
    np.testing.assert_array_equal(
        step.jet([-1.0, 0.0, 0.5, 1.0, np.nextafter(3.0, 0.0), 3.0, 4.0], 0)[0],
        [1.0, 1.0, 1.0, 2.0, 4.0, 8.0, 8.0])


def test_points_beyond_the_sites_extrapolate_the_end_pieces():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    linear = Spline(x, np.array([1.0, 2.0, 4.0, 8.0]), 1)
    np.testing.assert_array_equal(linear.jet([-1.0, 4.0], 1),
                                  [[0.0, 12.0], [1.0, 4.0]])
    # a cubic through the samples of a cubic is that cubic everywhere
    cubic = Spline(x, x**3 - x, 3)
    u = np.array([-2.0, -0.5, 3.5, 5.0])
    np.testing.assert_allclose(cubic.jet(u, 3),
                               [u**3 - u, 3 * u**2 - 1, 6 * u, np.full(4, 6.0)],
                               rtol=1e-13, atol=1e-12)


def test_a_jet_keeps_the_shape_of_its_points():
    x = np.linspace(0.0, 2.0, 9)
    spline = Spline(x, _values(x), 3)
    u = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    jet = spline.jet(u, 2)
    assert jet.shape == (3, 3, 4)
    np.testing.assert_array_equal(jet[:, 1, 2], spline.jet(u[1, 2], 2))
    assert spline.jet(0.5, 1).shape == (2,)


@pytest.mark.parametrize("knots,named", [
    ([0.0, 1.0, 2.0, 3.0, 1e300], "has a singular collocation matrix"),
    ([0.0, 5e-324, 1.0, 2.0, 3.0], "has coefficients that are not finite"),
])
def test_knots_the_spline_cannot_carry_are_refused(knots, named):
    with pytest.raises(InvalidProfileError,
                       match=f"the order-3 spline through 5 knots {named}"):
        WarpingProfile("sampled", 3.0, knots=knots,
                       values=[1.0, 0.9, 0.8, 0.7, 0.6], order=3)
