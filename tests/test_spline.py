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

# a sampled profile asks for order 3 or more; order 2 runs the same
# not-a-knot path at its smallest even order
ORDERS = range(2, 8)
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
    d = 2
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
    # the cubic through six sites has the knots 2 and 3 inside, and its
    # third derivative is constant on each of the pieces [0, 2), [2, 3) and
    # [3, 5]: a knot reads the piece to its right, and x = 5 closes the last
    x = np.arange(6.0)
    cubic = Spline(x, np.array([1.0, 2.0, 4.0, 8.0, 5.0, 3.0]), 3)
    np.testing.assert_allclose(cubic.jet([1.5, 2.0, 2.5, 3.0, 5.0], 3)[3],
                               [4.8, -18.0, -18.0, 13.2, 13.2], rtol=1e-13)


def test_points_beyond_the_sites_extrapolate_the_end_pieces():
    x = np.array([0.0, 1.0, 2.0, 3.0])
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


@pytest.mark.parametrize("seed", range(6))
def test_a_minimum_below_zero_is_exact(seed):
    # a spline through values of both signs, read beyond the sites on both
    # sides: its least value is taken where it is reported, lies at or below
    # every point of a dense grid, and at most max |S''| h^2 / 8 below the
    # grid's least value
    rng = np.random.default_rng(seed)
    k = 3 + seed % 4
    x = np.sort(rng.uniform(0.0, 3.0, 12 + seed))
    y = rng.uniform(-1.0, 1.0, x.size)
    spline = Spline(x, y, k)
    lo, hi = x[0] - 0.3, x[-1] + 0.3
    low, at = spline.minimum(lo, hi)
    assert low < 0 and lo <= at <= hi
    assert spline.jet(at, 0)[0] == low
    u = np.linspace(lo, hi, 100001)
    jet = spline.jet(u, 2)
    curvature = np.max(np.abs(jet[2])) * (u[1] - u[0]) ** 2 / 8
    assert jet[0].min() - curvature - 1e-12 <= low <= jet[0].min()
    # lifted to a least value of 0.5, it reads a value the spline takes
    lifted = Spline(x, y + 0.5 - low, k)
    high, at = lifted.minimum(lo, hi)
    assert high >= 0.5 - 1e-12 and lo <= at <= hi
    assert lifted.jet(at, 0)[0] == high


@pytest.mark.parametrize("x,y,low", [
    (np.arange(6.0), (np.arange(6.0) - 2.5) ** 2 - 1.0, -1.0),
    (np.arange(4.0), -np.ones(4), -1.0),
], ids=["quadratic", "constant"])
def test_the_minimum_of_a_cubic_of_lower_degree(x, y, low):
    # the derivative's leading coefficient is exactly zero on every piece,
    # so its roots come from a companion matrix of lower degree; the values
    # are negative, so no piece is passed as positive by the Taylor bound
    spline = Spline(x, y, 3)
    assert np.all(spline._table[1, 1] == 0.0)
    got, at = spline.minimum(x[0], x[-1])
    assert got == pytest.approx(low, abs=1e-14)
    assert spline.jet(at, 0)[0] == got
