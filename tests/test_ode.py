"""One-dimensional Dirichlet solvers against independent oracles.

The frozen eigenvalue tables below were produced by a Pruefer-free shooting
oracle: integrate  -y'' + (V - lam) y = 0,  y(0)=0, y'(0)=1  with
scipy.integrate.solve_ivp (DOP853, rtol 1e-12) and locate the zeros of
y(t; lam) with brentq over a lambda scan.  That route shares no code with the
finite-difference bisection path under test.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.interpolate import make_interp_spline
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.optimize import brentq

from diraclab.errors import (DiscretizationFailureError, ResolutionError,
                             UsageError)
from diraclab.profiles import (WarpingProfile, constant_profile,
                               exponential_profile, resolve_m)
from diraclab import sturm
from diraclab.sturm import (_KERNEL_TOL, BranchProblem, TransformedProblem,
                            _direct_matrix, _transformed_matrix,
                            liouville_transform,
                            solve_direct, solve_transformed,
                            tridiagonal_lowest)

# shooting oracle, m=2 exponential, mu0 = +1.5, t = pi:
# V(u) = 2.25 e^u - 0.75 e^{u/2}
SHOOT_M2_PLUS = [7.110132565607, 14.154442642195, 21.893882590426,
                 30.379843411095, 39.878540064884]
# same profile, paired branch mu0 = -1.5 (V = mu^2 - mu', mu < 0)
SHOOT_M2_MINUS = [9.429882014362, 17.028857625092, 25.198513905239,
                  34.019451584794, 43.710512871031]
# m=4 exponential, mu0 = -2, t = 2
SHOOT_M4 = [8.420115710382, 15.953556552276, 28.293072222124,
            45.563602884471]


# ---------------------------------------------------------------------------
# tridiagonal kernel vs LAPACK and dense eigvalsh
# ---------------------------------------------------------------------------

def test_tridiagonal_against_lapack_random():
    # the kernel calls this same LAPACK routine, so this checks the wrapper
    # (index selection, ordering); dense eigvalsh below is the oracle
    rng = np.random.default_rng(11)
    for n in (5, 24, 257):
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1)
        k = min(4, n)
        mine = tridiagonal_lowest(d, e, k)
        ref = eigh_tridiagonal(d, e, eigvals_only=True,
                               select="i", select_range=(0, k - 1))
        np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=1e-9)


def test_tridiagonal_constant_diagonal_large_n():
    # regression: the first bisection midpoint of the discrete Laplacian
    # lands exactly on the (constant) diagonal, a pivot breakdown that an
    # unscaled nudge turns into a zeroed Sturm count.  n = 512 is a size
    # where the Gershgorin endpoints cancel to make the hit exact.
    for n in (512, 2048):
        h = math.pi / (n + 1)
        d = np.full(n, 2.0 / h**2)
        e = np.full(n - 1, -1.0 / h**2)
        got = tridiagonal_lowest(d, e, 3)
        j = np.arange(1, 4)
        exact = 4.0 / h**2 * np.sin(j * h / 2.0) ** 2
        np.testing.assert_allclose(got, exact, rtol=1e-8)


def test_tridiagonal_trivial_sizes():
    assert tridiagonal_lowest(np.array([3.0]), np.array([]), 1)[0] == pytest.approx(3.0)
    d = np.array([1.0, 2.0])
    e = np.array([0.5])
    expect = np.linalg.eigvalsh(np.array([[1.0, 0.5], [0.5, 2.0]]))
    np.testing.assert_allclose(tridiagonal_lowest(d, e, 2), expect, rtol=1e-9)


def test_tridiagonal_argument_checks():
    with pytest.raises(ValueError):
        tridiagonal_lowest(np.zeros(3), np.zeros(3), 1)
    with pytest.raises(ValueError):
        tridiagonal_lowest(np.zeros(3), np.zeros(2), 4)
    with pytest.raises(ValueError):
        tridiagonal_lowest(np.zeros((2, 2)), np.zeros(3), 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_tridiagonal_rejects_non_finite_input(bad, n):
    d, e = np.ones(n), np.zeros(n - 1)
    d[-1] = bad
    with pytest.raises(ValueError):
        tridiagonal_lowest(d, e, 1)
    if n > 1:
        e[0] = bad
        with pytest.raises(ValueError):
            tridiagonal_lowest(np.ones(n), e, 1)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_tridiagonal_matches_dense_eigvalsh(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-5, 5, size=n)
    e = rng.uniform(-5, 5, size=n - 1)
    mat = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    ref = np.sort(np.linalg.eigvalsh(mat))[: min(3, n)]
    got = tridiagonal_lowest(d, e, min(3, n))
    np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-8)
    # the direct LAPACK call returns the bytes of scipy's wrapper around it
    np.testing.assert_array_equal(got, eigvalsh_tridiagonal(
        d, e, select="i", select_range=(0, min(3, n) - 1), tol=_KERNEL_TOL,
        lapack_driver="stebz"))


@pytest.mark.parametrize("n", [64, 1024])
@pytest.mark.parametrize("potential", ["free", "random"])
def test_fewer_values_are_a_prefix_within_the_kernel_tolerance(potential, n):
    # assemble asks a branch for fewer than K values once kept records rank
    # ahead of it; bisection from a smaller upper index may only move each
    # value within the kernel tolerance
    h = math.pi / (n + 1)
    v = (np.zeros(n) if potential == "free"
         else np.random.default_rng(n).uniform(-5.0, 5.0, size=n))
    d, e = 2.0 / h**2 + v, np.full(n - 1, -1.0 / h**2)
    K = 6
    full = tridiagonal_lowest(d, e, K)
    for k in range(1, K + 1):
        np.testing.assert_allclose(tridiagonal_lowest(d, e, k), full[:k],
                                   rtol=0.0, atol=2.0 * _KERNEL_TOL)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_free_problem_closed_form():
    # V = 0 on [0, t]: lam_n = (pi (n+1) / t)^2
    for t in (math.pi, 2.0):
        prob = TransformedProblem(t=t, v=np.zeros_like)
        res = solve_transformed(prob, K=5, mesh=2048)
        expect = (math.pi * np.arange(1, 6) / t) ** 2
        np.testing.assert_allclose(res.values, expect, rtol=1e-8)


def test_constant_potential_shift():
    # V = c shifts the whole free spectrum by c (symbolic fact)
    c = 2.75
    prob = TransformedProblem(t=math.pi, v=lambda u: np.full_like(u, c))
    res = solve_transformed(prob, K=4, mesh=1024)
    expect = np.arange(1, 5) ** 2 + c
    np.testing.assert_allclose(res.values, expect, rtol=1e-7)


# ---------------------------------------------------------------------------
# branch problems and the substitution
# ---------------------------------------------------------------------------

def test_liouville_potential_closed_form():
    # m=2: mu = mu0 e^{u/2}, mu' = mu/2, V = mu0^2 e^u - (mu0/2) e^{u/2}
    p = exponential_profile(2, math.pi)
    bp = BranchProblem.from_profile(p, mu0=1.5)
    tr = liouville_transform(bp)
    u = np.linspace(0.0, math.pi, 23)
    np.testing.assert_allclose(tr.v(u),
                               2.25 * np.exp(u) - 0.75 * np.exp(u / 2.0),
                               rtol=1e-12)


def test_direct_coefficients():
    # for the exponential profile: p = (m-1) H = 1/2 everywhere, and
    # q = V - ((m-1) H / 2)^2 = V - 1/16
    p = exponential_profile(3, 2.0)
    bp = BranchProblem.from_profile(p, mu0=0.7)
    tr = liouville_transform(bp)
    u = np.linspace(0.0, 2.0, 9)
    coef_p, coef_q = bp.coefficients(u)
    np.testing.assert_allclose(coef_p, 0.5, rtol=1e-12)
    np.testing.assert_allclose(coef_q, tr.v(u) - 1.0 / 16.0, rtol=1e-12)


def test_dimension_defaults_only_for_exponential_profiles():
    assert resolve_m(exponential_profile(3, 2.0)) == 3
    assert resolve_m(constant_profile(1.0, 2.0), 4) == 4
    # integral floats pass, as the CLI schema's integer type lets them through
    assert resolve_m(constant_profile(1.0, 2.0), 4.0) == 4
    assert resolve_m(exponential_profile(3.0, 2.0)) == 3
    with pytest.raises(UsageError):
        resolve_m(constant_profile(1.0, 2.0))
    with pytest.raises(UsageError):
        BranchProblem.from_profile(constant_profile(1.0, 2.0), mu0=1.0)


def test_transformed_matches_shooting_oracle():
    p = exponential_profile(2, math.pi)
    for mu0, frozen in ((1.5, SHOOT_M2_PLUS), (-1.5, SHOOT_M2_MINUS)):
        tr = liouville_transform(BranchProblem.from_profile(p, mu0=mu0))
        res = solve_transformed(tr, K=5, mesh=2048)
        np.testing.assert_allclose(res.values, frozen, rtol=1e-6)
        # claimed error estimates must cover the true defect
        assert np.all(np.abs(res.values - frozen) <= 10 * res.error_estimates + 1e-9)


def test_direct_matches_shooting_oracle_m4():
    p = exponential_profile(4, 2.0)
    bp = BranchProblem.from_profile(p, mu0=-2.0)
    res = solve_direct(bp, K=4, mesh=1024)
    np.testing.assert_allclose(res.values, SHOOT_M4, rtol=1e-5)


def test_direct_and_transformed_agree():
    # the substitution is spectrum-preserving; the two discretizations are
    # independent routes to the same values
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = int(rng.integers(2, 6))
        t = float(rng.uniform(1.0, 3.5))
        mu0 = float(rng.uniform(-2.5, 2.5))
        p = exponential_profile(m, t)
        bp = BranchProblem.from_profile(p, mu0=mu0)
        a = solve_transformed(liouville_transform(bp), K=4, mesh=1536)
        b = solve_direct(bp, K=4, mesh=768)
        combined = a.error_estimates + b.error_estimates
        assert np.all(np.abs(a.values - b.values) <= 10 * combined + 1e-12)


def _dense_direct_lowest(bp, K, n):
    # the advective difference matrix built densely and handed to the
    # general (non-symmetric) eigensolver: shares no code with solve_direct
    h = bp.t / (n + 1)
    u = h * np.arange(1, n + 1)
    p, q = bp.coefficients(u)
    a = (np.diag(2.0 / h**2 + q)
         + np.diag(-1.0 / h**2 + p[:-1] / (2.0 * h), 1)
         + np.diag(-1.0 / h**2 - p[1:] / (2.0 * h), -1))
    vals = np.linalg.eigvals(a)
    lowest = vals[np.argsort(vals.real)[:K]]
    assert np.max(np.abs(lowest.imag)) <= 1e-8 * np.max(np.abs(lowest.real))
    return np.sort(lowest.real)


def _sampled_profile():
    knots = np.linspace(0.0, 2.5, 41)
    return WarpingProfile.from_dict({
        "kind": "sampled", "domain_length": 2.5, "order": 5,
        "knots": knots.tolist(),
        "values": (1.0 + 0.3 * np.sin(2.2 * knots + 0.7)).tolist(),
    })


def test_direct_matches_dense_nonsymmetric_eigensolver():
    cases = (BranchProblem.from_profile(exponential_profile(4, 2.0), mu0=-2.0),
             BranchProblem.from_profile(_sampled_profile(), mu0=1.3, m=5))
    for bp in cases:
        for n in (64, 384):
            ref = _dense_direct_lowest(bp, 5, n)
            got = tridiagonal_lowest(*_direct_matrix(bp, n), 5)
            np.testing.assert_allclose(got, ref, rtol=1e-9)


def test_direct_fails_closed_at_cell_peclet_one():
    # rho = e^{-u/2}, so H = 1/2, and m = 21: p = (m-1) H = 10, and on
    # [0, 20] with 64 interior points h |p| / 2 = 1.54, so the advective
    # matrix has no real symmetrization
    knots = np.linspace(0.0, 20.0, 81)
    p = WarpingProfile("sampled", 20.0, knots=knots, values=np.exp(-knots / 2.0))
    bp = BranchProblem.from_profile(p, mu0=0.0, m=21)
    with pytest.raises(DiscretizationFailureError):
        solve_direct(bp, K=2, mesh=64)


def test_each_mesh_evaluates_one_profile_jet(monkeypatch):
    # one order-2 jet of rho per direct mesh, one order-1 jet per Liouville
    # mesh; each route solves on its mesh and on the half mesh
    bp = BranchProblem.from_profile(_sampled_profile(), mu0=1.3, m=5)
    orders = []
    original = WarpingProfile.jet

    def counted(self, u, d):
        # each jet of a sampled profile is one evaluation of its spline
        orders.append(d)
        return original(self, u, d)

    monkeypatch.setattr(WarpingProfile, "jet", counted)
    solve_direct(bp, K=5, mesh=384)
    assert orders == [2, 2]
    orders.clear()
    solve_transformed(liouville_transform(bp), K=5, mesh=384)
    assert orders == [1, 1]


def test_live_shooting_cross_check():
    # cheap live rerun of the oracle on a fresh problem (mu0 = 0.8, t = 2)
    t, mu0 = 2.0, 0.8
    p = exponential_profile(2, t)
    tr = liouville_transform(BranchProblem.from_profile(p, mu0=mu0))

    def miss(lam):
        rhs = lambda u, y: [y[1], (float(tr.v(np.array(u))) - lam) * y[0]]
        return solve_ivp(rhs, (0.0, t), [0.0, 1.0], rtol=1e-10,
                         atol=1e-12, method="DOP853").y[0, -1]

    res = solve_transformed(tr, K=2, mesh=1024)
    for lam in res.values:
        root = brentq(miss, lam - 0.5, lam + 0.5, xtol=1e-10)
        assert root == pytest.approx(lam, rel=1e-6)


def _spline_shooting_roots(knots, values, order, mu0, guesses):
    """Eigenvalues of V = mu^2 - mu' near ``guesses`` over scipy's own
    interpolating spline through (knots, values): y(t; lam) = 0 for
    -y'' + (V - lam) y = 0, y(0) = 0, y'(0) = 1, integrated piece by piece
    between the spline's breakpoints and solved by brentq."""
    spline = make_interp_spline(knots, values, k=order)
    slope, rho0 = spline.derivative(), float(spline(0.0))

    def rhs(u, y, lam, end):
        u = min(u, np.nextafter(end, 0.0))      # at a break, the left piece
        rho = float(spline(u))
        mu = mu0 * rho0 / rho
        return [y[1], (mu**2 + mu * float(slope(u)) / rho - lam) * y[0]]

    breaks = np.unique(spline.t)

    def miss(lam):
        y = [0.0, 1.0]
        for a, b in zip(breaks[:-1], breaks[1:]):
            y = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-12,
                          atol=1e-14, args=(lam, b)).y[:, -1]
        return y[0]

    half = 0.3 * np.min(np.diff(guesses))
    return np.array([brentq(miss, lam - half, lam + half, xtol=1e-13)
                     for lam in guesses])


@pytest.mark.parametrize("order", [3, 5])
def test_spline_branches_keep_their_error_estimates(order):
    # random knots on [0, 3]: V is continuous with V' from order 3 on, and
    # both routes' Richardson estimates cover the distance to a shooting
    # oracle over scipy's spline, which shares no code with the profile's
    # spline or the difference kernel.  On the order-3 knots an order-1
    # spline's estimates missed by up to 6 times on the Liouville route and
    # an order-2 one's by 2.4 times on the direct route; both are refused
    rng = np.random.default_rng(order)
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 2.9, 6)), [3.0]])
    values = 1.0 + 0.25 * np.sin(2.1 * knots + 0.4)
    bp = BranchProblem.from_profile(
        WarpingProfile("sampled", 3.0, knots=knots, values=values,
                       order=order), mu0=1.0, m=3)
    routes = [solve_transformed(liouville_transform(bp), K=3)]
    if order == 3:
        routes.append(solve_direct(bp, K=3))
    roots = _spline_shooting_roots(knots, values, order, 1.0,
                                   routes[0].values)
    for res in routes:
        assert np.all(np.abs(res.values - roots) <= res.error_estimates)


@pytest.mark.parametrize("mu0", [True, "1.5", None, math.nan, math.inf,
                                 -math.inf,
                                 pytest.param(-10**400, id="huge-int")])
def test_a_mu0_that_is_not_a_finite_number_is_refused(mu0):
    # read as transverse entries are read: a bool is no number, and NaN, an
    # infinity or an integer beyond the float range would reach the kernel
    # as a non-finite diagonal
    profile = exponential_profile(2, 2.0)
    named = re.escape(f"mu0 must be a finite number, not {mu0!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=named):
            BranchProblem.from_profile(profile, mu0)
        with pytest.raises(UsageError, match=named):
            BranchProblem(profile, mu0, 2)
    # an int and a numpy float are read as the float they equal
    for number in (2, np.float64(2.0)):
        bp = BranchProblem.from_profile(profile, number)
        assert type(bp.mu0) is float and bp.mu0 == 2.0


_HUGE_BRANCH = BranchProblem.from_profile(exponential_profile(3, 2.0), 1e160)


@pytest.mark.parametrize("solve,named", [
    # mu^2 overflows at every point, so the first is named
    (lambda: solve_transformed(liouville_transform(_HUGE_BRANCH), 2, 256),
     "V is not finite in float64 at u = 0.0077821"),
    (lambda: solve_direct(_HUGE_BRANCH, 2, 256),
     "q is not finite in float64 at u = 0.0077821"),
    (lambda: solve_transformed(TransformedProblem(
        2.0, lambda u: np.where(u > 1.0, math.nan, 0.0)), 2, 256),
     "V is not finite in float64 at u = 1.0038910"),
    (lambda: solve_transformed(TransformedProblem(2.0, lambda u: 1.0), 2, 256),
     "V must give one value per point of .*, not an array of shape \\(\\)"),
    (lambda: solve_transformed(TransformedProblem(
        2.0, lambda u: np.zeros(3)), 2, 256),
     "V must give one value per point of .*, not an array of shape \\(3,\\)"),
], ids=["transformed-overflow", "direct-overflow", "nan", "scalar",
        "wrong-length"])
def test_a_potential_that_is_not_one_finite_value_per_point_is_refused(
        solve, named):
    # it used to reach the kernel and raise its bare ValueError, after a
    # numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=f"^{named}") as raised:
            solve()
    assert raised.match("the mesh of 256 interior points of \\[0, 2.0\\]")


# ---------------------------------------------------------------------------
# convergence behavior
# ---------------------------------------------------------------------------

def test_second_order_convergence_without_extrapolation():
    tr = TransformedProblem(t=math.pi, v=np.zeros_like)
    errs = []
    for mesh in (128, 256, 512):
        raw = tridiagonal_lowest(*_transformed_matrix(tr.v, tr.t, mesh), 1)
        errs.append(abs(raw[0] - 1.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_richardson_beats_raw_values():
    tr = TransformedProblem(t=math.pi, v=np.zeros_like)
    raw = tridiagonal_lowest(*_transformed_matrix(tr.v, tr.t, 512), 3)
    ext = solve_transformed(tr, K=3, mesh=512)
    exact = np.arange(1, 4) ** 2
    assert np.all(np.abs(ext.values - exact) < np.abs(raw - exact))


def test_richardson_uses_exact_mesh_ratio():
    # the coarse mesh has n // 2 interior points, so its spacing is
    # (n + 1) / (n // 2 + 1) times the fine one, not exactly twice it
    tr = TransformedProblem(t=math.pi, v=np.zeros_like)
    res = solve_transformed(tr, K=4, mesh=1024)
    assert np.max(np.abs(res.values - np.arange(1, 5) ** 2)) <= 1e-8


def test_error_estimates_cover_truth_on_free_problem():
    tr = TransformedProblem(t=math.pi, v=np.zeros_like)
    res = solve_transformed(tr, K=5, mesh=1024)
    exact = np.arange(1, 6) ** 2
    assert np.all(np.abs(res.values - exact) <= 10 * res.error_estimates)


def test_eigenvalues_ascending_and_positive_for_nonneg_potential():
    p = exponential_profile(2, 3.0)
    tr = liouville_transform(BranchProblem.from_profile(p, mu0=2.0))
    res = solve_transformed(tr, K=6, mesh=1024)
    assert np.all(np.diff(res.values) > 0)
    assert np.all(res.values > 0)   # V = mu(mu - H) > 0 for mu0 > H here


@pytest.mark.parametrize("t", [1e-76, 1e-80, 1e-300])
def test_a_spacing_the_kernel_cannot_square_is_refused(monkeypatch, t):
    # dstebz squares the off-diagonal -1/h^2: at h = 1e-77 it returned wrong
    # values, below that it failed; both routes refuse h = t / (mesh + 1)
    # below 1e-75, naming t and the mesh, before the kernel runs
    def refused(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(sturm, "tridiagonal_lowest", refused)
    named = re.escape(f"t = {t!r} is too short for a mesh of 128 interior points")
    with pytest.raises(ResolutionError, match=named):
        solve_transformed(TransformedProblem(t=t, v=np.zeros_like), 3, 128)
    with pytest.raises(ResolutionError, match=named):
        solve_direct(BranchProblem.from_profile(exponential_profile(2, t), 0.0),
                     3, 128)


def test_the_least_spacing_still_solves():
    # a spacing just above 1e-75 solves as t = 1 does, scaled by 1 / t^2
    def transformed(t):
        return solve_transformed(TransformedProblem(t=t, v=np.zeros_like), 3,
                                 128)

    def direct(t):
        return solve_direct(
            BranchProblem.from_profile(constant_profile(2.0, t), 0.0, m=2), 3,
            128)

    t = 1.01e-75 * 129
    for solve in (transformed, direct):
        np.testing.assert_allclose(solve(t).values * t**2, solve(1.0).values,
                                   rtol=1e-9)


def test_mesh_contracts():
    tr = TransformedProblem(t=1.0, v=np.zeros_like)
    with pytest.raises(ResolutionError):
        solve_transformed(tr, K=1, mesh=32)
    with pytest.raises(ResolutionError):
        solve_transformed(tr, K=200, mesh=256)   # K beyond the coarse mesh
    with pytest.raises(UsageError):
        TransformedProblem(t=-1.0, v=np.zeros_like)


# ---------------------------------------------------------------------------
# the hinted kernel: polished values, their certificate and the fallback
# ---------------------------------------------------------------------------

# the random tridiagonals of test_lapack.py
_RANDOM = np.random.default_rng(5)
RANDOM_MATRICES = {f"random-{n}": (_RANDOM.normal(size=n), _RANDOM.normal(size=n - 1))
                   for n in (2, 17, 700)}


def _allowance(d, e):
    """How far a polished value may sit from the bisected one: the kernel
    tolerance on each side, plus the slack of bisection's Sturm counts."""
    spread = np.abs(np.append(0.0, e)) + np.abs(np.append(e, 0.0))
    norm = float(np.max(np.abs(d) + spread))
    return 2.0 * _KERNEL_TOL + sturm._STURM_SLACK * sturm._EPS * norm


def _kernel_calls(monkeypatch, solve):
    """The arguments (diag, off, K, hint) of the two kernel calls that
    ``solve()`` makes, coarse mesh first."""
    calls = []
    kernel = sturm.tridiagonal_lowest

    def recorded(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(sturm, "tridiagonal_lowest", recorded)
    solve()
    monkeypatch.setattr(sturm, "tridiagonal_lowest", kernel)
    assert [len(args) for args in calls] == [4, 4]
    coarse, fine = calls
    assert coarse[0].size == fine[0].size // 2
    return calls


def _fine_call(monkeypatch, solve):
    return _kernel_calls(monkeypatch, solve)[1]


def _spy(monkeypatch):
    """Records whether each certificate held, the LAPACK ranges dstebz is
    called with (2, by index, is the bisection; 1, by value, a count), and
    the number of tridiagonal solves."""
    seen = {"certified": [], "ranges": [], "solves": 0}
    polish, stebz, gtsv = sturm._polish, sturm.dstebz, sturm.dgtsv

    def polish_spy(*args):
        out = polish(*args)
        seen["certified"].append(out is not None)
        return out

    def stebz_spy(*args):
        seen["ranges"].append(args[2])
        return stebz(*args)

    def gtsv_spy(*args, **kwargs):
        seen["solves"] += 1
        return gtsv(*args, **kwargs)

    monkeypatch.setattr(sturm, "_polish", polish_spy)
    monkeypatch.setattr(sturm, "dstebz", stebz_spy)
    monkeypatch.setattr(sturm, "dgtsv", gtsv_spy)
    return seen


_SOLVES = {
    "transformed-free": lambda: solve_transformed(
        TransformedProblem(t=math.pi, v=np.zeros_like), 5, 700),
    "transformed-trig": lambda: solve_transformed(TransformedProblem(
        t=2.5, v=lambda u: 3.0 * np.cos(2.0 * u) + np.sin(5.0 * u)), 6, 1536),
    "direct-exponential": lambda: solve_direct(
        BranchProblem.from_profile(exponential_profile(4, 2.0), mu0=-2.0), 4, 768),
    "direct-sampled": lambda: solve_direct(
        BranchProblem.from_profile(_sampled_profile(), mu0=1.3, m=5), 5, 384),
}


def _certifies_in_one_step(monkeypatch, d, e, K, hint):
    seen = _spy(monkeypatch)
    polished = tridiagonal_lowest(d, e, K, hint)
    # one solve per value and one count, no bisection
    assert seen == {"certified": [True], "ranges": [1], "solves": K}
    bisected = tridiagonal_lowest(d, e, K)
    assert np.all(np.diff(polished) > 0.0)
    np.testing.assert_allclose(polished, bisected, rtol=0.0,
                               atol=_allowance(d, e))


@pytest.mark.parametrize("case", sorted(_SOLVES))
def test_a_branch_solve_certifies_its_fine_mesh_within_the_tolerance(
        monkeypatch, case):
    _certifies_in_one_step(monkeypatch, *_fine_call(monkeypatch, _SOLVES[case]))


@pytest.mark.parametrize("case", sorted(_SOLVES))
def test_a_branch_solve_certifies_its_coarse_mesh_from_the_ritz_hint(
        monkeypatch, case):
    d, e, K, hint = _kernel_calls(monkeypatch, _SOLVES[case])[0]
    values, vectors = hint
    assert vectors.shape == (K, d.size)
    # Ritz values bound the eigenvalues from above (Poincare)
    assert np.all(values >= tridiagonal_lowest(d, e, K) - _allowance(d, e))
    _certifies_in_one_step(monkeypatch, d, e, K, hint)


def _eigenvectors(d, e, K):
    return eigh_tridiagonal(d, e, select="i", select_range=(0, K - 1))[1].T


@pytest.mark.parametrize("case", sorted(RANDOM_MATRICES))
@pytest.mark.parametrize("offset", [0.0, 1e-6, 1e-3])
def test_a_hint_moves_random_values_only_within_the_tolerance(case, offset):
    d, e = RANDOM_MATRICES[case]
    K = min(5, d.size)
    bisected = tridiagonal_lowest(d, e, K)
    hint = (bisected + offset * np.arange(1, K + 1), _eigenvectors(d, e, K))
    np.testing.assert_allclose(tridiagonal_lowest(d, e, K, hint), bisected,
                               rtol=0.0, atol=_allowance(d, e))


def _double_well(u):
    return np.where(np.abs(u - 1.0) < 0.3, 1200.0, 0.0)


_BAD_HINTS = {
    "wrong-length": lambda shifts, starts: (shifts[:-1], starts[:-1]),
    "nan": lambda shifts, starts: (
        np.where(np.arange(shifts.size) == 1, math.nan, shifts), starts),
    # random start vectors at shifts 50 too high reach the wrong eigenvalues
    "far-off": lambda shifts, starts: (
        shifts + 50.0, np.random.default_rng(3).normal(size=starts.shape)),
    "swapped": lambda shifts, starts: (
        shifts[[1, 0, *range(2, shifts.size)]], starts),
    # each start vector at its neighbour's shift
    "rolled": lambda shifts, starts: (shifts, np.roll(starts, 1, axis=0)),
    "zero": lambda shifts, starts: (shifts, np.zeros_like(starts)),
}


@pytest.mark.parametrize("hint", sorted(_BAD_HINTS) + ["double-well",
                                                     "far-off-shifts"])
def test_a_hint_the_certificate_refuses_returns_the_bisected_values(
        monkeypatch, hint):
    if hint == "double-well":
        # the lowest pair splits by 5.9e-9 on the coarse mesh and 6.7e-9 on
        # the fine one, so the vectors at both meshes' shifts mix the two
        # and their balls overlap
        calls = _kernel_calls(monkeypatch, lambda: solve_transformed(
            TransformedProblem(t=2.0, v=_double_well), 4, 700))
    elif hint == "far-off-shifts":
        # start vectors close to the eigenvectors, but every shift 50 too
        # high: the quotients of the one step miss Temple's bound
        d, e, K, (shifts, starts) = _fine_call(
            monkeypatch, _SOLVES["transformed-trig"])
        calls = [(d, e, K, (shifts + 50.0, starts))]
    else:
        d, e, K, good = _fine_call(monkeypatch, _SOLVES["transformed-free"])
        calls = [(d, e, K, _BAD_HINTS[hint](*good))]
    for d, e, K, given in calls:
        bisected = tridiagonal_lowest(d, e, K)
        if hint == "double-well":
            assert 0.0 < bisected[1] - bisected[0] < 1e-8
        seen = _spy(monkeypatch)
        got = tridiagonal_lowest(d, e, K, given)
        assert got.tobytes() == bisected.tobytes()
        assert seen["certified"] == [False] and seen["ranges"][-1] == 2
        if hint == "far-off-shifts":    # one solve per value, one count
            assert seen == {"certified": [False], "ranges": [1, 2],
                            "solves": K}


def test_a_failed_tridiagonal_solve_falls_back(monkeypatch):
    d, e, K, hint = _fine_call(monkeypatch, _SOLVES["transformed-free"])
    gtsv = sturm.dgtsv
    monkeypatch.setattr(sturm, "dgtsv",
                        lambda *args, **kwargs: (*gtsv(*args, **kwargs)[:-1], 1))
    seen = _spy(monkeypatch)
    assert (tridiagonal_lowest(d, e, K, hint).tobytes()
            == tridiagonal_lowest(d, e, K).tobytes())
    assert seen["certified"] == [False] and seen["ranges"] == [2, 2]


def test_a_failed_ritz_problem_bisects_both_meshes(monkeypatch):
    syevd = sturm.dsyevd
    monkeypatch.setattr(sturm, "dsyevd",
                        lambda *args: (*syevd(*args)[:-1], 1))
    calls = _kernel_calls(monkeypatch, _SOLVES["transformed-trig"])
    assert [hint for *_, hint in calls] == [None, None]


@pytest.mark.parametrize("K, mesh", [(8, 768), (9, 768), (1, 15), (1, 16),
                                     (3, 16), (5, 31), (5, 32)])
def test_the_ritz_hint_needs_k_at_most_half_its_sines_and_2n_points(K, mesh):
    # N = 8 sines for K <= 4 and 16 for K <= 8; beyond K = 8, or on fewer
    # than 2N points, there is no hint
    d, e = _transformed_matrix(lambda u: np.cos(3.0 * u), 2.0, mesh)
    N = 8 if K <= 4 else 16
    hint = sturm._ritz_hint(d, e, K)
    assert (hint is None) == (K > 8 or mesh < 2 * N)


def test_a_solve_without_a_ritz_hint_bisects_both_meshes(monkeypatch):
    # K = 9 exceeds half of the 16 sines
    calls = _kernel_calls(monkeypatch, lambda: solve_transformed(
        TransformedProblem(t=2.0, v=np.zeros_like), 9, 256))
    assert [hint for *_, hint in calls] == [None, None]
    seen = _spy(monkeypatch)
    solve_transformed(TransformedProblem(t=2.0, v=np.zeros_like), 9, 256)
    assert seen == {"certified": [], "ranges": [2, 2], "solves": 0}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 700, 1024, 1025])
def test_a_tree_sum_carries_at_most_its_depth_in_roundings(n):
    rows = np.random.default_rng(n).normal(size=(3, 4, n)) * 10.0 ** np.arange(4)[:, None]
    sums = sturm._tree_sum(rows)
    assert sums.shape == (3, 4)
    depth = (n - 1).bit_length()
    u = sturm._EPS / 2
    for row, got in zip(rows.reshape(-1, n), sums.ravel()):
        bound = depth * u / (1 - depth * u) * math.fsum(np.abs(row))
        assert abs(got - math.fsum(row)) <= bound
    if n & (n - 1) == 0:       # no padding: plain halving, bit for bit
        halves = rows.copy()
        while halves.shape[-1] > 1:
            half = halves.shape[-1] // 2
            halves = halves[..., :half] + halves[..., half:]
        assert sums.tobytes() == halves[..., 0].tobytes()


def test_a_matrix_beyond_the_float_range_gives_no_hint():
    # with V = 1e308, S T S' overflows: no hint, no numpy warning, and the
    # solve bisects both meshes
    def v(u):
        return np.full_like(u, 1e308)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sturm._ritz_hint(*_transformed_matrix(v, 2.0, 32), 3) is None
        values = solve_transformed(TransformedProblem(2.0, v), 3, 64).values
    np.testing.assert_array_equal(values, 1e308)
