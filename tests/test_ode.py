"""One-dimensional Dirichlet solvers against independent oracles.

The frozen eigenvalue tables below were produced by a Pruefer-free shooting
oracle: integrate  -y'' + (V - lam) y = 0,  y(0)=0, y'(0)=1  with
scipy.integrate.solve_ivp (DOP853, rtol 1e-12) and locate the zeros of
y(t; lam) with brentq over a lambda scan.  That route shares no code with the
finite-difference bisection path under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from diraclab.errors import (DiscretizationFailureError, ResolutionError,
                             UsageError)
from diraclab.profiles import (WarpingProfile, constant_profile,
                               exponential_profile, resolve_m)
from diraclab.sturm import (BranchProblem, TransformedProblem, _direct_raw,
                            _transformed_raw, liouville_transform,
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
            got = _direct_raw(bp, 5, n)
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


# ---------------------------------------------------------------------------
# convergence behavior
# ---------------------------------------------------------------------------

def test_second_order_convergence_without_extrapolation():
    tr = TransformedProblem(t=math.pi, v=np.zeros_like)
    errs = []
    for mesh in (128, 256, 512):
        raw = _transformed_raw(tr.v, tr.t, 1, mesh)
        errs.append(abs(raw[0] - 1.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_richardson_beats_raw_values():
    tr = TransformedProblem(t=math.pi, v=np.zeros_like)
    raw = _transformed_raw(tr.v, tr.t, 3, 512)
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


def test_mesh_contracts():
    tr = TransformedProblem(t=1.0, v=np.zeros_like)
    with pytest.raises(ResolutionError):
        solve_transformed(tr, K=1, mesh=32)
    with pytest.raises(ResolutionError):
        solve_transformed(tr, K=200, mesh=256)   # K beyond the coarse mesh
    with pytest.raises(UsageError):
        TransformedProblem(t=-1.0, v=np.zeros_like)
