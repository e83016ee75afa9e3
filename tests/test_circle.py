"""Closed-form circle Dirac model: variation, trace, scaling, flow."""

import math

import numpy as np
import pytest

from diraclab.circle import (CircleDiracModel, annihilation_flow,
                             bg_first_variation, circle_eigenpairs,
                             energy_momentum, scaling_check,
                             trace_identity_check)
from diraclab.errors import (MAX_TERMS, DiscretizationFailureError,
                             FlowStuckError, UsageError)
from diraclab.transverse import (_circle_eigenvalues, circle_spectrum,
                                  discrete_circle_oracle)
from diraclab.util import periodic_trapezoid, random_trig_polynomial

TWO_PI = 2.0 * math.pi
ONES = lambda th: np.ones_like(th)
# the closed form as circle_eigenpairs reads it; a test shifts it there
CLOSED_FORM = "diraclab.circle._circle_eigenvalues"


def unit_antiperiodic(n=2048):
    return CircleDiracModel(ONES, 0.5, n=n)


# ---------------------------------------------------------------------------
# model basics
# ---------------------------------------------------------------------------

def test_length_is_the_f_integral():
    m = CircleDiracModel(lambda th: 1 + 0.3 * np.cos(th), 0.5, n=512)
    assert m.length == pytest.approx(TWO_PI, rel=1e-12)
    m2 = CircleDiracModel(lambda th: 2.0 * np.ones_like(th), 0.0, n=64)
    assert m2.length == pytest.approx(2 * TWO_PI, rel=1e-12)


def test_eigenvalues_closed_form_and_ordering():
    m = unit_antiperiodic(256)
    assert m.eigenvalue(0) == pytest.approx(0.5)
    assert m.eigenvalue(-1) == pytest.approx(-0.5)
    # positive member of each +-pair comes first
    ns = [m.mode(j) for j in range(6)]
    assert [m.eigenvalue(n) for n in ns] == [0.5, -0.5, 1.5, -1.5, 2.5, -2.5]
    m0 = CircleDiracModel(ONES, 0.0, n=64)
    assert [m0.eigenvalue(m0.mode(j)) for j in range(5)] == \
        [0.0, 1.0, -1.0, 2.0, -2.0]


def _sorted_modes(delta, count):
    """The oracle for the mode rule: the first ``count`` indices n sorted by
    (|n + delta|, -(n + delta)) from a window that holds them all."""
    span = count + 2
    return sorted(range(-span - 1, span + 1),
                  key=lambda n: (abs(n + delta), -(n + delta)))[:count]


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_mode_rule_matches_the_sorted_order(delta):
    model = CircleDiracModel(ONES, delta, n=64)
    assert ([model.mode(j) for j in range(MAX_TERMS)]
            == _sorted_modes(delta, MAX_TERMS))


@pytest.mark.parametrize("j", [-1, MAX_TERMS, 2.5, math.nan, True])
def test_mode_rule_refuses_an_index_outside_the_bound(j):
    with pytest.raises(UsageError, match="mode j must be"):
        unit_antiperiodic(64).mode(j)


@pytest.mark.parametrize("truncation", [0, 3, 50])
@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("scale", [0.05, 1.0, 7.3])
def test_listing_equals_the_model_modes(scale, delta, truncation):
    # the listing holds the first 2J + 1 modes (2J + 2 for delta = 1/2),
    # sorted, and its gap is the next mode's |lambda|, to the last bit
    model = CircleDiracModel(lambda th: scale * (1 + 0.3 * np.cos(th)), delta,
                             n=256)
    count = 2 * truncation + 1 + (delta == 0.5)
    lams, _ = circle_eigenpairs(model, count + 1)
    spectrum = circle_spectrum(model.length, delta, truncation)
    assert spectrum.entries == tuple((lam, 1) for lam in sorted(lams[:count]))
    assert spectrum.omitted_abs_min == abs(lams[count])


def test_eigensections_are_normalized():
    m = CircleDiracModel(lambda th: 1 + 0.4 * np.sin(th), 0.5, n=4096)
    lams, psis = circle_eigenpairs(m, 3)
    for psi in psis:
        mass = periodic_trapezoid(np.abs(psi) ** 2 * m.f, TWO_PI)
        assert mass == pytest.approx(1.0, rel=1e-10)
        # |psi|^2 is constant 1/L in arclength
        np.testing.assert_allclose(np.abs(psi) ** 2, 1.0 / m.length, rtol=1e-10)


def test_eigenpairs_cross_check_accepts_the_closed_form():
    lams, _ = circle_eigenpairs(unit_antiperiodic(512), 4, cross_check=True)
    assert list(lams) == [0.5, -0.5, 1.5, -1.5]


def test_eigenpairs_cross_check_rejects_a_shifted_closed_form(monkeypatch):
    monkeypatch.setattr(CLOSED_FORM,
                        lambda *args: _circle_eigenvalues(*args) + 1e-3)
    with pytest.raises(DiscretizationFailureError):
        circle_eigenpairs(unit_antiperiodic(512), 4, cross_check=True)


def _tol(lam, h):
    # the cross-check's second-order tolerance at grid spacing h
    return (abs(lam) ** 3 / 6.0 + 1.0) * h**2 * 5.0 + 1e-9


def _full_oracle_verdict(model, lams):
    """The cross-check's rule read off the whole oracle spectrum: every
    lambda has an oracle value within its tolerance."""
    n_grid = model.n + model.n % 2
    h = model.length / n_grid
    oracle = discrete_circle_oracle(model.length, model.delta, n_grid)
    return all(np.min(np.abs(oracle - lam)) <= _tol(lam, h) for lam in lams)


def _cross_check_passes(model, count):
    try:
        circle_eigenpairs(model, count, cross_check=True)
    except DiscretizationFailureError:
        return False
    return True


SHIFTS = [0.0] + [sign * amount for amount in (1e-9, 1e-6, 1e-3, 0.02, 0.1,
                                               0.3, 0.7, 2.0)
                  for sign in (1.0, -1.0)]


@pytest.mark.parametrize("n", [16, 18, 64, 130, 512])
@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("length", [TWO_PI, 3.7])
def test_cross_check_counts_reach_the_full_oracle_verdict(n, delta, length,
                                                          monkeypatch):
    # the check counts the oracle values in [lambda - tol, lambda + tol]; it
    # must fail exactly when the whole oracle spectrum has none there
    model = CircleDiracModel(lambda th: np.full_like(th, length / TWO_PI),
                             delta, n)
    for shift in SHIFTS:
        monkeypatch.setattr(CLOSED_FORM,
                            lambda *args: _circle_eigenvalues(*args) + shift)
        for count in (1, 6):
            lams, _ = circle_eigenpairs(model, count)
            assert (_cross_check_passes(model, count)
                    == _full_oracle_verdict(model, lams)), (shift, count)


def test_cross_check_counts_an_oracle_value_exactly_tol_away(monkeypatch):
    # the periodic oracle matrix has the eigenvalue 0 exactly (the constant
    # vector), and on a circle of length n/32 its entries are 0 and +-16, so
    # the Sturm count at 0 is exact too: a lambda with lambda + tol == 0 has
    # that eigenvalue at the closed upper end of its window
    model = CircleDiracModel(ONES, 0.0, 64)
    model.length = 2.0
    h = model.length / model.n
    lam = 0.0
    for _ in range(20):
        lam = -_tol(lam, h)
    assert lam + _tol(lam, h) == 0.0
    for value, passes in ((lam, True), (lam * (1.0 + 1e-9), False)):
        monkeypatch.setattr(CLOSED_FORM,
                            lambda length, delta, n: np.full(np.shape(n), value))
        assert _cross_check_passes(model, 1) is passes


def test_eigenpairs_cross_check_fails_closed_with_no_oracle_value_within_tol(
        monkeypatch):
    # lambda = 1, midway between the oracle's values near 0.5 and 1.5, has
    # none in [1 - tol, 1 + tol]: the check raises its own error
    monkeypatch.setattr(CLOSED_FORM,
                        lambda *args: _circle_eigenvalues(*args) + 0.5)
    with pytest.raises(DiscretizationFailureError,
                       match="not reproduced by the difference oracle"):
        circle_eigenpairs(unit_antiperiodic(512), 1, cross_check=True)


def test_eigenpairs_need_a_positive_count():
    with pytest.raises(UsageError):
        circle_eigenpairs(unit_antiperiodic(64), 0)


def test_perturbed_requires_positive_metric():
    m = unit_antiperiodic(128)
    with pytest.raises(UsageError, match="not positive definite"):
        m.perturbed_length(-2.0 * np.ones(m.n), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_model_rejects_non_finite_samples(bad):
    f = np.ones(64)
    f[5] = bad
    with pytest.raises(UsageError):
        CircleDiracModel(f, 0.5, n=64)


@pytest.mark.parametrize("f", [
    np.ones(63),
    lambda theta: 1.0,
    lambda theta: [1.0] * 3,
], ids=["short-array", "scalar-callable", "short-callable"])
def test_model_rejects_samples_off_the_grid(f):
    # a callable's output is held to the grid as an array is
    with pytest.raises(UsageError, match="f samples must match the grid size"):
        CircleDiracModel(f, 0.5, n=64)


def test_model_rejects_an_overflowing_length():
    with pytest.raises(UsageError):
        CircleDiracModel(np.full(64, 1e308), 0.5, n=64)


def test_perturbed_rejects_non_finite_metric():
    m = CircleDiracModel(np.full(64, 1e200), 0.5, n=64)
    with pytest.raises(UsageError, match="perturbed metric is not finite"):
        m.perturbed_length(np.ones(m.n), 1e-4)     # f^2 overflows
    with pytest.raises(UsageError, match="perturbed metric is not finite"):
        unit_antiperiodic(64).perturbed_length(np.full(64, math.nan), 1e-4)


@pytest.mark.parametrize("call,named", [
    (lambda m: CircleDiracModel(["a"] * 64, 0.5, 64), "f"),
    (lambda m: CircleDiracModel(lambda theta: ["a"] * 64, 0.5, 64), "f"),
    (lambda m: bg_first_variation(m, "x", 0), "kappa"),
    (lambda m: m.perturbed_length(["a"] * m.n, 0.1), "kappa"),
    (lambda m: m.perturbed_length([10**400] * m.n, 0.1), "kappa"),
    (lambda m: energy_momentum(m, ["a"] * m.n, 1.0), "eigensection"),
], ids=["f", "f-callable", "variation-kappa", "perturbed-kappa",
        "perturbed-huge-kappa", "eigensection"])
def test_samples_that_are_not_numbers_are_refused(call, named):
    with pytest.raises(UsageError, match=f"^{named} samples must be numbers$"):
        call(unit_antiperiodic(64))


@pytest.mark.parametrize("lam", ["a", math.nan, math.inf, True, 10**400],
                         ids=["string", "nan", "inf", "bool", "huge-int"])
def test_energy_momentum_needs_a_finite_eigenvalue(lam):
    # NaN used to come back as NaN after a RuntimeWarning, and True as 1
    m = unit_antiperiodic(64)
    psi = m.eigensection(m.mode(0))
    with pytest.raises(UsageError, match="the eigenvalue must be a finite number"):
        energy_momentum(m, psi, lam)


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_fd_eigenvalues_equal_explicit_perturbed_models(delta):
    # the finite difference reads the exact eigenvalue of each perturbed
    # metric from its length alone; a model built on that metric gives the
    # same numbers to the last bit
    rng = np.random.default_rng(31)
    f = random_trig_polynomial(rng, TWO_PI, degree=3, scale=0.3, offset=1.0)
    model = CircleDiracModel(f, delta, n=512)
    kappa = random_trig_polynomial(rng, TWO_PI, degree=4)
    kv = kappa(model.theta)
    h = 1e-4
    explicit = {s: CircleDiracModel(np.sqrt(model.f**2 + s * kv), delta, model.n)
                for s in (+h, -h)}
    for s, other in explicit.items():
        assert model.perturbed_length(kv, s) == other.length
    for j in range(4):
        res = bg_first_variation(model, kv, j, h)
        n = model.mode(j)
        plus, minus = (explicit[s].eigenvalue(n) for s in (+h, -h))
        assert res.fd_value == (plus - minus) / (2.0 * h)


def test_delta_validation():
    with pytest.raises(UsageError):
        CircleDiracModel(ONES, 0.25, n=64)


# ---------------------------------------------------------------------------
# energy-momentum and the trace identity
# ---------------------------------------------------------------------------

def test_energy_momentum_matches_closed_form():
    # W(d_theta, d_theta) = lam f^2 / L for every metric density
    m = CircleDiracModel(lambda th: 1 + 0.25 * np.cos(2 * th), 0.5, n=8192)
    lams, psis = circle_eigenpairs(m, 2)
    w = energy_momentum(m, psis[0], lams[0])
    expect = lams[0] * m.f**2 / m.length
    np.testing.assert_allclose(w, expect, rtol=1e-6)


def test_trace_identity_defect_is_second_order():
    defects = {}
    for n in (128, 512, 1024):
        defects[n] = trace_identity_check(unit_antiperiodic(n), 0)["defect"]
    order = math.log(defects[128] / defects[1024]) / math.log(1024 / 128)
    assert order >= 1.8
    assert defects[1024] < defects[128]


def test_trace_identity_zero_mode_is_exact():
    # periodic model: lam = 0 mode has both sides identically zero
    rep = trace_identity_check(CircleDiracModel(ONES, 0.0, n=256), 0)
    assert rep["lambda"] == pytest.approx(0.0)
    assert rep["defect"] < 1e-12


# ---------------------------------------------------------------------------
# first variation
# ---------------------------------------------------------------------------

def test_conformal_variation_exact():
    # kappa = 2, lam = 1/2: the closed-form derivative is exactly -1/2
    var = bg_first_variation(unit_antiperiodic(16384), lambda th: 2.0 * ONES(th), 0)
    assert var.lam == pytest.approx(0.5)
    assert var.formula_value == pytest.approx(-0.5, abs=1e-8)
    assert var.fd_value == pytest.approx(-0.5, abs=1e-6)


def test_variation_formula_vs_fd_random():
    rng = np.random.default_rng(42)
    m = CircleDiracModel(ONES, 0.5, n=4096)
    for j in range(5):
        kappa = random_trig_polynomial(rng, TWO_PI, degree=3, scale=0.5)
        var = bg_first_variation(m, kappa, j)
        assert abs(var.formula_value - var.fd_value) <= \
            1e-4 * (1.0 + abs(var.formula_value))


def test_variation_on_non_flat_background():
    rng = np.random.default_rng(7)
    f = random_trig_polynomial(rng, TWO_PI, degree=3, scale=0.15, offset=1.0)
    m = CircleDiracModel(f, 0.5, n=4096)
    kappa = random_trig_polynomial(rng, TWO_PI, degree=4, scale=0.4)
    var = bg_first_variation(m, kappa, 1)
    assert abs(var.formula_value - var.fd_value) <= \
        1e-4 * (1.0 + abs(var.formula_value))


def test_variation_fd_step_sensitivity():
    # central differences: defect scales ~ h^2 until roundoff, so 1e-3 and
    # 1e-4 both stay inside the documented tolerance window
    m = unit_antiperiodic(4096)
    kappa = lambda th: np.cos(3 * th)
    defects = []
    for h in (1e-3, 1e-4, 1e-5):
        var = bg_first_variation(m, kappa, 2, h_fd=h)
        defects.append(abs(var.formula_value - var.fd_value))
    assert max(defects) <= 1e-4 * (1.0 + abs(var.formula_value))


def test_variation_accepts_sampled_kappa():
    m = unit_antiperiodic(1024)
    kv = np.cos(m.theta)
    var = bg_first_variation(m, kv, 0)
    assert np.isfinite(var.formula_value)
    with pytest.raises(UsageError):
        bg_first_variation(m, np.ones(17), 0)   # wrong grid


# ---------------------------------------------------------------------------
# scaling law
# ---------------------------------------------------------------------------

def test_scaling_law_exact_and_printed_direction_flagged():
    rep = scaling_check(unit_antiperiodic(256), [0.25, 0.5, 2.0, 4.0])
    assert rep["max_defect"] <= 1e-10
    assert rep["verified_law"] == "lambda_j(c*g) * sqrt(c) = lambda_j(g)"
    assert rep["printed_claim_holds"] is False
    assert rep["printed_claim_defect"] > 0.1


def test_scaling_zero_mode_is_invariant():
    # periodic model: lam = 0 stays 0 under any homothety
    rep = scaling_check(CircleDiracModel(ONES, 0.0, n=128), [0.25, 4.0], count=1)
    assert rep["max_defect"] <= 1e-12


def test_scaling_rejects_nonpositive_factor():
    with pytest.raises(UsageError):
        scaling_check(unit_antiperiodic(128), [0.0])


# ---------------------------------------------------------------------------
# annihilation flow
# ---------------------------------------------------------------------------

def test_flow_single_step_worked_example():
    # f = 1, delta = 1/2: W is constant, kappa = 1, t0 = 2, metric triples
    tr = annihilation_flow(unit_antiperiodic(512), max_steps=1)
    assert [s.step for s in tr.steps] == [0]
    assert tr.stop_reason == "max_steps"
    s = tr.steps[0]
    assert s.lambda0 == pytest.approx(0.5)
    assert s.c == pytest.approx(0.5, rel=1e-10)
    assert s.t0 == pytest.approx(2.0, rel=1e-10)
    assert tr.final_length == pytest.approx(math.sqrt(3) * TWO_PI, rel=1e-10)
    assert tr.final_lambda0 == pytest.approx(0.5 / math.sqrt(3), rel=1e-10)


def test_flow_ten_steps_ratio():
    tr = annihilation_flow(unit_antiperiodic(512), max_steps=10)
    assert tr.monotone
    ratios = tr.lambda_ratios()
    assert len(ratios) == 10
    np.testing.assert_allclose(ratios, 1.0 / math.sqrt(3), atol=1e-6)
    lams = [s.lambda0 for s in tr.steps] + [tr.final_lambda0]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_flow_on_periodic_model_is_trivial():
    tr = annihilation_flow(CircleDiracModel(ONES, 0.0, n=128), max_steps=10)
    assert len(tr.steps) == 0
    assert tr.stop_reason == "annihilated"
    assert tr.final_lambda0 == pytest.approx(0.0)


def test_flow_epsilon_stop():
    tr = annihilation_flow(unit_antiperiodic(256), max_steps=50, epsilon=0.1)
    assert tr.stop_reason == "annihilated"
    assert tr.final_lambda0 < 0.1
    # 1/2 * 3^{-k/2} < 0.1 first at k = 3
    assert len(tr.steps) == 3


@pytest.mark.parametrize("steps,epsilon,reason", [
    (1, 0.3, "annihilated"),        # 0.5 / sqrt(3) = 0.2887 < 0.3
    (1, 0.28, "max_steps"),
    (3, 0.1, "annihilated"),        # 0.5 / 3^(3/2) = 0.0962 < 0.1
    (2, 0.1, "max_steps"),
], ids=["last-step-1", "above-1", "last-step-3", "above-3"])
def test_flow_below_epsilon_on_its_last_step_is_annihilated(steps, epsilon,
                                                            reason):
    tr = annihilation_flow(CircleDiracModel(np.ones_like, 0.5, 64),
                           max_steps=steps, epsilon=epsilon)
    assert len(tr.steps) == steps
    assert (tr.final_lambda0 < epsilon) == (reason == "annihilated")
    assert tr.stop_reason == reason


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_flow_without_steps_reports_the_initial_lambda0(delta):
    model = CircleDiracModel(ONES, delta, n=128)
    tr = annihilation_flow(model, max_steps=0)
    assert tr.steps == []
    # lambda0 = 0 < epsilon for delta = 0, as with max_steps=10
    assert tr.stop_reason == ("annihilated" if delta == 0.0 else "max_steps")
    assert tr.final_lambda0 == model.eigenvalue(0)
    assert tr.final_length == periodic_trapezoid(model.f, TWO_PI)
    assert tr.monotone


@pytest.mark.parametrize("delta,steps,epsilon,stuck_at", [
    # lambda0 ~ 2e-81 at step 337: ||W||^2 underflows to zero
    (0.5, 2000, 1e-300, "step 337"),
], ids=["underflow"])
def test_flow_fails_closed_without_a_step_direction(delta, steps, epsilon,
                                                     stuck_at):
    model = CircleDiracModel(ONES, delta, n=64)
    with pytest.raises(FlowStuckError, match=stuck_at):
        annihilation_flow(model, max_steps=steps, epsilon=epsilon)


@pytest.mark.parametrize("delta,epsilon", [
    (0.5, math.nan),     # would run every step and report "max_steps"
    (0.0, -1.0),         # lambda0 = 0 is not below it, and W vanishes
    (0.5, 0.0),
    (0.5, math.inf),
], ids=["nan", "negative", "zero", "infinite"])
def test_flow_rejects_a_bad_epsilon(delta, epsilon):
    model = CircleDiracModel(ONES, delta, n=64)
    with pytest.raises(UsageError, match="epsilon must be positive and finite"):
        annihilation_flow(model, max_steps=3, epsilon=epsilon)


def test_flow_nonconstant_start_still_monotone():
    rng = np.random.default_rng(5)
    f = random_trig_polynomial(rng, TWO_PI, degree=2, scale=0.2, offset=1.0)
    tr = annihilation_flow(CircleDiracModel(f, 0.5, n=2048), max_steps=4)
    assert tr.monotone
    lams = [s.lambda0 for s in tr.steps] + [tr.final_lambda0]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def test_flow_trace_serialization():
    tr = annihilation_flow(unit_antiperiodic(128), max_steps=2)
    header, rows = tr.to_rows()
    assert header == ["step", "lambda0", "length", "t0", "C"]
    assert len(rows) == 2
    doc = tr.to_dict()
    assert doc["monotone"] is True
    assert doc["stop_reason"] == "max_steps"
    assert len(doc["steps"]) == 2
