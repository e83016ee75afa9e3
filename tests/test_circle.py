"""Closed-form circle Dirac model: variation, trace, scaling, flow."""

import math

import numpy as np
import pytest

from diraclab.circle import (CircleDiracModel, annihilation_flow,
                             bg_first_variation, circle_eigenpairs,
                             energy_momentum, scaling_check,
                             trace_identity_check)
from diraclab.errors import (DiscretizationFailureError, FlowStuckError,
                             UsageError)
from diraclab.util import periodic_trapezoid, random_trig_polynomial

TWO_PI = 2.0 * math.pi
ONES = lambda th: np.ones_like(th)


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
    ns = m.mode_indices(6)
    assert [m.eigenvalue(n) for n in ns] == [0.5, -0.5, 1.5, -1.5, 2.5, -2.5]
    m0 = CircleDiracModel(ONES, 0.0, n=64)
    assert [m0.eigenvalue(n) for n in m0.mode_indices(5)] == \
        [0.0, 1.0, -1.0, 2.0, -2.0]


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
    exact = CircleDiracModel.eigenvalue
    monkeypatch.setattr(CircleDiracModel, "eigenvalue",
                        lambda self, n: exact(self, n) + 1e-3)
    with pytest.raises(DiscretizationFailureError):
        circle_eigenpairs(unit_antiperiodic(512), 4, cross_check=True)


def test_eigenpairs_need_a_positive_count():
    with pytest.raises(UsageError):
        circle_eigenpairs(unit_antiperiodic(64), 0)


def test_perturbed_requires_positive_metric():
    m = unit_antiperiodic(128)
    with pytest.raises(UsageError):
        m.perturbed(-2.0 * np.ones(m.n), 1.0)


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
    with pytest.raises(UsageError):
        m.perturbed(np.ones(m.n), 1e-4)            # f^2 overflows
    with pytest.raises(UsageError):
        unit_antiperiodic(64).perturbed(np.full(64, math.nan), 1e-4)


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


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_flow_without_steps_reports_the_initial_lambda0(delta):
    model = CircleDiracModel(ONES, delta, n=128)
    tr = annihilation_flow(model, max_steps=0)
    assert tr.steps == []
    assert tr.stop_reason == "max_steps"
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
