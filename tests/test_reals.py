"""One rule for every positive real argument.

The int 2, the float 2.0 and ``np.float64(2.0)`` are the same positive real
and give the same result; zero, a negative value, NaN, either infinity, a
string and a bool are refused with ``UsageError`` (or the subclass the
parameter's module raises).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from diraclab.assemble import assemble_spectrum, lowest_eigenvalue_bound
from diraclab.bracketing import bracketing_check
from diraclab.catalog import surface_and_sphere_facts
from diraclab.circle import (CircleDiracModel, annihilation_flow,
                             bg_first_variation, scaling_check)
from diraclab.errors import InvalidProfileError, UsageError, require_positive
from diraclab.metrics import (BlockPiece, CylinderPiece, flat_cylinder,
                              pullback_cylinder_metric)
from diraclab.profiles import (WarpingProfile, const_jet, constant_profile,
                               exponential_profile)
from diraclab.stretch import run_stretch_sweep, sobolev_growth_fit
from diraclab.sturm import TransformedProblem, solve_transformed
from diraclab.transverse import (TransverseSpectrum, circle_spectrum,
                                 discrete_circle_oracle)
from diraclab.util import random_trig_polynomial
from test_integers import _plain

HARMONIC = TransverseSpectrum(entries=[(0.0, 1)], symmetric=True)
FREE = TransformedProblem(t=math.pi, v=np.zeros_like)
LENGTH_TWO = exponential_profile(2, 2.0)


def unit_circle():
    return CircleDiracModel(np.ones_like, 0.5, 64)


def small_kappa(theta):
    return 0.1 * np.cos(theta)


def unit_jets(u, k):
    return const_jet(1.0, u, k), const_jet(1.0, u, k)


def free_solve(x):
    problem = TransformedProblem(t=x, v=np.zeros_like)
    return problem.t, solve_transformed(problem, 2, 64).values


# (id, call, the error raised); each call takes the positive real 2
PARAMETERS = [
    ("bound-t", lambda x: lowest_eigenvalue_bound(x, HARMONIC), UsageError),
    ("assemble-t", lambda x: assemble_spectrum(LENGTH_TWO, HARMONIC, x, 2, 2,
                                               64), UsageError),
    ("sphere-volume", lambda x: surface_and_sphere_facts(
        sphere_dim=2, sphere_volume=x), UsageError),
    ("scaling-factor", lambda x: scaling_check(unit_circle(), [1.0, x], 3),
     UsageError),
    ("variation-step", lambda x: bg_first_variation(unit_circle(), small_kappa,
                                                    0, x), UsageError),
    ("flow-epsilon", lambda x: annihilation_flow(unit_circle(), 3, x),
     UsageError),
    ("sweep-t", lambda x: run_stretch_sweep(
        LENGTH_TWO, HARMONIC, [1.0, x], mesh=64, norm_ks=[0], panels=64),
     UsageError),
    ("sweep-tolerance", lambda x: run_stretch_sweep(
        LENGTH_TWO, HARMONIC, [1.0, 2.0], mesh=64, tolerance=x, norm_ks=[0],
        panels=64), UsageError),
    ("growth-t", lambda x: sobolev_growth_fit(1, [x, 4.0, 8.0, 16.0],
                                              panels=64), UsageError),
    ("interval-t", free_solve, UsageError),
    ("circle-length", lambda x: circle_spectrum(x, 0.5, 2), UsageError),
    ("oracle-length", lambda x: discrete_circle_oracle(x, 0.5, 16),
     UsageError),
    ("bracket-cut", lambda x: bracketing_check(FREE, [x], [0], 2, 64),
     UsageError),
    ("piece-scale", lambda x: CylinderPiece("c", 0.0, 1.0, unit_jets,
                                            scale=x).measure(1, 2, 64),
     UsageError),
    ("block-scale", lambda x: BlockPiece("b", scale=x).measure(1, 2),
     UsageError),
    ("metric-factor", lambda x: flat_cylinder(2, 1.0).scaled(x).measure(1, 64),
     UsageError),
    ("metric-volume", lambda x: flat_cylinder(2, 1.0).normalized_unit_volume(x)
     [0].measure(1, 64), UsageError),
    ("flat-length", lambda x: flat_cylinder(2, x).measure(1, 64), UsageError),
    ("pullback-length", lambda x: pullback_cylinder_metric(
        exponential_profile(2, 2.0), x).measure(1, 64), UsageError),
    ("domain-length", lambda x: exponential_profile(2, x).to_dict(),
     InvalidProfileError),
    ("constant-c", lambda x: constant_profile(x, 1.0).to_dict(),
     InvalidProfileError),
    ("trig-period", lambda x: random_trig_polynomial(
        np.random.default_rng(0), x).to_dict(), UsageError),
]
IDS = [row[0] for row in PARAMETERS]
BAD = [0, -1.0, math.nan, math.inf, -math.inf, "1", True]
REFUSED = [pytest.param(call, bad, error, id=f"{name}-{bad!r}")
           for name, call, error in PARAMETERS for bad in BAD]


@pytest.mark.parametrize("name,call,error", PARAMETERS, ids=IDS)
def test_int_float_and_numpy_float_give_one_result(name, call, error):
    expected = repr(_plain(call(2.0)))
    assert repr(_plain(call(2))) == expected
    assert repr(_plain(call(np.float64(2.0)))) == expected


@pytest.mark.parametrize("call,bad,error", REFUSED)
def test_non_positive_or_non_finite_value_is_refused(call, bad, error):
    with pytest.raises(UsageError, match="must be positive and finite") as excinfo:
        call(bad)
    assert type(excinfo.value) is error


def test_sampled_profile_domain_length_is_read_by_the_rule():
    with pytest.raises(InvalidProfileError, match="domain_length must be positive"):
        WarpingProfile("sampled", "2", knots=[0.0, 1.0, 2.0],
                       values=[1.0, 0.9, 0.8])


@pytest.mark.parametrize("value", ["2", None, 2 + 0j, np.bool_(True), False,
                                   10**400, -(10**400), Fraction(-1, 2),
                                   np.float32("nan"), [2.0]])
def test_helper_refuses_what_is_not_a_positive_real(value):
    with pytest.raises(UsageError, match=r"x must be positive and finite, not "):
        require_positive(value, "x")


def test_helper_names_the_value_it_refuses():
    with pytest.raises(UsageError) as excinfo:
        require_positive(-0.5, "neck length t")
    assert str(excinfo.value) == "neck length t must be positive and finite, not -0.5"


def test_helper_raises_the_error_it_is_given():
    with pytest.raises(InvalidProfileError):
        require_positive(math.inf, "c", InvalidProfileError)


def test_helper_returns_a_plain_float():
    for value in (2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2),
                  Fraction(2)):
        assert type(require_positive(value, "x")) is float
        assert require_positive(value, "x") == 2.0
    assert require_positive(5e-324, "x") == 5e-324
