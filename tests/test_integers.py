"""One integer rule for every public integer argument.

An int, a numpy integer and an integral float such as 3.0 are the same
integer and give the same result; a bool, a fractional, NaN or infinite
value, a value below the parameter's minimum and a mesh or grid size above
``MAX_POINTS``, a term count above ``MAX_TERMS`` or a Sobolev order above
``MAX_SOBOLEV_ORDER`` are refused with ``UsageError`` (or the subclass the
parameter's module raises).
"""

import dataclasses
import math

import numpy as np
import pytest

from diraclab.assemble import assemble_spectrum
from diraclab.bracketing import bracketing_check, run_random_cases
from diraclab.catalog import (berger_zero_parameter, dminimal_value,
                              existence_certificate, index_lower_bound,
                              surface_and_sphere_facts)
from diraclab.circle import (CircleDiracModel, annihilation_flow,
                             bg_first_variation, circle_eigenpairs,
                             scaling_check, trace_identity_check)
from diraclab.errors import (MAX_POINTS, MAX_SOBOLEV_ORDER, MAX_TERMS,
                             FactNotFoundError, InvalidProfileError,
                             ResolutionError, UsageError, require_int)
from diraclab.metrics import flat_cylinder
from diraclab.profiles import (WarpingProfile, constant_profile,
                               exponential_profile, resolve_m)
from diraclab.stretch import run_stretch_sweep, sobolev_growth_fit
from diraclab.sturm import (BranchProblem, TransformedProblem, solve_direct,
                            solve_transformed)
from diraclab.transverse import (TransverseSpectrum, circle_spectrum,
                                 discrete_circle_oracle)
from diraclab.util import random_trig_polynomial

HARMONIC = TransverseSpectrum(entries=[(0.0, 1)], symmetric=True)
FREE = TransformedProblem(t=math.pi, v=np.zeros_like)
PROFILE = exponential_profile(2, math.pi)
BRANCH = BranchProblem.from_profile(PROFILE, 1.0)
KNOTS = {"knots": [0.0, 1.0, 2.0], "values": [1.0, 0.9, 0.8]}
TS = [2.0, 4.0]
GROWTH_TS = [2.0, 4.0, 8.0, 16.0]


def unit_circle(delta=0.5, n=64):
    return CircleDiracModel(np.ones_like, delta, n)


def kappa(theta):
    return np.cos(theta)


# (id, call, a valid integer, the minimum or None, the error raised)
PARAMETERS = [
    ("index-bound-m", lambda x: index_lower_bound(x, a_hat=3), 8, 1, UsageError),
    ("index-bound-a-hat", lambda x: index_lower_bound(8, a_hat=x), -3, None,
     UsageError),
    ("index-bound-alpha", lambda x: index_lower_bound(9, alpha=x), 2, None,
     UsageError),
    ("dminimal-m", lambda x: dminimal_value(x, a_hat=3), 8, 1, UsageError),
    ("dminimal-a-hat", lambda x: dminimal_value(8, a_hat=x), 3, None, UsageError),
    ("dminimal-alpha", lambda x: dminimal_value(10, alpha=x), 1, None,
     UsageError),
    ("genus", lambda x: surface_and_sphere_facts(genus=x), 2, 0,
     FactNotFoundError),
    ("sphere-dim", lambda x: surface_and_sphere_facts(sphere_dim=x), 3, 1,
     FactNotFoundError),
    ("berger-k", berger_zero_parameter, 3, 1, UsageError),
    ("certificate-m", existence_certificate, 7, 1, UsageError),
    ("sobolev-order", lambda x: flat_cylinder(2, 1.0).measure(x, 64), 2, 0,
     UsageError),
    ("simpson-panels", lambda x: flat_cylinder(2, 1.0).measure(1, x), 64, 2,
     UsageError),
    ("metric-m", lambda x: flat_cylinder(x, 1.0).measure(1, 64), 3, 2,
     UsageError),
    ("profile-m", lambda x: exponential_profile(x, 1.0).to_dict(), 3, 2,
     InvalidProfileError),
    ("spline-order", lambda x: WarpingProfile("sampled", 2.0, order=x,
                                              **KNOTS).to_dict(), 1, 0,
     InvalidProfileError),
    ("derivative-order", lambda x: PROFILE.rho(np.array([0.5, 1.0]), x), 2, 0,
     UsageError),
    ("resolve-m", lambda x: resolve_m(constant_profile(1.0, 1.0), x), 3, 2,
     UsageError),
    ("branch-m", lambda x: solve_direct(BranchProblem(PROFILE, 1.0, x), 2, 64),
     3, 2, UsageError),
    ("multiplicity", lambda x: TransverseSpectrum([(0.0, x)], True).to_dict(),
     2, 1, UsageError),
    ("circle-truncation", lambda x: circle_spectrum(math.pi, 0.5, x).to_dict(),
     2, 0, UsageError),
    ("oracle-n", lambda x: discrete_circle_oracle(math.pi, 0.5, x), 16, 16,
     UsageError),
    ("transformed-K", lambda x: solve_transformed(FREE, x, 64), 2, 1,
     UsageError),
    ("transformed-mesh", lambda x: solve_transformed(FREE, 2, x), 64, 64,
     ResolutionError),
    ("direct-K", lambda x: solve_direct(BRANCH, x, 64), 2, 1, UsageError),
    ("direct-mesh", lambda x: solve_direct(BRANCH, 2, x), 64, 64,
     ResolutionError),
    ("assemble-K", lambda x: assemble_spectrum(PROFILE, HARMONIC, math.pi, 2,
                                               x, 64), 2, 1, UsageError),
    ("assemble-mesh", lambda x: assemble_spectrum(PROFILE, HARMONIC, math.pi,
                                                  2, 2, x), 64, 64,
     ResolutionError),
    ("assemble-m", lambda x: assemble_spectrum(PROFILE, HARMONIC, math.pi, x,
                                               2, 64), 2, 2, UsageError),
    ("bracket-subset", lambda x: bracketing_check(FREE, [1.0], [x], 2, 64), 1,
     0, UsageError),
    ("bracket-j-count", lambda x: bracketing_check(FREE, [1.0], [0], x, 64), 2,
     1, UsageError),
    ("bracket-mesh", lambda x: bracketing_check(FREE, [1.0], [0], 2, x), 64, 64,
     ResolutionError),
    ("campaign-seed", lambda x: run_random_cases(x, 1, 2, 64), 5, 0,
     UsageError),
    ("campaign-cases", lambda x: run_random_cases(5, x, 2, 64), 1, 1,
     UsageError),
    ("campaign-j-count", lambda x: run_random_cases(5, 1, x, 64), 2, 1,
     UsageError),
    ("campaign-mesh", lambda x: run_random_cases(5, 1, 2, x), 64, 64,
     ResolutionError),
    ("circle-n", lambda x: unit_circle(n=x).f, 16, 16, UsageError),
    ("circle-mode", lambda x: unit_circle().eigensection(x), -2, None,
     UsageError),
    ("eigenpair-count", lambda x: circle_eigenpairs(unit_circle(), x), 3, 1,
     UsageError),
    ("scaling-count", lambda x: scaling_check(unit_circle(), [2.0], x), 3, 1,
     UsageError),
    ("trace-mode", lambda x: trace_identity_check(unit_circle(), x), 2, 0,
     UsageError),
    ("variation-mode", lambda x: bg_first_variation(unit_circle(), kappa, x),
     2, 0, UsageError),
    ("flow-steps", lambda x: annihilation_flow(unit_circle(), x), 2, 0,
     UsageError),
    ("trig-degree", lambda x: random_trig_polynomial(
        np.random.default_rng(1), 1.0, degree=x), 3, 0, UsageError),
    ("sweep-norm-k", lambda x: run_stretch_sweep(
        PROFILE, HARMONIC, TS, mesh=64, norm_ks=[0, x], panels=64), 2, 0,
     UsageError),
    ("sweep-mesh", lambda x: run_stretch_sweep(
        PROFILE, HARMONIC, TS, mesh=x, norm_ks=[0], panels=64), 64, 64,
     ResolutionError),
    ("growth-k", lambda x: sobolev_growth_fit(x, GROWTH_TS, panels=64), 2, 0,
     UsageError),
]
IDS = [row[0] for row in PARAMETERS]
# mesh and grid sizes and term counts are also bounded above, before anything
# is allocated
MAXIMA = {**dict.fromkeys(["transformed-mesh", "direct-mesh", "assemble-mesh",
                           "bracket-mesh", "campaign-mesh", "sweep-mesh",
                           "circle-n", "oracle-n"], MAX_POINTS),
          **dict.fromkeys(["circle-truncation", "trig-degree", "campaign-cases",
                           "eigenpair-count", "scaling-count"], MAX_TERMS),
          # a mode index j asks for the j + 1 lowest modes
          **dict.fromkeys(["trace-mode", "variation-mode"], MAX_TERMS - 1),
          **dict.fromkeys(["sobolev-order", "sweep-norm-k", "growth-k"],
                          MAX_SOBOLEV_ORDER)}
REFUSED = [pytest.param(call, bad, error, id=f"{name}-{bad!r}")
           for name, call, _, minimum, error in PARAMETERS
           for bad in [2.5, math.nan, math.inf, True]
           + ([] if minimum is None else [minimum - 1])
           + ([MAXIMA[name] + 1, 1e300] if name in MAXIMA else [])]


def _plain(x):
    """Nested lists and dicts of a result, so that repr tells 3 from 3.0."""
    if hasattr(x, "to_dict"):
        return _plain(x.to_dict())
    if dataclasses.is_dataclass(x):
        return _plain(vars(x))
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {key: _plain(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(value) for value in x]
    return x


@pytest.mark.parametrize("name,call,value,minimum,error", PARAMETERS, ids=IDS)
def test_integral_float_gives_the_integer_result(name, call, value, minimum,
                                                 error):
    expected = repr(_plain(call(value)))
    assert repr(_plain(call(float(value)))) == expected
    assert repr(_plain(call(np.int64(value)))) == expected


@pytest.mark.parametrize("call,bad,error", REFUSED)
def test_non_integer_or_too_small_value_is_refused(call, bad, error):
    with pytest.raises(UsageError) as excinfo:
        call(bad)
    assert type(excinfo.value) is error


@pytest.mark.parametrize("value", ["3", None, 3 + 0j, np.bool_(True),
                                   np.float64(2.5)])
def test_helper_refuses_what_is_not_an_integer(value):
    with pytest.raises(UsageError, match="n must be an integer >= 0"):
        require_int(value, "n", 0)


def test_helper_refuses_a_value_above_the_maximum():
    assert require_int(8.0, "n", 0, maximum=8) == 8
    with pytest.raises(UsageError, match="n must be at most 8, not 9.0"):
        require_int(9.0, "n", 0, maximum=8)


def test_helper_returns_a_plain_int():
    for value in (3, 3.0, np.int32(3), np.float32(3.0), np.uint8(3)):
        assert type(require_int(value, "n", 0)) is int
        assert require_int(value, "n", 0) == 3
