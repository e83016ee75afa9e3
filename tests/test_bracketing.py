"""Dirichlet bracketing: cutting an interval never lowers eigenvalues."""

import math

import numpy as np
import pytest

from diraclab.bracketing import bracketing_check, run_random_cases
from diraclab.errors import UsageError
from diraclab.sturm import TransformedProblem

FREE_PI = TransformedProblem(t=math.pi, v=np.zeros_like)


def test_single_piece_is_the_identity_check():
    rep = bracketing_check(FREE_PI, cuts=[], subset=[0], j_count=5, mesh=1024)
    np.testing.assert_allclose(rep.margins, 0.0, atol=1e-9)
    assert rep.passed


def test_half_cut_closed_form():
    # cutting [0, pi] at pi/2 gives two copies of the free problem on a
    # half-length interval: each has spectrum (2n)^2, so the merged multiset
    # is {4, 4, 16, 16, 36, ...} against the full {1, 4, 9, 16, 25, ...}
    rep = bracketing_check(FREE_PI, cuts=[math.pi / 2], subset=[0, 1],
                           j_count=5, mesh=1024)
    np.testing.assert_allclose(rep.full_values, [1, 4, 9, 16, 25], rtol=1e-6)
    np.testing.assert_allclose(rep.merged_values, [4, 4, 16, 16, 36], rtol=1e-5)
    assert rep.passed
    # exact coincidences show up as ~zero margins, covered by the tolerance
    assert rep.margins[1] == pytest.approx(0.0, abs=1e-5)


def test_margins_are_merged_minus_full_and_nonnegative():
    rep = bracketing_check(FREE_PI, cuts=[1.0, 2.0], subset=[0, 1, 2],
                           j_count=6, mesh=768)
    np.testing.assert_allclose(
        rep.margins, np.asarray(rep.merged_values) - np.asarray(rep.full_values),
        atol=1e-12)
    assert np.all(np.asarray(rep.margins) >= -np.asarray(rep.tolerances))
    assert rep.passed


def test_proper_subset_still_bounds():
    # using only the first half interval: its Dirichlet values (2n)^2
    # dominate the full values index by index
    rep = bracketing_check(FREE_PI, cuts=[math.pi / 2], subset=[0],
                           j_count=4, mesh=768)
    np.testing.assert_allclose(rep.merged_values, [4, 16, 36, 64], rtol=1e-4)
    assert np.all(np.asarray(rep.margins) > 2.0)
    assert rep.passed


def test_validation():
    with pytest.raises(UsageError):
        bracketing_check(FREE_PI, cuts=[5.0], subset=[0, 1], j_count=3)
    with pytest.raises(UsageError):
        bracketing_check(FREE_PI, cuts=[1.0], subset=[], j_count=3)
    with pytest.raises(UsageError):
        bracketing_check(FREE_PI, cuts=[1.0], subset=[0, 2], j_count=3)
    with pytest.raises(UsageError):
        bracketing_check(FREE_PI, cuts=[1.0, 1.0], subset=[0, 1], j_count=3)


def test_unsorted_cuts_are_normalized():
    a = bracketing_check(FREE_PI, cuts=[2.0, 1.0], subset=[0, 1, 2],
                         j_count=3, mesh=512)
    b = bracketing_check(FREE_PI, cuts=[1.0, 2.0], subset=[0, 1, 2],
                         j_count=3, mesh=512)
    assert a.cuts == b.cuts
    np.testing.assert_allclose(a.merged_values, b.merged_values, rtol=0)


def test_random_campaign_is_seeded_and_passes():
    reports, ok = run_random_cases(seed=123, cases=6, j_count=6, mesh=512)
    assert ok and len(reports) == 6
    again, _ = run_random_cases(seed=123, cases=6, j_count=6, mesh=512)
    assert [r.t for r in reports] == [r.t for r in again]
    assert [tuple(r.cuts) for r in reports] == [tuple(r.cuts) for r in again]
    # a different seed draws different geometry
    other, _ = run_random_cases(seed=124, cases=6, j_count=6, mesh=512)
    assert [r.t for r in reports] != [r.t for r in other]


def test_report_serialization():
    rep = bracketing_check(FREE_PI, cuts=[1.5], subset=[0, 1], j_count=3,
                           mesh=512)
    doc = rep.to_dict()
    assert doc["passed"] is True
    assert len(doc["margins"]) == 3
    assert doc["cuts"] == [1.5]
    assert doc["subset"] == [0, 1]
