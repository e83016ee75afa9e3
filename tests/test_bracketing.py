"""Dirichlet bracketing: cutting an interval never lowers eigenvalues."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from diraclab import bracketing
from diraclab.bracketing import bracketing_check, run_random_cases
from diraclab.errors import ResolutionError, UsageError
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
    # a lone number, not a list
    with pytest.raises(UsageError, match="^cuts must be a list, not 1.0$"):
        bracketing_check(FREE_PI, 1.0, [0], 2, 128)
    with pytest.raises(UsageError, match="^subset must be a list, not 0$"):
        bracketing_check(FREE_PI, [1.0], 0, 2, 128)


def test_a_piece_mesh_below_j_count_is_refused_before_any_solve(monkeypatch):
    # piece 1, [0.3, 3], gets 691 of the 768 points; piece 0, [0, 0.3],
    # gets 77, which support 36 values
    def refused(*args):
        raise AssertionError("solved before the piece meshes were checked")

    monkeypatch.setattr(bracketing, "solve_transformed", refused)
    with pytest.raises(ResolutionError, match=re.escape(
            "j_count=40 exceeds what piece 0 on [0, 0.3] supports: its mesh "
            "of 77 interior points gives at most 36 values")):
        bracketing_check(TransformedProblem(t=3.0, v=np.zeros_like),
                         cuts=[0.3], subset=[0, 1], j_count=40, mesh=768)


def test_a_piece_too_short_for_its_mesh_is_refused_before_any_solve(
        monkeypatch):
    # piece 0, [0, 1e-80], gets the least piece mesh, 64 points, whose
    # spacing 1.5e-82 lies below what the kernel can square
    def refused(*args):
        raise AssertionError("solved before the piece meshes were checked")

    monkeypatch.setattr(bracketing, "solve_transformed", refused)
    with pytest.raises(ResolutionError, match=re.escape(
            "t = 1e-80 is too short for a mesh of 64 interior points")):
        bracketing_check(TransformedProblem(t=1.0, v=np.zeros_like),
                         cuts=[1e-80], subset=[0, 1], j_count=8, mesh=768)


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


@pytest.mark.parametrize("seed", [7, 11])
def test_each_case_passes_by_the_rule_it_was_written_with(seed):
    reports, all_passed = run_random_cases(seed, 100)
    rule = [bool(np.all(r.margins >= -r.tolerances)) for r in reports]
    assert [r.passed for r in reports] == rule
    assert [r.to_dict()["passed"] for r in reports] == rule
    assert all_passed is all(rule)


def test_a_case_passes_at_a_margin_of_zero_and_fails_below_it():
    rep = bracketing_check(FREE_PI, cuts=[math.pi / 2], subset=[0, 1],
                           j_count=3, mesh=256)
    slack = rep.margins + rep.tolerances
    assert rep._worst == (float(slack.min()), int(slack.argmin()))
    # mu_j - lambda_j + tolerance_j exactly zero for every j, then just
    # below zero for j = 1
    tied = replace(rep, tolerances=-rep.margins)
    assert tied._worst[0] == 0.0 and tied.passed
    below = -rep.margins
    below[1] = np.nextafter(below[1], -np.inf)
    spoilt = replace(rep, tolerances=below)
    assert spoilt._worst[1] == 1 and spoilt._worst[0] < 0.0
    assert not spoilt.passed and spoilt.to_dict()["passed"] is False
