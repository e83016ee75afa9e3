"""Transverse (cross-section) spectra and the discrete circle oracle."""

import math
import re
import warnings

import numpy as np
import pytest

from diraclab import transverse
from diraclab.assemble import assemble_spectrum
from diraclab.circle import CircleDiracModel
from diraclab.errors import TruncationRiskError, UsageError, is_number, require_int
from diraclab.profiles import exponential_profile
from diraclab.transverse import (TransverseSpectrum, circle_spectrum,
                                 discrete_circle_oracle)

TWO_PI = 2.0 * math.pi


def test_circle_spectrum_periodic():
    # L = 2 pi, delta = 0: eigenvalues are the integers
    s = circle_spectrum(TWO_PI, 0.0, 2)
    assert s.entries == ((-2.0, 1), (-1.0, 1), (0.0, 1), (1.0, 1), (2.0, 1))
    assert s.symmetric and s.has_harmonic
    assert s.omitted_abs_min == pytest.approx(3.0)


def test_circle_spectrum_antiperiodic():
    # delta = 1/2 shifts to half-integers; no harmonic entry
    s = circle_spectrum(TWO_PI, 0.5, 1)
    assert s.entries == ((-1.5, 1), (-0.5, 1), (0.5, 1), (1.5, 1))
    assert not s.has_harmonic
    assert s.omitted_abs_min == pytest.approx(2.5)


@pytest.mark.parametrize("truncation", [0, 3, 300])
@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("length", [TWO_PI, 3.7, 1e-3])
def test_circle_spectrum_equals_the_per_value_closed_form(length, delta,
                                                          truncation):
    # the reference evaluates 2 pi (n + delta) / L one n at a time, in the
    # same operation order, so the values agree to the bit
    lo = -truncation - (1 if delta == 0.5 else 0)
    expected = [(2.0 * math.pi * (n + delta) / length, 1)
                for n in range(lo, truncation + 1)]
    entries = circle_spectrum(length, delta, truncation).entries
    assert [(mu.hex(), mult) for mu, mult in entries] == \
        [(mu.hex(), mult) for mu, mult in expected]
    assert all(type(mu) is float for mu, _ in entries)


def test_circle_spectrum_length_scaling():
    a = circle_spectrum(TWO_PI, 0.5, 3)
    b = circle_spectrum(2 * TWO_PI, 0.5, 3)
    np.testing.assert_allclose([mu for mu, _ in b.entries],
                               [mu / 2 for mu, _ in a.entries], rtol=1e-13)


def test_validation():
    with pytest.raises(UsageError):
        TransverseSpectrum(entries=[(1.0, 1), (0.0, 1)], symmetric=False)
    with pytest.raises(UsageError):
        TransverseSpectrum(entries=[(0.0, 0)], symmetric=True)
    with pytest.raises(UsageError):
        # claimed symmetric but -1 is unpaired
        TransverseSpectrum(entries=[(-1.0, 1), (0.0, 1)], symmetric=True)
    with pytest.raises(UsageError):
        circle_spectrum(-1.0, 0.5, 2)
    with pytest.raises(UsageError):
        circle_spectrum(TWO_PI, 0.3, 2)   # only the two spin structures


def test_from_dict_round_trip_and_asymmetric_warning():
    s = circle_spectrum(TWO_PI, 0.5, 2)
    clone = TransverseSpectrum.from_dict(s.to_dict())
    assert clone.entries == s.entries
    assert clone.omitted_abs_min == s.omitted_abs_min
    # an asymmetric listing is read as given, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asym = TransverseSpectrum.from_dict(
            {"entries": [[0.5, 1], [1.5, 1]], "symmetric": False})
    assert asym.entries == ((0.5, 1), (1.5, 1)) and not asym.symmetric


def test_from_dict_missing_keys():
    with pytest.raises(UsageError):
        TransverseSpectrum.from_dict({"entries": [[0.0, 1]]})


def test_from_dict_refuses_an_unknown_key():
    # spelt right, the gap 1.5 makes the truncation unsafe; a misspelt key
    # must not drop it and leave the listing read as complete
    doc = {"entries": [[-1, 1], [0, 1], [1, 1]], "symmetric": True}
    spectrum = TransverseSpectrum.from_dict({**doc, "omitted_abs_min": 1.5})
    with pytest.raises(TruncationRiskError, match="margin .* = -3.15"):
        assemble_spectrum(exponential_profile(2, 3.0), spectrum, 3.0, 2, 4, 256)
    with pytest.raises(UsageError,
                       match=re.escape("unknown spectrum fields ['omited_abs_min']")):
        TransverseSpectrum.from_dict({**doc, "omited_abs_min": 1.5})


@pytest.mark.parametrize("doc", [3, None, [["entries", [[0.0, 1]]]]],
                         ids=["number", "none", "pairs"])
def test_from_dict_needs_a_mapping(doc):
    # it used to raise a bare TypeError from set(doc)
    with pytest.raises(UsageError, match=re.escape(
            f"a spectrum document must be a mapping, not {doc!r}")):
        TransverseSpectrum.from_dict(doc)


@pytest.mark.parametrize("entries", [
    [["a", 1]], [[0.0]], [[0.0, 1, 2]], [0.0], "01", 5, [[True, 1]],
    [["0.0", 1]], [[0.0, "1"]], [[None, 1]],
], ids=["string-mu", "single", "triple", "bare-number", "string",
        "not-a-list", "bool-mu", "numeric-string-mu", "string-multiplicity",
        "none-mu"])
def test_from_dict_rejects_malformed_entries(entries):
    # each entry must be a pair of a finite number and an integer multiplicity
    with pytest.raises(UsageError):
        TransverseSpectrum.from_dict({"entries": entries, "symmetric": False})
    with pytest.raises(UsageError):
        TransverseSpectrum(entries, symmetric=False)


def _reference_entry(entry):
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and is_number(entry[0]) and math.isfinite(entry[0])):
        raise UsageError("a spectrum entry must be a pair of a finite "
                         f"eigenvalue and a multiplicity, not {entry!r}")
    return float(entry[0]), require_int(entry[1], "multiplicity", 1)


def _per_entry_reading(entries, symmetric):
    """Reference: the spectrum's entries, or the message of its first
    refusal, read one entry at a time with no shortcut for common types."""
    try:
        pairs = tuple(_reference_entry(e) for e in entries)
    except UsageError as exc:
        return str(exc)
    if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
        return "entries must be strictly ascending in mu"
    table = dict(pairs)
    if symmetric and any(abs(mu) > transverse._HARMONIC_TOL
                         and table.get(-mu) != mult
                         for mu, mult in pairs):
        return "spectrum flagged symmetric but entries do not pair up"
    return pairs


@pytest.mark.parametrize("entries", [
    [list(e) for e in circle_spectrum(TWO_PI, 0.5, 40).entries],
    [[-2, 1], [0, 3], [2, 1]],
    [(-2, 1), (0, 3), (2, 1)],
    [(-1.0, 10**30), (1.0, 10**30)],
    [(-1.0, 10**30), (1.0, 10**30 + 1)],
    [(-1.0, 2), (1.0, 1)],
    [(-2.0, 1), (-1.0, 1), (1.0, 1)],
    [(-1e-13, 1), (1e-13, 2)],
    [(-1.0, 1), (math.nan, 1), (1.0, 1)],
    [(-1.0, 1), (math.inf, 1)],
    [(1.0, 1), (1.0, 1)],
    [(0.0, 0), ("x", 1)],
    [(0.0, 1), (1.0, 1, 2)],
    [(-1.0, 2.0), (1.0, 2.0)],
    [(np.float64(-1.0), np.int64(1)), (np.float64(1.0), np.int64(1))],
], ids=["circle", "ints", "int-tuples", "huge-mults", "huge-mults-unpaired",
        "unequal-mults", "unpaired", "near-harmonic", "nan-mu", "inf-mu",
        "repeated-mu", "two-bad", "ragged", "integral-float-mults",
        "numpy-scalars"])
@pytest.mark.parametrize("symmetric", [True, False])
def test_array_checks_match_the_per_entry_reading(entries, symmetric):
    # the order and the pairing are checked in array passes over the whole
    # list; the outcome, refusal message included, is that of reading the
    # entries one at a time
    try:
        got = TransverseSpectrum(entries, symmetric).entries
    except UsageError as exc:
        got = str(exc)
    expected = _per_entry_reading(entries, symmetric)
    assert repr(got) == repr(expected)
    if isinstance(expected, tuple):
        assert all(type(mu) is float and type(mult) is int
                   for mu, mult in got)


@pytest.mark.parametrize("gap", ["1.0", None, True])
def test_from_dict_rejects_a_non_numeric_gap(gap):
    with pytest.raises(UsageError):
        TransverseSpectrum.from_dict({"entries": [[0.0, 1]], "symmetric": True,
                                      "omitted_abs_min": gap})


def test_an_integer_beyond_the_float_range():
    # float64 cannot hold 10^400: as an entry it is refused, as the gap it
    # bounds |mu| as an infinity does
    huge = 10**400
    with pytest.raises(UsageError, match="a spectrum entry must be a pair"):
        TransverseSpectrum([(0.0, 1), (huge, 1)], symmetric=False)
    s = TransverseSpectrum([(0.0, 1)], symmetric=True, omitted_abs_min=huge)
    assert s.omitted_abs_min == math.inf
    assert "omitted_abs_min" not in s.to_dict()


@pytest.mark.parametrize("flag", ["false", "yes", 0, 1, None])
def test_symmetric_flag_must_be_a_bool(flag):
    # bool("false") is True: a flag that is not a bool is refused, not read
    with pytest.raises(UsageError):
        TransverseSpectrum.from_dict({"entries": [[-1, 1], [0, 1], [1, 1]],
                                      "symmetric": flag})
    with pytest.raises(UsageError):
        TransverseSpectrum([[0, 1]], symmetric=flag)


# ---------------------------------------------------------------------------
# finite-difference oracle for the closed form
# ---------------------------------------------------------------------------

def test_oracle_contains_zero_for_periodic():
    o = discrete_circle_oracle(TWO_PI, 0.0, 128)
    assert np.min(np.abs(o)) < 1e-12


def test_oracle_symmetry():
    o = np.sort(discrete_circle_oracle(TWO_PI, 0.5, 128))
    np.testing.assert_allclose(o, -o[::-1], atol=1e-10)


def test_oracle_matches_closed_form_second_order():
    # defect of the lowest mode behaves like lam^3 h^2 / 6: halving h
    # divides it by ~4
    lam = 0.5   # lowest antiperiodic mode at L = 2 pi
    defects = []
    for n in (64, 128, 256):
        o = discrete_circle_oracle(TWO_PI, 0.5, n)
        defects.append(np.min(np.abs(o - lam)))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.05)
    assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.05)
    # absolute size of the leading error term
    h = TWO_PI / 64
    assert defects[0] == pytest.approx(lam**3 * h**2 / 6.0, rel=0.05)


def test_oracle_reproduces_higher_modes():
    o = discrete_circle_oracle(TWO_PI, 0.0, 512)
    for lam in (0.0, 1.0, -1.0, 2.0, 3.0):
        h = TWO_PI / 512
        tol = (abs(lam) ** 3 / 6.0 + 0.1) * h**2
        assert np.min(np.abs(o - lam)) <= tol


def _dense_oracle_matrix(length, delta, n):
    # the twisted central-difference matrix, built explicitly in node order
    coef = 1j / (2.0 * (length / n))
    phase = complex(np.exp(2j * np.pi * delta))
    mat = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = coef
    mat[idx + 1, idx] = -coef
    mat[n - 1, 0] = coef * phase
    mat[0, n - 1] = -coef * np.conj(phase)
    return mat


@pytest.mark.parametrize("n", [16, 18, 64, 130])   # n = 2 mod 4: odd middle pair
@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("length", [TWO_PI, 3.7])
def test_band_oracle_equals_dense_solve(n, delta, length):
    dense = np.linalg.eigvalsh(_dense_oracle_matrix(length, delta, n))
    band = discrete_circle_oracle(length, delta, n)
    assert band.shape == (n,)
    assert np.all(np.diff(band) >= 0.0)
    np.testing.assert_allclose(band, dense, rtol=0.0, atol=1e-11 * n / length)


@pytest.mark.parametrize("n", [16, 18, 64, 130, 512])
@pytest.mark.parametrize("delta", [0.0, 0.5])
@pytest.mark.parametrize("length", [TWO_PI, 3.7])
@pytest.mark.parametrize("window", [(-2.6, 2.6), (0.31, 4.02), (-50.0, -1.7),
                                    (-1e3, 1e3)])
def test_windowed_oracle_matches_the_full_oracle(n, delta, length, window):
    # the cross-check's Sturm count of the oracle values in (lo, hi] is the
    # number of the full oracle's values there
    full = discrete_circle_oracle(length, delta, n)
    inside = np.count_nonzero((full > window[0]) & (full <= window[1]))
    halves = transverse._oracle_halves(length, delta, n)
    assert transverse._oracle_count(halves, *window) == inside


def test_an_empty_window_returns_no_values():
    # the oracle's band is [-n/L, n/L]
    halves = transverse._oracle_halves(TWO_PI, 0.5, 64)
    assert transverse._oracle_count(halves, 20.0, 30.0) == 0


@pytest.mark.parametrize("length", [0.0, -TWO_PI, math.nan, math.inf])
def test_oracle_rejects_bad_length(length):
    with pytest.raises(UsageError):
        discrete_circle_oracle(length, 0.5, 64)


@pytest.mark.parametrize("make", [
    lambda delta: circle_spectrum(TWO_PI, delta, 2),
    lambda delta: discrete_circle_oracle(TWO_PI, delta, 64),
    lambda delta: CircleDiracModel(np.ones_like, delta, 64),
], ids=["spectrum", "oracle", "circle-model"])
@pytest.mark.parametrize("delta", [0.25, -0.5, math.nan, "0", False, None])
def test_every_circle_refuses_a_twist_other_than_0_or_half(make, delta):
    with pytest.raises(UsageError, match="spin twist delta must be 0 or 1/2"):
        make(delta)
