"""Transverse (cross-section) Dirac spectra and their behaviour along slices.

A transverse spectrum is the symmetric eigenvalue list of the cross-section
Dirac operator at u = 0.  Along the slices of a warped cylinder each
eigenvalue scales like rho(0)/rho(u).  The concrete model shipped here is the
circle of circumference L with spin twist delta in {0, 1/2}, whose spectrum is
{2 pi (n + delta) / L : n integer}; an antisymmetric finite-difference
discretization of i d/ds serves as an independent oracle for it.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_POINTS, MAX_TERMS, UsageError, is_number,
                     require_int, require_positive)
from .profiles import WarpingProfile

__all__ = [
    "TransverseSpectrum", "circle_spectrum", "discrete_circle_oracle",
    "scale_to_slice",
]

_HARMONIC_TOL = 1e-12


@dataclass(frozen=True)
class TransverseSpectrum:
    """Sorted eigenvalue/multiplicity pairs of a cross-section Dirac operator.

    ``omitted_abs_min`` is a lower bound for |mu| of any eigenvalue *not*
    listed (infinity means the listing is complete as far as the consumer is
    concerned); truncation-safety checks downstream rely on it.
    """

    entries: tuple
    symmetric: bool
    omitted_abs_min: float = math.inf

    def __post_init__(self):
        if not isinstance(self.entries, (list, tuple)):
            raise UsageError("spectrum entries must be a list of pairs")
        entries = tuple(_entry(e) for e in self.entries)
        if not entries:
            raise UsageError("a transverse spectrum needs at least one entry")
        gap = self.omitted_abs_min
        if not (is_number(gap) and gap >= 0):
            raise UsageError("omitted_abs_min must be zero, positive or infinite")
        object.__setattr__(self, "omitted_abs_min", float(gap))
        mus = [mu for mu, _ in entries]
        if not all(map(operator.lt, mus, mus[1:])):
            raise UsageError("entries must be strictly ascending in mu")
        object.__setattr__(self, "entries", entries)
        if not isinstance(self.symmetric, bool):
            raise UsageError("the symmetric flag must be true or false, "
                             f"not {self.symmetric!r}")
        if self.symmetric and not self._is_symmetric_set():
            raise UsageError("spectrum flagged symmetric but entries do not pair up")

    def _is_symmetric_set(self) -> bool:
        # in ascending order, the entries off the harmonic one pair up
        # exactly when they read as their own negatives in descending order
        off = [(mu, mult) for mu, mult in self.entries
               if abs(mu) > _HARMONIC_TOL]
        return off == [(-mu, mult) for mu, mult in reversed(off)]

    @property
    def has_harmonic(self) -> bool:
        return any(abs(mu) <= _HARMONIC_TOL for mu, _ in self.entries)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {"entries": [[mu, mult] for mu, mult in self.entries],
               "symmetric": self.symmetric}
        if math.isfinite(self.omitted_abs_min):
            doc["omitted_abs_min"] = self.omitted_abs_min
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TransverseSpectrum":
        if "entries" not in doc or "symmetric" not in doc:
            raise UsageError("spectrum document needs 'entries' and 'symmetric'")
        spec = cls(doc["entries"], doc["symmetric"],
                   doc.get("omitted_abs_min", math.inf))
        if not spec.symmetric and not spec._is_symmetric_set():
            warnings.warn("asymmetric transverse spectrum: branch pairing "
                          "(mu <-> -mu) is taken for granted elsewhere; "
                          "results depend on the file being intentional",
                          stacklevel=2)
        return spec


def _entry(entry) -> tuple:
    """One (mu, multiplicity) pair: a finite number and an integer >= 1."""
    if type(entry) is tuple and len(entry) == 2:
        mu, mult = entry
        if (type(mu) is float and type(mult) is int and mult >= 1
                and math.isfinite(mu)):
            return entry    # the common case, before the slower ABC checks
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and is_number(entry[0]) and math.isfinite(entry[0])):
        raise UsageError("a spectrum entry must be a pair of a finite "
                         f"eigenvalue and a multiplicity, not {entry!r}")
    return float(entry[0]), require_int(entry[1], "multiplicity", 1)


def require_twist(delta) -> float:
    """The spin twist delta as a float; only 0 and 1/2 are spin structures."""
    if not (is_number(delta) and delta in (0.0, 0.5)):
        raise UsageError("spin twist delta must be 0 or 1/2")
    return float(delta)


def circle_spectrum(length: float, delta: float, truncation: int) -> TransverseSpectrum:
    """Circle Dirac spectrum {2 pi (n + delta) / L}, symmetrically truncated.

    The truncation keeps all eigenvalues with |mu| <= 2 pi (truncation + delta) / L,
    i.e. the plain |n| <= J window for delta = 0 and the symmetric completion of
    it for delta = 1/2.  The gap to the first omitted eigenvalue is recorded.
    """
    length = require_positive(length, "circle length")
    delta = require_twist(delta)
    truncation = require_int(truncation, "truncation", 0, maximum=MAX_TERMS)
    lo = -truncation - (1 if delta == 0.5 else 0)
    values = (2.0 * math.pi * (np.arange(lo, truncation + 1) + delta)
              / length).tolist()
    entries = tuple((v, 1) for v in values)
    gap = 2.0 * math.pi * (truncation + 1 + delta) / length
    return TransverseSpectrum(entries, symmetric=True, omitted_abs_min=gap)


def discrete_circle_oracle(length: float, delta: float, n: int,
                           window=None) -> np.ndarray:
    """Eigenvalues of the antisymmetric central-difference model of i d/ds.

    The n grid points sit on a circle of circumference ``length``; the wrap
    entries carry the spin twist exp(2 pi i delta).  Returns the sorted real
    spectrum of the resulting Hermitian matrix, or with ``window=(lo, hi)``
    only its values in (lo, hi].  Low eigenvalues converge to the exact
    +-2 pi (k + delta)/L at second order; the usual central-difference
    doubler modes show up at the top of the band and are left to the caller.

    The matrix is i/(2h) times a twisted antisymmetric cycle.  Conjugating it
    with diag(i^k) makes it real symmetric: every neighbour coupling becomes
    off = -1/(2h), and the wrap coupling picks up the sign
    s = e^{2 pi i delta} (-1)^{n/2}, which is +-1 as n is even.  The
    reflection k <-> n-1-k commutes with it, so the spectrum is that of two
    tridiagonal halves of size n/2 (even and odd vectors) with off-diagonal
    ``off`` and diagonal +-d, d zero but for the wrap d[0] = s off and the
    middle pair d[-1] = off; LAPACK ``dstevd`` solves each in O(n) memory,
    and with a window LAPACK ``dstebz`` bisects each for the values in it.
    """
    length = require_positive(length, "circle length")
    delta = require_twist(delta)
    n = require_int(n, "oracle grid size", 16, maximum=MAX_POINTS)
    if n % 2:
        raise UsageError(f"oracle grid size must be even, not {n}")
    if window is not None:
        lo, hi = window
        if not (is_number(lo) and is_number(hi) and lo < hi):
            raise UsageError(f"oracle window must be numbers lo < hi, not {window!r}")
    from ._lapack import flapack

    off = np.full(n // 2 - 1, -n / (2.0 * length))
    d = np.zeros(n // 2)
    d[0] = off[0] * (-1) ** (n // 2) * (1 if delta == 0.0 else -1)   # wrap
    d[-1] = off[0]                                                   # middle
    lapack = flapack()
    halves = []
    for diag in (d, -d):
        if window is None:
            values, _, info = lapack.dstevd(diag, off, compute_v=0)
        else:
            count, values, _, _, info = lapack.dstebz(diag, off, 1, lo, hi,
                                                      0, 0, 0.0, "E")
            values = values[:count]
        if info != 0:
            raise ValueError(f"LAPACK eigenvalue routine failed with info={info}")
        halves.append(values)
    return np.sort(np.concatenate(halves))


def scale_to_slice(spectrum: TransverseSpectrum, profile: WarpingProfile,
                   u: float) -> TransverseSpectrum:
    """Transverse spectrum on the slice at height u: mu -> mu * rho(0)/rho(u).

    The scaling factor is positive, so ordering, multiplicities, symmetry and
    the presence of a harmonic entry are all preserved.
    """
    if not (is_number(u) and 0.0 <= u <= profile.domain_length):
        raise UsageError(f"slice position u={u} outside [0, {profile.domain_length}]")
    factor = float(profile.rho(0.0)) / float(profile.rho(u))
    entries = tuple((mu * factor, mult) for mu, mult in spectrum.entries)
    gap = spectrum.omitted_abs_min
    return TransverseSpectrum(entries, spectrum.symmetric,
                              gap * factor if math.isfinite(gap) else gap)
