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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
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
        entries = tuple((float(mu), int(mult)) for mu, mult in self.entries)
        if not entries:
            raise UsageError("a transverse spectrum needs at least one entry")
        if not all(math.isfinite(mu) for mu, _ in entries):
            raise UsageError("transverse eigenvalues must be finite")
        if not self.omitted_abs_min >= 0:
            raise UsageError("omitted_abs_min must be zero, positive or infinite")
        if any(mult < 1 for _, mult in entries):
            raise UsageError("multiplicities must be positive")
        if any(entries[i][0] >= entries[i + 1][0] for i in range(len(entries) - 1)):
            raise UsageError("entries must be strictly ascending in mu")
        object.__setattr__(self, "entries", entries)
        if self.symmetric and not self._is_symmetric_set():
            raise UsageError("spectrum flagged symmetric but entries do not pair up")

    def _is_symmetric_set(self) -> bool:
        table = {mu: mult for mu, mult in self.entries}
        for mu, mult in self.entries:
            if abs(mu) <= _HARMONIC_TOL:
                continue
            partner = table.get(-mu)
            if partner != mult:
                return False
        return True

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
        gap = doc.get("omitted_abs_min", math.inf)
        spec = cls(tuple((e[0], e[1]) for e in doc["entries"]),
                   bool(doc["symmetric"]), float(gap))
        if not spec.symmetric and not spec._is_symmetric_set():
            warnings.warn("asymmetric transverse spectrum: branch pairing "
                          "(mu <-> -mu) is taken for granted elsewhere; "
                          "results depend on the file being intentional",
                          stacklevel=2)
        return spec


def circle_spectrum(length: float, delta: float, truncation: int) -> TransverseSpectrum:
    """Circle Dirac spectrum {2 pi (n + delta) / L}, symmetrically truncated.

    The truncation keeps all eigenvalues with |mu| <= 2 pi (truncation + delta) / L,
    i.e. the plain |n| <= J window for delta = 0 and the symmetric completion of
    it for delta = 1/2.  The gap to the first omitted eigenvalue is recorded.
    """
    if not length > 0:
        raise UsageError("circle length must be positive")
    if delta not in (0.0, 0.5):
        raise UsageError("spin twist delta must be 0 or 1/2")
    if truncation < 0:
        raise UsageError("truncation must be >= 0")
    lo = -truncation - (1 if delta == 0.5 else 0)
    values = [2.0 * math.pi * (n + delta) / length for n in range(lo, truncation + 1)]
    entries = tuple((v, 1) for v in sorted(values))
    gap = 2.0 * math.pi * (truncation + 1 + delta) / length
    return TransverseSpectrum(entries, symmetric=True, omitted_abs_min=gap)


def discrete_circle_oracle(length: float, delta: float, n: int) -> np.ndarray:
    """Eigenvalues of the antisymmetric central-difference model of i d/ds.

    The n grid points sit on a circle of circumference ``length``; the wrap
    entries carry the spin twist exp(2 pi i delta).  Returns the sorted real
    spectrum of the resulting Hermitian matrix.  Low eigenvalues converge to
    the exact +-2 pi (k + delta)/L at second order; the usual central-difference
    doubler modes show up at the top of the band and are left to the caller.

    The matrix is a periodic tridiagonal.  Numbering the nodes zig-zag
    (0, n-1, 1, n-2, ...) puts every neighbour pair, the twisted wrap
    (n-1, 0) and the middle pair (n/2-1, n/2) included, at most two places
    apart, so the same spectrum is a LAPACK Hermitian band solve of
    half-width 2 with O(n) memory.
    """
    if not (math.isfinite(length) and length > 0):
        raise UsageError("circle length must be finite and positive")
    if delta not in (0.0, 0.5):
        raise UsageError("spin twist delta must be 0 or 1/2")
    if n < 16 or n % 2:
        raise UsageError("oracle grid size must be even and at least 16")
    from scipy.linalg import eigvals_banded

    h = length / n
    coef = 1j / (2.0 * h)
    phase = complex(np.exp(2j * np.pi * delta))
    # upper band storage: band[2 + p - q, q] holds entry (p, q), p <= q;
    # node k sits at place 2k and node n-1-k at place 2k+1
    band = np.zeros((3, n), dtype=complex)
    band[0, 2::2] = coef                         # (k, k+1)
    band[0, 3::2] = -coef                        # (n-1-k, n-2-k)
    band[1, 1] = -coef * np.conj(phase)          # wrap (0, n-1)
    band[1, n - 1] = coef                        # middle (n/2-1, n/2)
    return eigvals_banded(band)


def scale_to_slice(spectrum: TransverseSpectrum, profile: WarpingProfile,
                   u: float) -> TransverseSpectrum:
    """Transverse spectrum on the slice at height u: mu -> mu * rho(0)/rho(u).

    The scaling factor is positive, so ordering, multiplicities, symmetry and
    the presence of a harmonic entry are all preserved.
    """
    if not 0.0 <= u <= profile.domain_length:
        raise UsageError(f"slice position u={u} outside [0, {profile.domain_length}]")
    factor = float(profile.rho(0.0)) / float(profile.rho(u))
    entries = tuple((mu * factor, mult) for mu, mult in spectrum.entries)
    gap = spectrum.omitted_abs_min
    return TransverseSpectrum(entries, spectrum.symmetric,
                              gap * factor if math.isfinite(gap) else gap)
