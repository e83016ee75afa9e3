"""Transverse (cross-section) Dirac spectra and a circle oracle for them.

A transverse spectrum is the ascending eigenvalue list, with
multiplicities, of the cross-section Dirac operator at u = 0.  Flagged
symmetric, every entry off the harmonic one must appear with its negative at
the same multiplicity; assembly reads each entry as its own branch, so an
asymmetric list is taken as given.  Along the slices of a warped cylinder
each eigenvalue scales like rho(0)/rho(u).  The concrete model shipped here
is the circle of circumference L with spin twist delta in {0, 1/2}, whose
spectrum is {2 pi (n + delta) / L : n integer}; an antisymmetric
finite-difference discretization of i d/ds serves as an independent oracle
for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MAX_POINTS, MAX_TERMS, UsageError, is_finite,
                     is_number, require_fields, require_int, require_positive)

__all__ = ["TransverseSpectrum", "circle_spectrum", "discrete_circle_oracle"]

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
        entries = tuple(map(_entry, self.entries))
        if not entries:
            raise UsageError("a transverse spectrum needs at least one entry")
        gap = self.omitted_abs_min
        if not (is_number(gap) and gap >= 0):
            raise UsageError("omitted_abs_min must be zero, positive or infinite")
        # an integer beyond the float range bounds |mu| as an infinity does
        object.__setattr__(self, "omitted_abs_min",
                           float(gap) if is_finite(gap) else math.inf)
        mus, mults = zip(*entries)
        mu = np.array(mus)
        if not np.all(mu[1:] > mu[:-1]):
            raise UsageError("entries must be strictly ascending in mu")
        object.__setattr__(self, "entries", entries)
        if not isinstance(self.symmetric, bool):
            raise UsageError("the symmetric flag must be true or false, "
                             f"not {self.symmetric!r}")
        if self.symmetric and not _pairs_up(mu, mults):
            raise UsageError("spectrum flagged symmetric but entries do not pair up")

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
        """The spectrum of ``doc``; a key other than entries, symmetric and
        omitted_abs_min is refused, so a misspelt truncation bound is never
        read as a complete listing."""
        require_fields(doc, ("entries", "symmetric", "omitted_abs_min"),
                       "spectrum")
        if "entries" not in doc or "symmetric" not in doc:
            raise UsageError("spectrum document needs 'entries' and 'symmetric'")
        return cls(doc["entries"], doc["symmetric"],
                   doc.get("omitted_abs_min", math.inf))


def _entry(entry) -> tuple:
    """One (mu, multiplicity) pair: a finite number and an integer >= 1."""
    if type(entry) is tuple and len(entry) == 2:
        mu, mult = entry
        if (type(mu) is float and type(mult) is int and mult >= 1
                and math.isfinite(mu)):
            return entry    # the common case, before the slower ABC checks
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and is_finite(entry[0])):
        raise UsageError("a spectrum entry must be a pair of a finite "
                         f"eigenvalue and a multiplicity, not {entry!r}")
    return float(entry[0]), require_int(entry[1], "multiplicity", 1)


def _pairs_up(mu: np.ndarray, mults: tuple) -> bool:
    """Whether the ascending entries off the harmonic one pair up: they are a
    head below -tol and a tail above tol that read as the head's negatives,
    with the same multiplicities, in descending order."""
    head = int(np.searchsorted(mu, -_HARMONIC_TOL, "left"))
    tail = int(np.searchsorted(mu, _HARMONIC_TOL, "right"))
    return (head == len(mu) - tail
            and np.array_equal(mu[:head], -mu[tail:][::-1])
            and mults[:head] == mults[tail:][::-1])


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
    ns = np.arange(-truncation - (1 if delta == 0.5 else 0), truncation + 1)
    entries = tuple((v, 1) for v in _circle_eigenvalues(length, delta, ns).tolist())
    gap = _circle_eigenvalues(length, delta, truncation + 1)
    return TransverseSpectrum(entries, symmetric=True, omitted_abs_min=gap)


def _circle_eigenvalues(length: float, delta: float, n):
    """2 pi (n + delta) / L for an integer or integer array ``n`` of modes."""
    return 2.0 * math.pi * (n + delta) / length


def discrete_circle_oracle(length: float, delta: float, n: int) -> np.ndarray:
    """Eigenvalues of the antisymmetric central-difference model of i d/ds.

    The n grid points sit on a circle of circumference ``length``; the wrap
    entries carry the spin twist exp(2 pi i delta).  Returns the sorted real
    spectrum of the resulting Hermitian matrix.  Low eigenvalues converge to
    the exact +-2 pi (k + delta)/L at second order; the usual
    central-difference doubler modes show up at the top of the band and are
    left to the caller.

    The matrix is i/(2h) times a twisted antisymmetric cycle.  Conjugating it
    with diag(i^k) makes it real symmetric: every neighbour coupling becomes
    off = -1/(2h), and the wrap coupling picks up the sign
    s = e^{2 pi i delta} (-1)^{n/2}, which is +-1 as n is even.  The
    reflection k <-> n-1-k commutes with it, so the spectrum is that of two
    tridiagonal halves of size n/2 (even and odd vectors) with off-diagonal
    ``off`` and diagonal +-d, d zero but for the wrap d[0] = s off and the
    middle pair d[-1] = off; LAPACK ``dstevd`` solves each in O(n) memory.
    """
    length = require_positive(length, "circle length")
    delta = require_twist(delta)
    n = require_int(n, "oracle grid size", 16, maximum=MAX_POINTS)
    if n % 2:
        raise UsageError(f"oracle grid size must be even, not {n}")
    from ._lapack import check_info, flapack

    lapack = flapack()
    halves = []
    for diag, off in _oracle_halves(length, delta, n):
        values, _, info = lapack.dstevd(diag, off, compute_v=0)
        check_info(info, "dstevd")
        halves.append(values)
    return np.sort(np.concatenate(halves))


def _oracle_halves(length: float, delta: float, n: int) -> tuple:
    """The two tridiagonal halves ``((d, off), (-d, off))`` of the oracle
    matrix of :func:`discrete_circle_oracle`, for checked arguments."""
    off = np.full(n // 2 - 1, -n / (2.0 * length))
    d = np.zeros(n // 2)
    d[0] = off[0] * (-1) ** (n // 2) * (1 if delta == 0.0 else -1)   # wrap
    d[-1] = off[0]                                                   # middle
    return (d, off), (-d, off)


def _oracle_count(halves, lo: float, hi: float) -> int:
    """Number of eigenvalues of the oracle ``halves`` in (lo, hi].  LAPACK
    ``dstebz`` by value, with its tolerance the window's width, counts them
    from the Sturm counts at the two ends, without locating them."""
    from ._lapack import check_info, flapack

    dstebz = flapack().dstebz
    found = 0
    for diag, off in halves:
        inside, _, _, _, info = dstebz(diag, off, 1, lo, hi, 0, 0, hi - lo, "E")
        check_info(info, "dstebz")
        found += inside
    return found
