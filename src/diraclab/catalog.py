"""Catalog of harmonic-spinor facts, index bounds, and existence certificates.

The tabulated facts (surface genus table, sphere table, D-minimal table, the
Berger zero mode) live in a JSON data file with their literature citations and
are looked up verbatim, never re-derived.  On top of the lookups sit the two
index-theoretic bound formulas and the dimension-descent logic that certifies
the existence of a harmonic-spinor metric: starting from dimension m, reduce
one dimension at a time (each step glues a neck along the geodesic-sphere
boundary S^{d-1}, importing the harmonic spinor produced in dimension d-1)
until a multiple of four is reached, where the Berger metric on the odd
sphere S^{2k+1} (k odd, fiber scale T = 2k+2) supplies the zero mode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Optional

from .errors import (FactNotFoundError, NotCoveredError, UsageError,
                     require_int, require_positive)

__all__ = [
    "FactRecord", "index_lower_bound", "dminimal_value", "dminimal_table",
    "surface_and_sphere_facts", "berger_zero_parameter",
    "ExistenceCertificate", "existence_certificate",
]


@lru_cache(maxsize=1)
def _facts() -> dict:
    path = resources.files("diraclab").joinpath("data/harmonic_spinor_facts.json")
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class FactRecord:
    key: str
    fact: str
    citation: str
    value: Optional[float] = None

    def to_dict(self) -> dict:
        doc = {"key": self.key, "fact": self.fact, "citation": self.citation}
        if self.value is not None:
            doc["value"] = self.value
        return doc


# ---------------------------------------------------------------------------
# index-theoretic bounds
# ---------------------------------------------------------------------------

def index_lower_bound(m: int, a_hat: int = 0, alpha: int = 0) -> int:
    """Topological lower bound for the harmonic-spinor space dimension.

    Multiples of four bound by |a_hat|; dimensions 1 mod 8 (from 9) by
    |alpha|; dimensions 2 mod 8 (from 10) by 2|alpha|; all other residues
    carry no bound.
    """
    m = require_int(m, "dimension m", 1)
    a_hat, alpha = require_int(a_hat, "a_hat", None), require_int(alpha, "alpha", None)
    if m % 4 == 0:
        return abs(a_hat)
    if m % 8 == 1 and m >= 9:
        return abs(alpha)
    if m % 8 == 2 and m >= 10:
        return 2 * abs(alpha)
    return 0


def dminimal_value(m: int, a_hat: int = 0, alpha: int = 0,
                   simply_connected: bool = True) -> Optional[int]:
    """Harmonic-spinor dimension of a D-minimal metric, when claimed.

    For simply connected manifolds the bound of :func:`index_lower_bound` is
    attained (multiples of four from dimension 8 up, and the 1, 2 mod 8
    cases); outside those hypotheses the catalog makes no claim and the
    function returns None.
    """
    m = require_int(m, "dimension m", 1)
    bound = index_lower_bound(m, a_hat, alpha)
    if simply_connected and m >= 8 and (m % 4 == 0 or m % 8 in (1, 2)):
        return bound
    return None


def dminimal_table() -> list:
    """The verbatim D-minimal chirality table with citations."""
    return [dict(row) for row in _facts()["dminimal_table"]]


# ---------------------------------------------------------------------------
# table lookups
# ---------------------------------------------------------------------------

def surface_and_sphere_facts(genus: Optional[int] = None,
                             sphere_dim: Optional[int] = None,
                             sphere_volume: Optional[float] = None) -> FactRecord:
    """Look up one row of the surface or sphere tables.

    Exactly one of ``genus`` and ``sphere_dim`` selects the row.  For the
    two-sphere, ``sphere_volume`` additionally evaluates the eigenvalue bound
    lambda^2 >= 4 pi / vol and returns it in ``value``.
    """
    data = _facts()
    if (genus is None) == (sphere_dim is None):
        raise UsageError("query exactly one of genus or sphere_dim")
    if genus is not None:
        g = require_int(genus, "genus", 0, FactNotFoundError)
        for row in data["surfaces"]:
            lo, hi = row["genus_min"], row["genus_max"]
            if g >= lo and (hi is None or g <= hi):
                return FactRecord(row["key"], row["fact"], row["citation"])
        raise FactNotFoundError(f"no surface table row for genus {g}")

    m = require_int(sphere_dim, "sphere_dim", 1, FactNotFoundError)
    if m == 2 and sphere_volume is not None:
        volume = require_positive(sphere_volume, "sphere_volume")
        bound = data["two_sphere_bound"]
        return FactRecord(bound["key"], bound["fact"], bound["citation"],
                          value=bound["numerator"] / volume)
    for row in data["spheres"]:
        if row["modulus"] is None:
            if m == row["dim_min"]:
                return FactRecord(row["key"], row["fact"], row["citation"])
        elif m % row["modulus"] == row["residue"] and m >= row["dim_min"]:
            return FactRecord(row["key"], row["fact"], row["citation"])
    raise FactNotFoundError(f"no sphere table row for dimension {m}")


def berger_zero_parameter(k: int) -> int:
    """Fiber scale T at which the rescaled Hopf metric on S^{2k+1} has a
    zero Dirac eigenvalue.  Stated for odd k only; returns T = 2(k+1)."""
    k = require_int(k, "k", 1)
    if k % 2 == 0:
        raise NotCoveredError(
            f"the zero-mode statement covers odd k only (got k={k})")
    return 2 * (k + 1)


# ---------------------------------------------------------------------------
# existence certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExistenceCertificate:
    """Dimension-descent certificate for a harmonic-spinor metric."""

    m: int
    applicable: bool
    chain: tuple = ()            # descending dimensions, m first
    steps: tuple = ()            # one explanation per reduction
    base_dimension: Optional[int] = None
    base_sphere_dim: Optional[int] = None
    base_k: Optional[int] = None
    base_T: Optional[int] = None
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {"m": self.m, "applicable": self.applicable}
        if self.applicable:
            doc.update({
                "chain": list(self.chain),
                "steps": list(self.steps),
                "base": {
                    "dimension": self.base_dimension,
                    "sphere_dim": self.base_sphere_dim,
                    "k": self.base_k,
                    "T": self.base_T,
                    "statement": _facts()["berger_zero_mode"]["statement"],
                    "citation": _facts()["berger_zero_mode"]["citation"],
                },
            })
        else:
            doc["reason"] = self.reason
        return doc


def existence_certificate(m: int) -> ExistenceCertificate:
    """Certificate that dimension m admits a harmonic-spinor metric.

    Dimensions below four return a not-applicable certificate carrying the
    cataloged reason.  Otherwise the chain descends one dimension at a time
    to the largest multiple of four m0 <= m (at most three steps), where the
    Berger sphere S^{m0-1} = S^{2k+1} with k = (m0-2)/2 odd and fiber scale
    T = m0 provides the zero mode.
    """
    m = require_int(m, "dimension m", 1)
    if m < 4:
        reason = _facts()["not_applicable_reasons"][str(m)]
        return ExistenceCertificate(m=m, applicable=False, reason=reason)

    m0 = 4 * (m // 4)
    chain = list(range(m, m0 - 1, -1))
    steps = tuple(
        f"dimension {d}: glue a neck along the geodesic-sphere boundary "
        f"S^{d - 1}, which carries a harmonic-spinor metric by the "
        f"dimension-{d - 1} case"
        for d in chain[:-1])
    k = (m0 - 2) // 2
    return ExistenceCertificate(
        m=m, applicable=True, chain=tuple(chain), steps=steps,
        base_dimension=m0, base_sphere_dim=m0 - 1, base_k=k,
        base_T=berger_zero_parameter(k))
