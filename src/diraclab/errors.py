"""Exception types shared across the package.

The split mirrors the exit-code contract of the command line driver:
``UsageError`` maps to exit code 2, every other ``DiracLabError`` maps to
exit code 1.  Any other exception is a defect and propagates as a traceback.
Every public integer argument is read by one rule, :func:`require_int`, and
every positive real one (lengths, scale factors, volumes, step sizes,
tolerances) by another, :func:`require_positive`.  A bool is never a number.
Mesh and grid sizes are also bounded above, by :data:`MAX_POINTS`, the
counts of terms built one by one in Python by :data:`MAX_TERMS`, and Sobolev
orders by :data:`MAX_SOBOLEV_ORDER`.  A sampled profile's spline order is
bounded below by :data:`MIN_SPLINE_ORDER`.
"""

import math
import sys
from collections.abc import Mapping
from numbers import Complex, Integral, Real

import numpy as np


class DiracLabError(Exception):
    """Base class for invariant or contract violations."""


class UsageError(DiracLabError):
    """Bad user input: malformed config, out-of-domain argument, missing file."""


class InvalidProfileError(UsageError):
    """Warping profile is non-positive or otherwise unusable."""


class ResolutionError(UsageError):
    """Requested output exceeds what the mesh / sample density supports."""


class DiscretizationFailureError(DiracLabError):
    """A discrete solve left its validity regime (e.g. an advective
    finite-difference matrix that is not symmetrizable: cell Peclet
    number h|p|/2 >= 1)."""


class TruncationRiskError(DiracLabError):
    """A truncated transverse spectrum cannot guarantee the requested number
    of global eigenvalues."""


class FlowStuckError(DiracLabError):
    """The metric flow cannot take a step although the eigenvalue is nonzero."""


class NotCoveredError(UsageError):
    """Query outside the tabulated range of the fact catalog."""


class FactNotFoundError(UsageError):
    """No catalog row matches the query."""


MAX_POINTS = 2**24
"""The largest mesh or grid size, in points, that any solver accepts: far
above every default, and small enough that a size such as 1e300 is refused
before anything is allocated."""

MAX_TERMS = 10**4
"""The largest count of terms built one by one: a circle-spectrum truncation
(2 truncation + 1 eigenvalues), a trigonometric-polynomial degree
(2 degree coefficients), a circle mode count or index, a bracketing case
count, and the number of first variations a ``vary`` run checks."""

MAX_SOBOLEV_ORDER = 32
"""The largest Sobolev order k of a measured H^k norm.  The squared norms of
the neck metrics grow like the k-th derivatives of the mollified step, about
1e155 at k = 32 and beyond float64 at k = 64."""

MIN_SPLINE_ORDER = 3
"""The least spline order of a sampled profile, read by the config schema and
by ``WarpingProfile``.  Below it the branch potential V = mu^2 - mu' jumps
at the knots (order 1) or its derivative does (order 2), and order 0 has no
rho' at all.  Across such a jump the second-order difference schemes lose
their order, and the Richardson step no longer bounds the error: against a
shooting oracle on five random-knot profiles at meshes 1024 and 2048, the
estimates missed in 10 of 10 cases at order 1 and 7 of 10 at order 2, by up
to 12.6 times, and held in all at orders 3 and 4."""


def require_int(value, name: str, minimum: int | None, error=UsageError,
                maximum: int | None = None) -> int:
    """``value`` as an int: an int, a numpy integer or an integral float such
    as 3.0.  A bool, a fractional, NaN or infinite value, a non-number, or a
    value below ``minimum`` or above ``maximum`` (None: no bound) raises
    ``error``."""
    if type(value) is int and (minimum is None or value >= minimum) and (
            maximum is None or value <= maximum):
        return value    # the common case, before the slower ABC checks
    if not is_integer(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, not {value!r}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be at most {maximum}, not {value!r}")
    return int(value)


def is_number(x) -> bool:
    """A real number that is not a bool."""
    # a plain float first: the ABC check below is the slow path
    return type(x) is float or (isinstance(x, Real) and not isinstance(x, bool))


def is_finite(x) -> bool:
    """A real number, not a bool, that float64 holds as a finite value: not
    NaN, an infinity, or an integer or a fraction beyond the float range.
    An integer is compared exactly, never converted; any other real, of any
    width (a numpy float16 or a long double too), is read by
    ``math.isfinite``."""
    if isinstance(x, Integral):
        return is_number(x) and bool(-sys.float_info.max <= x <= sys.float_info.max)
    try:
        return is_number(x) and math.isfinite(x)
    except OverflowError:       # a Fraction beyond the float range
        return False


def number_array(values, dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype``, float or complex.  An entry that
    is no number of that kind raises TypeError: a string, even one such as
    "1" that numpy would parse, a bool array or a bool among the entries of
    a sequence, or a complex one for float.  Ragged rows raise ValueError,
    and an integer beyond the float range OverflowError."""
    array = np.asarray(values)
    complex_ = np.dtype(dtype).kind == "c"
    if array.dtype.kind == "O" or not isinstance(values, np.ndarray):
        # entry by entry: numpy reads a bool among numbers as 0 or 1
        number = Complex if complex_ else Real
        fits = all(isinstance(x, number) and not isinstance(x, bool)
                   for x in np.asarray(values, dtype=object).flat)
    else:
        fits = array.dtype.kind in ("iufc" if complex_ else "iuf")
    if not fits:
        raise TypeError(f"samples of dtype {array.dtype} are not numbers")
    return array.astype(dtype, copy=False)


def require_fields(doc, fields, what: str, error=UsageError) -> None:
    """Refuse a ``what`` document that is no mapping, or that has a key
    outside ``fields``, with ``error``."""
    if not isinstance(doc, Mapping):
        raise error(f"a {what} document must be a mapping, not {doc!r}")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise error(f"unknown {what} fields {unknown}")


def require_list(values, name: str) -> list:
    """``values``, any iterable, as a list; anything else, such as a lone
    number, raises ``UsageError`` naming it."""
    try:
        items = iter(values)
    except TypeError:
        raise UsageError(f"{name} must be a list, not {values!r}") from None
    return list(items)


def is_integer(x) -> bool:
    """An integral number that is not a bool: an int, a numpy integer or an
    integral float such as 3.0 (not NaN or an infinity)."""
    return is_number(x) and (isinstance(x, Integral) or (
        math.isfinite(x) and float(x).is_integer()))


def require_positive(value, name: str, error=UsageError) -> float:
    """``value`` as a float: a real number, not a bool, finite and > 0.
    Anything else (a string, NaN, an infinity, zero, a negative value)
    raises ``error``."""
    if type(value) is float and 0 < value < math.inf:
        return value    # the common case, before the slower ABC checks
    if not (is_finite(value) and float(value) > 0):
        raise error(f"{name} must be positive and finite, not {value!r}")
    return float(value)
