"""The interpolating spline of a sampled profile, built in-package.

:class:`Spline` is the spline that ``scipy.interpolate.make_interp_spline(x,
y, k)`` builds with its default end conditions for k >= 2, following de
Boor, *A Practical Guide to Splines* (1978), chapters IX-XIII (a sampled
profile asks for k >= 3, ``errors.MIN_SPLINE_ORDER``):

- **Knots.**  Not-a-knot (XIII(12)): the data sites ``x[k2:-k2]`` with
  k2 = (k + 1)/2 for odd k, the midpoints ``(x[1:] + x[:-1])/2`` trimmed by
  k2 = k/2 for even k, each padded with k + 1 copies of either end.
- **Coefficients.**  The B-spline collocation matrix at the data sites, by
  the de Boor-Cox recursion (chapter X) vectorized over the sites, in
  LAPACK's band storage, solved by one ``dgbsv`` with kl = ku = k: the same
  matrix and the same call as scipy's.
- **Evaluation.**  The B-spline form is converted once into a Taylor table:
  the derivatives of every order at the left end of each polynomial piece
  (de Boor's ppform).  A jet of order d is then one ``searchsorted``, one
  gather of d + 1 rows of the table, and k Horner steps over them.  A point
  u reads the piece with t_i <= u < t_{i+1}, the last piece is closed, and
  points beyond the knots extrapolate the first or last piece.
- **Minimum.**  A piece whose Taylor terms cannot cancel its value at its
  start is positive throughout; on the others the least value lies at an
  end or at a real root of the derivative, the eigenvalues of its companion
  matrix, one batched call per degree.

LAPACK is loaded only when a spline is built, so importing this module loads
no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidProfileError


def knot_vector(x: np.ndarray, k: int) -> np.ndarray:
    """The knots of the order-k interpolating spline through the sites ``x``."""
    if k % 2:
        inner = x[(k + 1) // 2:-((k + 1) // 2)]
    else:
        inner = ((x[1:] + x[:-1]) / 2)[k // 2:-(k // 2)]
    return np.concatenate([np.full(k + 1, x[0]), inner, np.full(k + 1, x[-1])])


def _de_boor_cox(t: np.ndarray, k: int, x: np.ndarray, ell: np.ndarray):
    """The B-splines of degrees 0..k on the knots ``t`` at the points ``x``,
    where x lies in the nonempty knot interval [t_ell, t_{ell+1}).

    Entry j of the returned list has j + 1 rows, and row a holds
    B_{ell-j+a, j}(x), the degree-j B-splines that do not vanish there.  Each
    entry is formed with the same roundings as scipy's ``_deBoor_D``.
    """
    near = t[ell + np.arange(1 - k, k + 1)[:, None]]   # t_{ell+o}, o = 1-k..k
    right, left = near[k:] - x, x - near[:k]
    h = np.ones((1, x.size))
    stages = [h]
    for j in range(1, k + 1):
        w = h / (near[k:k + j] - near[k - j:k])       # / (t_{ell+n} - t_{ell+n-j})
        h = np.empty((j + 1, x.size))
        h[:j] = w * right[:j]
        h[j] = w[-1] * left[-1]
        h[1:j] += w[:-1] * left[k - j:-1]
        stages.append(h)
    return stages


def _coefficients(x, y, t, k):
    """B-spline coefficients of the order-k interpolant from the collocation
    matrix and one banded solve."""
    from ._lapack import check_info, flapack

    n = x.size
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    col = ell - k + np.arange(k + 1)[:, None]
    ab = np.zeros((3 * k + 1, n), order="F")      # kl = ku = k band storage
    ab[2 * k + np.arange(n) - col, col] = _de_boor_cox(t, k, x, ell)[k]
    _, _, c, info = flapack().dgbsv(k, k, ab, y[:, None].copy(),
                                   overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise InvalidProfileError(
            f"the order-{k} spline through {n} knots has a singular "
            "collocation matrix")
    check_info(info, "dgbsv")
    return c[:, 0]


def _piece_derivatives(t, c, k):
    """Left ends of the polynomial pieces of the spline (t, c, k) and its
    derivatives of orders 0..k there, one row per order.

    The m-th derivative has the degree-(k - m) coefficients
    D^m_i = (k - m + 1) (D^{m-1}_i - D^{m-1}_{i-1}) / (t_{i+k-m+1} - t_i)
    on the same knots, so one de Boor-Cox pass at the piece ends gives every
    order: stage j pairs with D^{k-j}.
    """
    n = c.size
    ell = np.flatnonzero(t[k:n] < t[k + 1:n + 1]) + k
    coeffs = [c]                # D^m, for the indices m..n-1
    for m in range(1, k + 1):
        prev = coeffs[-1]
        coeffs.append((prev[1:] - prev[:-1]) * (k - m + 1)
                      / (t[k + 1:n + k - m + 1] - t[m:n]))
    starts = t[ell]
    derivs = np.empty((k + 1, ell.size))
    for j, h in enumerate(_de_boor_cox(t, k, starts, ell)):
        # the degree-j B-splines B_{ell-j..ell} pair with D^{k-j}
        idx = ell - k + np.arange(j + 1)[:, None]
        derivs[k - j] = (coeffs[k - j][idx] * h).sum(axis=0)
    return starts, derivs


class Spline:
    """The order-k interpolating spline through (x, y), held as a Taylor
    table (see the module docstring for its knots and conventions).

    ``starts`` are the left ends of the polynomial pieces; ``_table[r, i, p]``
    is the coefficient of (u - starts[p])^(k-i) in the r-th derivative on
    piece p, zero for i < r.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, k: int):
        self.order = k
        t = knot_vector(x, k)
        with np.errstate(all="ignore"):
            self.starts, derivs = _piece_derivatives(
                t, _coefficients(x, y, t, k), k)
            self._table = np.zeros((k + 1, k + 1, self.starts.size))
            for i in range(k + 1):
                self._table[:i + 1, i] = derivs[k - i:] / math.factorial(k - i)
        # every B-spline coefficient enters some piece, so this also
        # catches a coefficient that is not finite
        if not np.all(np.isfinite(self._table)):
            raise InvalidProfileError(
                f"the order-{k} spline through {x.size} knots has "
                "coefficients that are not finite in float64")

    def jet(self, u, d: int) -> np.ndarray:
        """Derivatives of orders 0..d <= k at the float points ``u``, stacked
        on a new first axis."""
        u = np.asarray(u, dtype=float)
        flat = u.reshape(-1)
        piece = np.maximum(np.searchsorted(self.starts, flat, side="right") - 1, 0)
        dx = flat - self.starts[piece]
        coef = np.take(self._table[:d + 1], piece, axis=2)
        out = coef[:, 0].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, self.order + 1):
                out *= dx
                out += coef[:, i]
        return out.reshape((d + 1,) + u.shape)

    def minimum(self, lo: float, hi: float) -> tuple:
        """The least value on [lo, hi] and a point u where it is taken (NaN
        if the spline is NaN anywhere there), exact whenever it is not
        positive; a positive result is a value the spline takes, no lower
        than its least.

        A piece whose Taylor terms of order 1 and up, bounded by
        sum |c_j| h^j over its reach h from its start, stay below its value
        c_0 at the start is positive throughout and is read at its ends
        only.  On every other piece the least value lies at an end or at a
        real root of the derivative.  The roots are the eigenvalues of the
        derivative's companion matrix (after its leading zeros), one batched
        call per degree; every real part clipped to the piece is a
        candidate, so a double root returned as a complex pair still yields
        its point.
        """
        k, starts = self.order, self.starts
        left = np.append(-np.inf, starts[1:])
        right = np.append(starts[1:], np.inf)
        piece = np.flatnonzero((left <= hi) & (right >= lo))
        a, b = np.maximum(left[piece], lo), np.minimum(right[piece], hi)
        points = [a, b]
        reach = np.maximum(np.abs(a - starts[piece]), np.abs(b - starts[piece]))
        taylor = self._table[0][:, piece]           # highest power first
        bound = np.zeros(piece.size)
        with np.errstate(over="ignore"):    # an infinite bound passes none
            for c in np.abs(taylor[:-1]):
                bound = (bound + c) * reach
        rest = np.flatnonzero(~(taylor[-1] > bound))
        piece, a, b = piece[rest], a[rest], b[rest]
        deriv = self._table[1, 1:][:, piece]
        lead = np.where(deriv.any(axis=0), np.argmax(deriv != 0, axis=0),
                        k - 1)              # k - 1: no root
        for z in sorted(set(lead.tolist()) - {k - 1}):
            at, n = np.flatnonzero(lead == z), k - 1 - z      # n: the degree
            companion = np.zeros((at.size, n, n))
            companion[:, 0] = (-deriv[z + 1:, at] / deriv[z, at]).T
            companion[:, 1:, :-1] = np.eye(n - 1)
            roots = np.linalg.eigvals(companion).real + starts[piece[at], None]
            points.append(np.clip(roots, a[at, None], b[at, None]).ravel())
        u = np.concatenate(points)
        value = self.jet(u, 0)[0]
        i = int(np.argmin(value))       # the first NaN, if there is one
        return float(value[i]), float(u[i])
