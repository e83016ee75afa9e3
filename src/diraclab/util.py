"""Small numerical helpers: quadrature rules and seeded random functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MAX_TERMS, require_int, require_positive


def simpson_uniform(y: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid with an even panel count.

    ``y`` holds the 2n+1 node values, ``h`` the node spacing.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3 or y.size % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of nodes (even panel count)")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def periodic_trapezoid(values: np.ndarray, period: float) -> float:
    """Trapezoid rule over one full period sampled at equispaced nodes
    (endpoint excluded).  Spectrally accurate for smooth periodic data."""
    values = np.asarray(values, dtype=float)
    return float(period * values.mean())


def cumulative_trapezoid_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid antiderivative starting at zero."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum(0.5 * h * (values[1:] + values[:-1]), out=out[1:])
    return out


@dataclass(frozen=True)
class TrigPolynomial:
    """Real trigonometric polynomial c0 + sum_k a_k cos(k w x) + b_k sin(k w x).

    Coefficients are recorded so that a seeded draw can be reproduced and
    echoed into reports.
    """

    c0: float
    cos_coeffs: tuple
    sin_coeffs: tuple
    omega: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.c0)
        for k, (a, b) in enumerate(zip(self.cos_coeffs, self.sin_coeffs), start=1):
            out += a * np.cos(k * self.omega * x) + b * np.sin(k * self.omega * x)
        return out

    def to_dict(self) -> dict:
        return {
            "c0": self.c0,
            "cos_coeffs": list(self.cos_coeffs),
            "sin_coeffs": list(self.sin_coeffs),
            "omega": self.omega,
        }


def random_trig_polynomial(rng: np.random.Generator, period: float, degree: int = 3,
                           scale: float = 1.0, offset: float = 0.0) -> TrigPolynomial:
    """Draw a smooth random function with coefficients decaying like 1/k^2.

    The 1/k^2 damping keeps a few derivatives of uniformly moderate size,
    which is what the solver contracts assume about "smooth" input.
    """
    omega = 2.0 * np.pi / require_positive(period, "period")
    cos_c, sin_c = [], []
    for k in range(1, require_int(degree, "degree", 0, maximum=MAX_TERMS) + 1):
        cos_c.append(scale * rng.uniform(-1.0, 1.0) / k**2)
        sin_c.append(scale * rng.uniform(-1.0, 1.0) / k**2)
    return TrigPolynomial(offset + scale * rng.uniform(-1.0, 1.0),
                          tuple(cos_c), tuple(sin_c), omega)
