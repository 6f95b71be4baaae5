"""The optimal linear lower bound cos(x) + q*sin(x) >= 1 - a(q)*x.

The coefficient a(q) is defined by tangency of the line 1 - a*x to the
left-hand side. Both q and a are rational-trigonometric functions of the
tangency abscissa y, which runs over [y_minus, y_plus); q(y) is strictly
increasing there, so the map is inverted by a bracketed root search.
"""

from __future__ import annotations

import math

import numpy as np

from . import rootfind
from .errors import DomainError
from .rootfind import bracketed_root

# open upper endpoint: q and a diverge as y -> y_plus
ENDPOINT_EPS = 1e-12


def _check_y(y: float) -> None:
    yb = rootfind.y_bounds()
    if not (yb.y_minus - 1e-12 <= y < yb.y_plus):
        raise DomainError(f"y={y} outside [{yb.y_minus}, {yb.y_plus})")


def q_of_y(y: float) -> float:
    """q(y) = (1 - cos y - y sin y) / (sin y - y cos y)."""
    _check_y(y)
    return (1.0 - math.cos(y) - y * math.sin(y)) / (math.sin(y) - y * math.cos(y))


def a_of_y(y: float) -> float:
    """a(y) = (1 - cos y) / (sin y - y cos y)."""
    _check_y(y)
    return (1.0 - math.cos(y)) / (math.sin(y) - y * math.cos(y))


def y_of_q(q: float) -> float:
    """Invert the strictly monotone q(y) on [y_minus, y_plus).

    The root equation is used in denominator-cleared form
    g(y) = (1 - cos y - y sin y) - q (sin y - y cos y),
    which is finite at y_plus and shares the root of q(y) = q; two Newton
    polish steps push the abscissa error to machine level, which downstream
    inequality checks rely on.
    """
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    yb = rootfind.y_bounds()
    if q == 0.0:
        return yb.y_minus

    def g(y: float) -> float:
        return (1.0 - math.cos(y) - y * math.sin(y)) - q * (math.sin(y) - y * math.cos(y))

    def dg(y: float) -> float:
        return -y * (math.cos(y) + q * math.sin(y))

    y = bracketed_root(g, yb.y_minus, yb.y_plus)
    return rootfind._polish_newton(y, g, dg, yb.y_minus, yb.y_plus - ENDPOINT_EPS, steps=2)


def a_of_q(q: float) -> float:
    """The tangency coefficient as a function of the slope mix q."""
    return a_of_y(y_of_q(q))


def check_tangent_inequality(q: float) -> float:
    """Grid minimum of cos x + q sin x - 1 + a(q) x on 4096 points of x in [0, 50].

    A return value >= -1e-9 certifies the inequality on the grid; the grid is
    a smoke test, the tangency construction is the actual guarantee.
    """
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    a = a_of_q(q)
    x = np.linspace(0.0, 50.0, 4096)
    vals = np.cos(x) + q * np.sin(x) - 1.0 + a * x
    return float(vals.min())
