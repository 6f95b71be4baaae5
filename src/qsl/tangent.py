"""The optimal linear lower bound cos(x) + q*sin(x) >= 1 - a(q)*x.

The coefficient a(q) is defined by tangency of the line 1 - a*x to the
left-hand side. Both q and a are rational-trigonometric functions of the
tangency abscissa y, which runs over [y_minus, y_plus); q(y) is strictly
increasing there, so the map is inverted by one safeguarded Newton solve
(``kernels.newton``) for a whole array of q. Every function takes one number
or an array and returns the same.
"""

from __future__ import annotations

import numpy as np

from . import kernels, rootfind
from .errors import require
from .rootfind import bracketed_root  # noqa: F401  no caller: a hook site of perfbench/layers.py

# open upper endpoint: q and a diverge as y -> y_plus
ENDPOINT_EPS = 1e-12

# g's rounding error per unit of 1 + q: 4 eps per unit of its terms, which sum
# to at most (2 + y_plus)(1 + q) < 6.5 (1 + q)
_G_TOL = 26.0 * float(np.finfo(np.float64).eps)

# check_tangent_inequality's grid of x, and the slopes q evaluated on it at once
_X = np.linspace(0.0, 50.0, 4096)
_COS_X, _SIN_X = np.cos(_X), np.sin(_X)
_Q_BLOCK = 32
# the largest q for which that grid stops at X(q): past X the gap exceeds
# 1 + a (x - X), and a grid value's rounding error stays below 8 eps (2 + q) + 4 eps a (x - X)
_CUT_Q_MAX = 1e12


def _checked_y(y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    yb = rootfind.y_bounds()
    require((yb.y_minus - 1e-12 <= y) & (y < yb.y_plus), y,
            f"y must lie in [{yb.y_minus}, {yb.y_plus})")
    return y


def _checked_q(q) -> np.ndarray:
    q = np.array(q, dtype=np.float64)
    require((q >= 0.0) & np.isfinite(q), q, "q must be finite and nonnegative")
    return q


def q_of_y(y: float | np.ndarray) -> float | np.ndarray:
    """q(y) = (1 - cos y - y sin y) / (sin y - y cos y)."""
    y = _checked_y(y)
    return (1.0 - np.cos(y) - y * np.sin(y)) / (np.sin(y) - y * np.cos(y))


def a_of_y(y: float | np.ndarray) -> float | np.ndarray:
    """a(y) = (1 - cos y) / (sin y - y cos y)."""
    y = _checked_y(y)
    return (1.0 - np.cos(y)) / (np.sin(y) - y * np.cos(y))


def _g(y, q):
    """g(y) = q (sin y - y cos y) - (1 - cos y - y sin y), zero where q(y) = q, and its slope."""
    sin, cos = np.sin(y), np.cos(y)
    return q * (sin - y * cos) - (1.0 - cos - y * sin), y * (cos + q * sin)


def y_of_q(q: float | np.ndarray) -> float | np.ndarray:
    """Invert the strictly increasing q(y) on [y_minus, y_plus).

    The root equation is used in the denominator-cleared form g(y) above,
    which is finite at y_plus and, for q > 0, positive at y_minus: one
    ``kernels.newton`` call solves it on [y_minus, y_plus - ENDPOINT_EPS] for
    every q. Where g(y_minus) is within g's rounding error (q up to about
    2.6e-15, whose root lies within 9 ulp of y_minus), y_minus itself is
    returned: a solve there would land anywhere in the rounding noise.
    """
    q = _checked_q(q)
    yb = rootfind.y_bounds()
    flat = q.ravel()
    tol = _G_TOL * (1.0 + flat)
    y = np.full(flat.size, yb.y_minus)
    inner = np.flatnonzero(_g(y, flat)[0] > tol)
    y[inner] = kernels.newton(lambda t, rows: _g(t, flat[inner[rows]]), y[inner],
                              np.full(inner.size, yb.y_plus - ENDPOINT_EPS), tol[inner])
    return y.reshape(q.shape)[()]


def a_of_q(q: float | np.ndarray) -> float | np.ndarray:
    """The tangency coefficient as a function of the slope mix q."""
    return a_of_y(y_of_q(q))


def gap(q, a, x, cos_x, sin_x):
    """cos x + q sin x - 1 + a x, summed left to right, from x, cos x and sin x."""
    return cos_x + q * sin_x - 1.0 + a * x


def check_tangent_inequality(q: float | np.ndarray, a: float | np.ndarray) -> float | np.ndarray:
    """Grid minimum of the gap at each slope q and its a = a(q), on 4096 points of x in [0, 50].

    A return value >= -1e-9 certifies the inequality on the grid; the grid is
    a smoke test, the tangency construction is the actual guarantee.

    Only the points up to X(q) = (2 + sqrt(1 + q^2))/a are evaluated, the same
    count for every q of the call. The minimum is still the full grid's, bit
    for bit: past X the gap is at least a x - 1 - sqrt(1 + q^2) > 1, while at
    x = 0 it is exactly 0. X is taken from the same a the grid uses, so the cut
    holds for any a > 0; for a <= 0, a non-finite a or q above _CUT_Q_MAX,
    where rounding could reach 1, the whole grid is evaluated. Blocks of 32
    slopes are evaluated at once, bounding the memory.
    """
    flat, a = np.ravel(_checked_q(q)), np.ravel(a)
    n = _X.size
    if np.all((a > 0.0) & np.isfinite(a) & (flat <= _CUT_Q_MAX)):
        reach = np.max((2.0 + np.hypot(1.0, flat)) / a, initial=0.0)
        n = int(np.searchsorted(_X, reach, side="right"))
    x, cos_x, sin_x = _X[:n], _COS_X[:n], _SIN_X[:n]
    low = np.empty(flat.size)
    for s in range(0, flat.size, _Q_BLOCK):
        rows = slice(s, s + _Q_BLOCK)
        gap(flat[rows, None], a[rows, None], x, cos_x, sin_x).min(axis=1, out=low[rows])
    return low.reshape(np.shape(q))[()]
