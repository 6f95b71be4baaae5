"""The two universal angle constants, and the scalar root solver the benchmark hooks.

Both constants come from one ``kernels.newton`` solve on two fixed analytic
brackets, each holding exactly one root.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import DomainError, NoConvergence, NoSignChange

# |g| at which the Newton solve takes its last step: g's rounding error, 4 eps
# per unit of its terms, which sum to below 7 on both brackets
_G_TOL = 28.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class YBounds:
    """The two angles bounding the tangency parameter, in radians.

    ``y_minus`` solves 1 - cos(y) - y*sin(y) = 0 on (pi/2, pi);
    ``y_plus`` solves sin(y) - y*cos(y) = 0 on (pi, 3*pi/2).
    """

    y_minus: float
    y_plus: float


# no caller in the package: kept as a hook site of perfbench/layers.py
def bracketed_root(f: Callable[[float], float], lo: float, hi: float,
                   max_iter: int = 200) -> float:
    """A point within 1e-12 of a sign change of ``f`` in [lo, hi], by bisection
    interleaved with safeguarded secant steps.

    Raises DomainError unless lo < hi, NoSignChange if ``f`` has the same sign
    at both ends, NoConvergence if ``max_iter`` steps leave a wider bracket.
    """
    if not lo < hi:
        raise DomainError(f"bracket needs lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChange(f"f({lo})={flo} and f({hi})={fhi} have the same sign")

    best_x, best_f = (lo, flo) if abs(flo) < abs(fhi) else (hi, fhi)
    use_secant = False
    for _ in range(max_iter):
        if hi - lo <= 1e-12:
            return best_x
        x = 0.5 * (lo + hi)
        if use_secant and fhi != flo:
            x_sec = hi - fhi * (hi - lo) / (fhi - flo)
            # only accept a secant point that sits safely inside the bracket
            margin = 0.01 * (hi - lo)
            if lo + margin < x_sec < hi - margin:
                x = x_sec
        use_secant = not use_secant
        fx = f(x)
        if fx == 0.0:
            return x
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    raise NoConvergence(f"bracket still [{lo}, {hi}] after {max_iter} iterations")


@functools.cache
def y_bounds() -> YBounds:
    """Solve for the two angle constants once; later calls return the cached pair.

    Row 0 solves -(1 - cos y - y sin y) = 0 on [pi/2, pi], row 1
    sin y - y cos y = 0 on [pi, 3*pi/2]; each is positive at its lower end.
    """

    def g(y, rows):
        sin, cos = np.sin(y), np.cos(y)
        minus = rows == 0
        return (np.where(minus, -(1.0 - cos - y * sin), sin - y * cos),
                y * np.where(minus, cos, sin))

    y_minus, y_plus = kernels.newton(g, [0.5 * math.pi, math.pi], [math.pi, 1.5 * math.pi],
                                     _G_TOL).tolist()
    return YBounds(y_minus=y_minus, y_plus=y_plus)
