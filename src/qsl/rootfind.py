"""Bracketed scalar root solving and the two universal angle constants.

The solver is a guaranteed-bracketing bisection with an interleaved secant
acceleration step: every other iteration halves the bracket, so convergence
is unconditional, while the secant step gives near-superlinear behaviour on
the smooth transcendental equations this package actually solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, NoConvergence, NoSignChange

# absolute tolerance on the abscissa of every root this package brackets
_TOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class YBounds:
    """The two angles bounding the tangency parameter, in radians.

    ``y_minus`` solves 1 - cos(y) - y*sin(y) = 0 on (pi/2, pi);
    ``y_plus`` solves sin(y) - y*cos(y) = 0 on (pi, 3*pi/2).
    """

    y_minus: float
    y_plus: float


def bracketed_root(f: Callable[[float], float], lo: float, hi: float,
                   max_iter: int = _MAX_ITER) -> float:
    """Find a root of ``f`` in the sign-change interval [lo, hi].

    Args:
        f: Continuous scalar function with a sign change across the interval.
        lo: Lower end of the interval.
        hi: Upper end of the interval (must exceed ``lo``).
        max_iter: Iteration budget.

    Returns:
        A point within 1e-12 of a sign change of ``f``.

    Raises:
        DomainError: If ``lo`` is not below ``hi``.
        NoSignChange: If ``f`` has the same sign at both ends.
        NoConvergence: If the budget is exhausted before the bracket shrinks
            below tolerance.
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
        if hi - lo <= _TOL:
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


def _polish_newton(y: float, f: Callable[[float], float], df: Callable[[float], float],
                   lo: float, hi: float, steps: int = 3) -> float:
    """Newton steps clipped to [lo, hi]; drives the residual to machine level."""
    for _ in range(steps):
        d = df(y)
        if d == 0.0:
            break
        step = f(y) / d
        y = min(max(y - step, lo), hi)
    return y


@functools.cache
def y_bounds() -> YBounds:
    """Solve for the two angle constants once; later calls return the cached pair.

    The defining conditions have exactly one root in their stated intervals,
    so the fixed analytic brackets below cannot fail.
    """

    def f_minus(y: float) -> float:
        return 1.0 - math.cos(y) - y * math.sin(y)

    def df_minus(y: float) -> float:
        return -y * math.cos(y)

    def f_plus(y: float) -> float:
        return math.sin(y) - y * math.cos(y)

    def df_plus(y: float) -> float:
        return y * math.sin(y)

    y_minus = bracketed_root(f_minus, 0.5 * math.pi, math.pi)
    y_minus = _polish_newton(y_minus, f_minus, df_minus, 0.5 * math.pi, math.pi)
    y_plus = bracketed_root(f_plus, math.pi, 1.5 * math.pi)
    y_plus = _polish_newton(y_plus, f_plus, df_plus, math.pi, 1.5 * math.pi)
    return YBounds(y_minus=y_minus, y_plus=y_plus)
