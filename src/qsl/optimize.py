"""Bounded one-dimensional minimization: golden section with a coarse-grid stage."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden sections stop once the bracket is this narrow, or after _MAX_ITER steps
_TOL = 1e-10
_MAX_ITER = 200


def golden_min(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Minimize ``f`` on [lo, hi]; returns (argmin, min value).

    Assumes ``f`` is unimodal on the interval; endpoints are compared against
    the interior result so an endpoint minimum is never missed.
    """
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_MAX_ITER):
        if b - a <= _TOL:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    candidates = [(f(xm), xm), (f(lo), lo), (f(hi), hi), (f1, x1), (f2, x2)]
    fv, xv = min(candidates, key=lambda c: c[0])
    return xv, fv


def grid_golden_min(f: Callable, lo: float, hi: float, n: int = 512) -> tuple[float, float]:
    """Coarse scan on ``n`` points, then golden section inside the best cell.

    ``f`` takes the whole grid as one array, then single points. The grid
    stage guards against non-unimodal objectives and endpoint minima; the
    golden stage refines the winning cell.
    """
    xs = np.linspace(lo, hi, n)
    fs = f(xs)
    i = int(np.argmin(fs))
    x_ref, f_ref = golden_min(f, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, n - 1)]))
    if fs[i] < f_ref:
        return float(xs[i]), float(fs[i])
    return x_ref, f_ref
