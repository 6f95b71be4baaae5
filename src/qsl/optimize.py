"""Bounded one-dimensional minimization of one bracket per row: golden section and a grid stage.

The objective follows the convention of ``kernels.newton``: ``f(x, rows)``
returns the values at points ``x`` of the brackets ``rows``, where ``x`` and
``rows`` are arrays of one shape (or broadcast to one).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# golden sections stop once the bracket is this narrow, or after _MAX_ITER steps
_TOL = 1e-10
_MAX_ITER = 200


def golden_min(f: Callable, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ``f`` on each bracket [lo, hi]; returns (argmin, min value) per bracket.

    Assumes ``f`` is unimodal on each bracket; endpoints are compared against
    the interior result so an endpoint minimum is never missed. Each bracket
    takes the steps of a scalar golden section: it stops once b - a <= _TOL or
    after _MAX_ITER steps, and of its five candidates the first minimum wins.
    """
    lo = np.array(lo, dtype=np.float64, ndmin=1)
    hi = np.array(hi, dtype=np.float64, ndmin=1)
    a, b = lo.copy(), hi.copy()
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    every = np.arange(lo.size)
    f1, f2 = f(x1, every), f(x2, every)
    for _ in range(_MAX_ITER):
        rows = np.flatnonzero(b - a > _TOL)
        if rows.size == 0:
            break
        left = f1[rows] <= f2[rows]
        lr, rr = rows[left], rows[~left]
        b[lr], x2[lr], f2[lr] = x2[lr], x1[lr], f1[lr]
        a[rr], x1[rr], f1[rr] = x1[rr], x2[rr], f2[rr]
        x1[lr] = b[lr] - _INV_PHI * (b[lr] - a[lr])
        x2[rr] = a[rr] + _INV_PHI * (b[rr] - a[rr])
        fresh = f(np.concatenate((x1[lr], x2[rr])), np.concatenate((lr, rr)))
        f1[lr], f2[rr] = fresh[:lr.size], fresh[lr.size:]
    xm = 0.5 * (a + b)
    ends = f(np.concatenate((xm, lo, hi)), np.tile(every, 3)).reshape(3, -1)
    fs = np.vstack((ends, f1, f2))
    xs = np.vstack((xm, lo, hi, x1, x2))
    pick = np.argmin(fs, axis=0)
    return xs[pick, every], fs[pick, every]


def grid_golden_min(f: Callable, lo, hi, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coarse scan of each bracket on ``n`` points, then golden section inside its best cell.

    ``f`` first takes the whole grid, then points of single brackets. The grid
    is one row of ``n`` points for every bracket when all brackets share one
    [lo, hi], and a (brackets, n) array otherwise; ``f`` broadcasts it against
    the (brackets, 1) column of rows. A shared row holds the same points as
    each row of the 2-d grid, so the values do not depend on the form. The
    grid stage guards against non-unimodal objectives and endpoint minima;
    the golden stage refines the winning cell, and the grid value is kept
    where it is strictly lower.
    """
    lo = np.array(lo, dtype=np.float64, ndmin=1)
    hi = np.array(hi, dtype=np.float64, ndmin=1)
    every = np.arange(lo.size)
    shared = lo.size > 0 and np.all(lo == lo[0]) and np.all(hi == hi[0])
    xs = np.linspace(lo[:1], hi[:1], n, axis=1) if shared else np.linspace(lo, hi, n, axis=1)
    fs = f(xs, every[:, None])
    xs = np.broadcast_to(xs, fs.shape)
    i = np.argmin(fs, axis=1)
    x_ref, f_ref = golden_min(f, xs[every, np.maximum(i - 1, 0)],
                              xs[every, np.minimum(i + 1, n - 1)])
    grid_wins = fs[every, i] < f_ref
    return np.where(grid_wins, xs[every, i], x_ref), np.where(grid_wins, fs[every, i], f_ref)
