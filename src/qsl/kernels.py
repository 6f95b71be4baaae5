"""Hot numeric kernels, one numpy implementation each.

``theta_max_table`` serves the grid-minimax oracle. Each of its cells is
rounded on its own, so a table of any subset of rows or columns holds the same
values, which lets the oracle prune rows exactly. The first-passage scans of
:mod:`qsl.qsim` use the rest: the fidelity on uniform grids (one complex
matrix product per block of rows), the fidelity and its first two time
derivatives at arbitrary times, the rounding bound of both, and the two
vectorised Newton refiners, whose ``newton`` also solves for :mod:`qsl.bounds`' M.
``refine_crossing`` takes one state or one zero-padded state row per bracket,
so that a block of trials is refined in one call; it sums each bracket's levels
in order, so that the padding changes no bit of a bracket's f and f'.
"""

from __future__ import annotations

import math

import numpy as np

# cells of the theta_max_table block evaluated at once (4 rows of 2048 columns,
# 126 rows of a pruning pass's 65), in two 64 kB buffers that every block
# reuses, so they stay in cache
_THETA_CELLS = 4 * 2048

# complex entries of fidelity_rows' left factor per block of rows, bounding its memory
_ROW_BLOCK = 1 << 16

_EPS = float(np.finfo(np.float64).eps)

# Newton steps per bracket at most; a bracket not done by then returns its
# last iterate, which lies inside it
_NEWTON_STEPS = 64


def theta_max_table(rho, sigma, fa, fb):
    """For each (rho, sigma) row, the max of rho*fa + sigma*fb over the y profiles."""
    n_t = rho.shape[0]
    rows = max(1, min(n_t, _THETA_CELLS // fa.size))
    best = np.empty(n_t)
    block = np.empty((rows, fa.size))
    term = np.empty((rows, fa.size))
    for s in range(0, n_t, rows):
        e = min(s + rows, n_t)
        b, t = block[:e - s], term[:e - s]
        np.multiply(rho[s:e, None], fa, out=b)
        np.multiply(sigma[s:e, None], fb, out=t)
        np.add(b, t, out=b)
        b.max(axis=1, out=best[s:e])
    return best


def fidelity_rows(p, energies, starts, dt, n):
    """|sum_k p_k exp(-i E_k t)|^2 at t = starts[r] + dt*j, as an array (len(starts), n).

    Computed as the complex matrix product
    z = (p * exp(-i E starts)) @ exp(-i E dt j)^T, which takes
    (len(starts) + n)*d exponentials instead of len(starts)*n*d.
    """
    starts = np.asarray(starts, dtype=np.float64)
    right = np.exp(-1j * np.outer(energies, dt * np.arange(n)))
    out = np.empty((starts.size, n))
    block = max(1, _ROW_BLOCK // energies.size)
    for s in range(0, starts.size, block):
        z = (p * np.exp(-1j * np.outer(starts[s:s + block], energies))) @ right
        out[s:s + block] = z.real * z.real + z.imag * z.imag
    return out


def fidelity_grid(p, energies, t0: float, dt: float, n: int):
    """|sum_k p_k exp(-i E_k t)|^2 on the grid t = t0 + dt*[0..n-1].

    The grid is folded into rows of ceil(sqrt(n)) points for :func:`fidelity_rows`.
    """
    width = math.isqrt(n - 1) + 1
    rows = -(-n // width)
    starts = t0 + (width * dt) * np.arange(rows)
    return fidelity_rows(p, energies, starts, dt, width).ravel()[:n]


def rounding_bound(t, d, scale):
    """Bound on the rounding error of the fidelities above at times up to ``t``.

    ``d`` is the number of levels and ``scale`` bounds |E_k|. Each phase
    E_k*t carries a few units in the last place of scale*t (the rounded time,
    the product, the argument reduction of exp), and a phase error x moves its
    unit-modulus term by at most x. The products with p and the d-term sum add
    a few units more, and |z| <= 1 at most doubles the error of z in |z|^2.
    The constants hold a factor of four over that count.
    """
    return _EPS * (16.0 * scale * t + 4.0 * d + 8.0)


def _terms(energies, t):
    return np.exp(-1j * np.multiply.outer(t, energies))


def fidelity_scalar(p, energies, t):
    """|sum_k p_k exp(-i E_k t)|^2 at a time ``t`` or at each time of an array."""
    z = _terms(energies, t) @ p
    return z.real * z.real + z.imag * z.imag


def dfidelity_scalar(p, energies, t):
    """Time derivative of :func:`fidelity_scalar`, at a time or an array of times."""
    w = _terms(energies, t)
    z = w @ p
    zd = w @ (p * energies)  # z' = -i zd
    return 2.0 * (z.real * zd.imag - z.imag * zd.real)


def d2fidelity(p, energies, t):
    """Second time derivative of :func:`fidelity_scalar`."""
    w = _terms(energies, t)
    z = w @ p
    zd = w @ (p * energies)
    zdd = w @ (p * energies * energies)  # z'' = -zdd
    return 2.0 * (zd.real * zd.real + zd.imag * zd.imag
                  - z.real * zdd.real - z.imag * zdd.imag)


# perfbench/layers.py installs its call counters under these names;
# refine_minimum looks its slope up there
_fidelity_scalar = fidelity_scalar
_dfidelity_scalar = dfidelity_scalar


def newton(g, lo, hi, tol, start=None):
    """A root of g in each bracket [lo, hi] with g(lo) > 0 >= g(hi).

    ``g(t, rows)`` returns the value and the slope at points ``t`` of the
    brackets ``rows``; ``start`` defaults to the midpoints. Every step shrinks
    the bracket to the side that keeps the sign change; a Newton step that
    would leave it bisects it instead. A bracket is done after the step from a
    point where |g| <= ``tol`` (g's rounding error), or once its step falls
    below the float spacing.
    """
    lo = np.array(lo, dtype=np.float64, ndmin=1)
    hi = np.array(hi, dtype=np.float64, ndmin=1)
    tol = np.broadcast_to(tol, lo.shape)
    x = 0.5 * (lo + hi) if start is None else np.array(start, dtype=np.float64, ndmin=1)
    rows = np.arange(x.size)
    for _ in range(_NEWTON_STEPS):
        t = x[rows]
        value, slope = g(t, rows)
        above = value > 0.0
        lo[rows] = np.where(above, t, lo[rows])
        hi[rows] = np.where(above, hi[rows], t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t - value / slope
        inside = (step > lo[rows]) & (step < hi[rows])
        nxt = np.where(inside, step, 0.5 * (lo[rows] + hi[rows]))
        close = np.abs(value) <= tol[rows]
        x[rows] = np.where(close & ~inside, t, nxt)  # a last Newton step only improves t
        rows = rows[~(close | (np.abs(nxt - t) <= 2.0 * _EPS * np.abs(t)))]
        if rows.size == 0:
            break
    return x


def refine_crossing(p, energies, lo, hi, level):
    """Solve f(t) = level in each bracket, where f(lo) > level >= f(hi).

    ``lo``, ``hi`` and ``level`` are arrays over the brackets (``level`` may
    be one number for all). ``p`` and ``energies`` are one state's, shared by
    every bracket (1-d), or one zero-padded row per bracket (2-d). Newton's
    method on the analytic derivative, with f and f' from one exp table per
    pass. Each bracket stops at the rounding bound of its own state, whose
    levels are its nonzero p.
    """
    level = np.broadcast_to(np.asarray(level, dtype=np.float64), np.shape(lo)).ravel()
    # level-major tables (no copy for the transpose of a level-major array):
    # the sum over levels adds one level after the other, so a padding level
    # (p = 0) adds exact zeros and changes no bit
    p_t = np.ascontiguousarray(np.atleast_2d(p).T)
    e_t = np.ascontiguousarray(np.atleast_2d(energies).T)
    tables = p_t, e_t, p_t * e_t

    def sums(t, rows):
        # take, unlike [:, rows], keeps the tables level-major; one shared column broadcasts
        p_r, e_r, pe_r = (a.take(rows, axis=1) for a in tables) if p.ndim > 1 else tables
        w = -1j * (e_r * t)
        np.exp(w, out=w)
        return (w * p_r).sum(axis=0), (w * pe_r).sum(axis=0)

    def g(t, rows):
        z, zd = sums(t, rows)
        return (z.real * z.real + z.imag * z.imag - level[rows],
                2.0 * (z.real * zd.imag - z.imag * zd.real))

    tol = rounding_bound(np.asarray(hi), np.count_nonzero(p, axis=-1),
                         np.abs(energies).max(axis=-1))
    return newton(g, lo, hi, tol)


def refine_minimum(p, energies, lo, hi):
    """Solve f'(t) = 0 in each bracket, where f'(lo) < 0 < f'(hi): a local minimum."""

    def g(t, rows):
        return -_dfidelity_scalar(p, energies, t), -d2fidelity(p, energies, t)

    scale = float(np.abs(energies).max())
    return newton(g, lo, hi, 2.0 * scale * rounding_bound(np.asarray(hi), energies.size, scale))
