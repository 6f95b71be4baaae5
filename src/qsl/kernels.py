"""Hot numeric kernels, one numpy implementation each.

``theta_max_table`` serves the grid-minimax oracle. Each of its cells is
rounded on its own, so a table of any subset of rows or columns holds the same
values, which lets the oracle prune rows exactly. The first-passage scans of
:mod:`qsl.qsim` use the rest: the amplitude z = sum_k p_k exp(-i E_k t) on
uniform grids (one complex matrix product per grid), the fidelity
f = |z|**2 and its first two time derivatives at arbitrary times (every order
from one exp table, ``derivatives``), their rounding bound, and the two
refiners (one shared Newton body), whose ``newton`` also solves for
:mod:`qsl.bounds`' M. A scan clears a cell [a, a + h] where f stays
above its targets by the curvature bound min(f(a), f(a + h)) - max|f''|*h**2/8
or by the chord bound (dist(0, [z(a), z(a + h)]) - max|z''|*h**2/8)**2, either
less the rounding bound, which bounds the error of z as well as of f.

A scan grids one state at a time with ``fidelity_grid``; everything after
that works on a block of states at once. So ``amplitude_rows``, the fidelity
and its derivatives and both refiners take one zero-padded state row per
start, time or bracket (2-d ``p`` and ``energies``). They sum each state's
levels in order on level-major tables, so that a padding level (p = 0) adds
exact zeros, and sum a lone row beside a twin, which numpy would otherwise sum
pairwise: a row's values do not depend on the block it came in.
"""

from __future__ import annotations

import math

import numpy as np

# cells of the theta_max_table block of whole rows evaluated at once (4 rows of
# 2048 columns), in two 64 kB buffers that every block reuses, so they stay in cache
_THETA_CELLS = 4 * 2048

# complex entries per level-major table of the row kernels, which work through
# their rows or times in blocks of this size, so that a scan block's many
# rows take little memory at once
_LEVEL_BLOCK = 1 << 12

_EPS = float(np.finfo(np.float64).eps)

# Newton steps per bracket at most; a bracket not done by then returns its
# last iterate, which lies inside it
_NEWTON_STEPS = 64


def theta_max_table(rho, sigma, fa, fb):
    """For each (rho, sigma) row, the max of rho*fa + sigma*fb over the y profiles.

    Each cell is rho*fa + sigma*fb: two products and their sum, each rounded
    once, whatever the order the cells are formed in. A table with fewer
    columns than rows, such as the oracle's pruning pass, is evaluated column
    by column: each column is one vector over every row, folded into a
    running ``np.maximum``. A table of longer rows is evaluated in blocks of
    whole rows, each row reduced by ``max``. A maximum rounds nothing, so
    both orders give the same maxima bit for bit.
    """
    n_t = rho.shape[0]
    if fa.size < n_t:
        best, cell, term = rho * fa[0], np.empty(n_t), np.empty(n_t)
        np.add(best, np.multiply(sigma, fb[0], out=term), out=best)
        for a, b in zip(fa[1:], fb[1:]):
            np.multiply(rho, a, out=cell)
            np.add(cell, np.multiply(sigma, b, out=term), out=cell)
            np.maximum(best, cell, out=best)
        return best
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


def amplitude_rows(p, energies, starts, dt, n):
    """z = sum_k p_k exp(-i E_k t) at t = starts[r] + dt[r]*j, as an array (len(starts), n).

    ``p`` and ``energies`` hold one zero-padded state row and ``dt`` one step
    per start. Each row's levels are summed in order, in blocks of rows that
    bound the memory; a row with the state and step of the row before it
    shares its right factor.
    """
    starts = np.asarray(starts, dtype=np.float64)
    out = np.empty((starts.size, n), dtype=np.complex128)
    p_t, e_t = _level_major(p, energies)
    dt = np.asarray(dt, dtype=np.float64)
    head = np.append(True, (dt[1:] != dt[:-1]) | np.any(e_t[:, 1:] != e_t[:, :-1], axis=0))
    heads = np.nonzero(head)[0]
    right = np.exp(-1j * (e_t[:, heads, None] * np.multiply.outer(dt[heads], np.arange(n))))
    owner = np.cumsum(head) - 1
    block = max(1, _LEVEL_BLOCK // (p_t.shape[0] * n))
    for s in range(0, starts.size, block):
        rows = slice(s, s + block)
        left = p_t[:, rows] * np.exp(-1j * (e_t[:, rows] * starts[rows]))
        terms = right[:, owner[rows]]
        np.multiply(left[:, :, None], terms, out=terms)
        np.sum(terms, axis=0, out=out[rows])
    return out


def fidelity_grid(p, energies, t0: float, dt: float, n: int):
    """The amplitude z (fidelity |z|**2) of one state on the grid t = t0 + dt*[0..n-1].

    The grid is folded into rows of w = ceil(sqrt(n)) points, which gives the
    complex matrix product z = (p * exp(-i E starts)) @ exp(-i E dt j)^T,
    j < w: (rows + w)*d exponentials instead of n*d.
    """
    width = math.isqrt(n - 1) + 1
    starts = t0 + (width * dt) * np.arange(-(-n // width))
    right = np.exp(-1j * (energies[:, None] * (dt * np.arange(width))))
    return ((p * np.exp(-1j * (starts[:, None] * energies))) @ right).ravel()[:n]


def rounding_bound(t, d, scale):
    """Bound on the rounding error of the amplitudes and fidelities above at times up to ``t``.

    ``d`` is the number of levels and ``scale`` bounds |E_k|. Each phase
    E_k*t carries a few units in the last place of scale*t (the rounded time,
    the product, the argument reduction of exp), and a phase error x moves its
    unit-modulus term by at most x. The products with p and the d-term sum add
    a few units more, and |z| <= 1 at most doubles the error of z in |z|^2.
    The constants hold a factor of four over that count; the error of z takes
    at most half of the bound.
    """
    return _EPS * (16.0 * scale * t + 4.0 * d + 8.0)


def _level_major(p, energies):
    """Level-major (levels, rows) tables of state rows."""
    return np.ascontiguousarray(p.T), np.ascontiguousarray(energies.T)


def _level_sums(p_t, e_t, t, order):
    """f = |z|**2 and its time derivatives up to ``order`` <= 2 at ``t``, from one exp table.

    The level sums z_j = sum_k p_k E_k**j exp(-i E_k t) (z = z_0, z' = -i z_1,
    z'' = -z_2) run over axis 0 of level-major tables, one level after the
    other, so that a padding level (p = 0) adds exact zeros and changes no bit.
    """
    if t.size == 1:  # numpy would sum a lone column pairwise, so it gets a twin
        return [x[:1] for x in _level_sums(*(np.repeat(x, 2, axis=-1) for x in (p_t, e_t, t)),
                                           order)]
    w = -1j * (e_t * t)
    np.exp(w, out=w)
    z, weight = [], p_t
    for j in range(order + 1):
        if j:
            weight = weight * e_t
        z.append((w * weight).sum(axis=0))
    f = [z[0].real * z[0].real + z[0].imag * z[0].imag]
    if order >= 1:
        f.append(2.0 * (z[0].real * z[1].imag - z[0].imag * z[1].real))
    if order >= 2:
        f.append(2.0 * (z[1].real * z[1].real + z[1].imag * z[1].imag
                        - z[0].real * z[2].real - z[0].imag * z[2].imag))
    return f


def derivatives(p, energies, t, order):
    """[f, f', ...] to ``order`` <= 2 at the times ``t``, a state row each, from one exp table."""
    t = np.asarray(t, dtype=np.float64)
    block = max(1, _LEVEL_BLOCK // p.shape[1])
    parts = [_level_sums(*_level_major(p[s:s + block], energies[s:s + block]),
                         t[s:s + block], order)
             for s in range(0, max(t.size, 1), block)]
    return [np.concatenate(column) for column in zip(*parts)]


def fidelity_scalar(p, energies, t):
    """|sum_k p_k exp(-i E_k t)|^2 at each time of ``t``, one per state row."""
    return derivatives(p, energies, t, 0)[0]


def dfidelity_scalar(p, energies, t):
    """Time derivative of :func:`fidelity_scalar`, at each time of ``t``."""
    return derivatives(p, energies, t, 1)[1]


# perfbench/layers.py installs its call counters under these names too; nothing
# here calls them, so they count only the calls made through the public names
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


def _refine(p, energies, lo, hi, order, g):
    """``newton`` on g(f, rows), f listing f, f', ... up to ``order`` at the brackets ``rows``.

    g's value, the derivative of order - 1, rounds by (2 scale)**(order - 1) times
    the rounding bound of the bracket's own state, whose levels are its nonzero p.
    """
    scale = np.abs(energies).max(axis=-1)
    r = rounding_bound(np.asarray(hi), np.count_nonzero(p, axis=-1), scale)
    tables = _level_major(p, energies)

    def value_and_slope(t, rows):
        # take, unlike [:, rows], keeps the tables level-major
        return g(_level_sums(*(a.take(rows, axis=1) for a in tables), t, order), rows)

    return newton(value_and_slope, lo, hi, (2.0 * scale) ** (order - 1) * r)


def refine_crossing(p, energies, lo, hi, level):
    """Solve f(t) = level in each bracket, where f(lo) > level >= f(hi).

    ``lo``, ``hi`` and ``level`` are arrays over the brackets (``level`` may
    be one number for all); ``p`` and ``energies`` hold one zero-padded state
    row per bracket. Newton's method on the analytic derivative.
    """
    level = np.broadcast_to(np.asarray(level, dtype=np.float64), np.shape(lo)).ravel()
    return _refine(p, energies, lo, hi, 1, lambda f, rows: (f[0] - level[rows], f[1]))


def refine_minimum(p, energies, lo, hi):
    """Solve f'(t) = 0 in each bracket, where f'(lo) < 0 < f'(hi): a local minimum.

    ``p`` and ``energies`` hold one zero-padded state row per bracket.
    """
    return _refine(p, energies, lo, hi, 2, lambda f, rows: (-f[1], -f[2]))
