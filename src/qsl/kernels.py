"""Hot numeric kernels, one numpy implementation each.

``theta_max_table`` serves the grid-minimax oracle; the fidelity grid, the
scalar fidelity and its time derivative, and the two bisection refiners serve
the first-passage scans of :mod:`qsl.qsim`.
"""

from __future__ import annotations

import numpy as np

# rows of the theta_max_table block evaluated at once, bounding its memory
_THETA_CHUNK = 256


def theta_max_table(rho, sigma, fa, fb):
    """For each (rho, sigma) row return max and argmax over the y profiles."""
    n_t = rho.shape[0]
    best = np.empty(n_t)
    arg = np.empty(n_t, dtype=np.int64)
    for s in range(0, n_t, _THETA_CHUNK):
        e = min(s + _THETA_CHUNK, n_t)
        block = rho[s:e, None] * fa[None, :] + sigma[s:e, None] * fb[None, :]
        idx = block.argmax(axis=1)
        arg[s:e] = idx
        best[s:e] = np.take_along_axis(block, idx[:, None], axis=1)[:, 0]
    return best, arg


def fidelity_grid(p, energies, t0: float, dt: float, n: int):
    """|sum_k p_k exp(-i E_k t)|^2 on the grid t = t0 + dt*[0..n-1]."""
    t = t0 + dt * np.arange(n)
    z = np.exp(-1j * np.outer(t, energies)) @ p.astype(np.complex128)
    return np.abs(z) ** 2


def fidelity_scalar(p, energies, t):
    """|sum_k p_k exp(-i E_k t)|^2 at one time ``t``."""
    phase = energies * t
    re = float(p @ np.cos(phase))
    im = -float(p @ np.sin(phase))
    return re * re + im * im


def dfidelity_scalar(p, energies, t):
    """Time derivative of :func:`fidelity_scalar` at ``t``."""
    phase = energies * t
    c = np.cos(phase)
    s = np.sin(phase)
    re = float(p @ c)
    im = -float(p @ s)
    pe = p * energies
    return 2.0 * (re * -float(pe @ s) + im * -float(pe @ c))


# The refiners look the scalar helpers up under these names, where
# perfbench/layers.py installs its call counters.
_fidelity_scalar = fidelity_scalar
_dfidelity_scalar = dfidelity_scalar


def refine_crossing(p, energies, lo, hi, level, iters):
    """Bisect f(t) - level on [lo, hi], where f(lo) > level >= f(hi)."""
    for _ in range(iters):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if _fidelity_scalar(p, energies, mid) > level:
            lo = mid
        else:
            hi = mid
    return hi


def refine_minimum(p, energies, lo, hi, iters):
    """Bisect df/dt on [lo, hi], where df(lo) < 0 < df(hi)."""
    for _ in range(iters):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        if _dfidelity_scalar(p, energies, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
