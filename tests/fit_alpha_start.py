"""The first guess of ``bounds._argmin_block``'s Newton solve, fitted from the solve's own roots.

At delta = r^2 the root phi* of g gives w(r) = (pi - phi*)/sqrt(1 - delta),
which is smooth in r on [0, 1]. This module interpolates w by a polynomial of
degree ``DEGREE`` in r at the Chebyshev-Lobatto nodes r_k = (1 - cos(k pi/DEGREE))/2
of [0, 1]: at the interior nodes w is taken from ``_argmin_block``'s converged
roots, and at the two ends it is imposed exactly as its closed form, atan(2/pi)
at r = 0 and u0 at r = 1, where u0 * atan(1/u0) = 1/2. The coefficients of
r^0, r^1, ... are the tuple ``bounds._START``, and this module is that tuple's
only writer: run ``PYTHONPATH=src python tests/fit_alpha_start.py`` and paste
what it prints over the stored tuple. ``tests/test_bounds.py`` re-derives the
tuple and requires the stored one to match it.
"""

import math

import numpy as np

from qsl import bounds, kernels

DEGREE = 10


def u0():
    """The root of u * atan(1/u) = 1/2, w's value at r = 1, by Newton's method from 0.43."""
    u = 0.43
    for _ in range(6):
        u -= (u * math.atan(1.0 / u) - 0.5) / (math.atan(1.0 / u) - u / (1.0 + u * u))
    return u


def roots(delta):
    """The root phi* of g at each delta of the 1-d array, as ``_argmin_block``'s solve returns it."""
    found, newton = [], kernels.newton
    kernels.newton = lambda *args: found.append(newton(*args)) or found[-1]
    try:
        bounds._argmin_block(delta)
    finally:
        kernels.newton = newton
    return found[0]


def fit():
    """The coefficients of r^0, r^1, ..., r^DEGREE of the interpolant of w, as a tuple."""
    r = 0.5 - 0.5 * np.cos(np.arange(DEGREE + 1) * math.pi / DEGREE)
    d = r[1:-1] ** 2
    w = np.concatenate([[math.atan(2.0 / math.pi)], (math.pi - roots(d)) / np.sqrt(1.0 - d), [u0()]])
    return tuple(np.linalg.solve(np.vander(r, increasing=True), w).tolist())


def main():
    coefficients = [repr(c) for c in fit()]
    print("_START = (" + ",\n          ".join(", ".join(coefficients[k:k + 3])
                                           for k in range(0, len(coefficients), 3)) + ")")


if __name__ == "__main__":
    main()
