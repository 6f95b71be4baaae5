"""The two bound functions m(delta) and M(delta) and their proven equality.

Geometry: a point of the circle (rho-1)^2 + sigma^2 = delta is assigned the
angle phi with cos(phi) = sigma/r, sin(phi) = rho/r (r the distance from the
origin). The inner maximum over the tangency parameter is then resolved in
closed form by a three-way case split on phi:

* stationary window  pi - y_plus/2 < phi <= pi - y_minus/2: interior maximum
  at y = 2*pi - 2*phi, value r*(pi - phi)/sin(phi);
* phi <= pi - y_plus/2 (arc AB, sigma > 0 there): supremum at y -> y_plus,
  value -sigma/cos(y_plus);
* phi > pi - y_minus/2 (arc CD): maximum at y = y_minus, value rho/sin(y_minus).

The lower bound m minimizes the resolved maximum over the circle. The upper
bound M minimizes ((1+z)/2) * arccos((2*delta-1-z^2)/(1-z^2)) over z^2 <= delta.
With z = sqrt(delta)*cos(phi), phi in [0, pi], that objective is
(1 + z) * atan2(sqrt(1-delta), sqrt(delta)*sin(phi)), free of cancellation as
z^2 -> delta, and its phi-derivative is -sqrt(delta)*g(phi) with
g = sin(phi)*atan2(sqrt(1-delta), sqrt(delta)*sin(phi)) + sqrt(1-delta)*cos(phi)/(1 - z).
For 0 < delta < 1, g(0) > 0 > g(pi): the minimizer is the root of g in the
bracket [0, pi], found by one safeguarded Newton solve (``kernels.newton``)
for a block of 65536 delta at once. It starts from a fitted first guess
(``_START``), close enough that one Newton step reaches g's rounding: two
evaluations of g per delta. The two bounds agree, which is what the
verification suites check.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import kernels, rootfind
from .errors import DomainError, delta_array, require
from .optimize import grid_golden_min

_CLAMP_TOL = 1e-12

# 2/pi as the sum of two floats: 2/math.pi alone is 0.56 ulp high
_TWO_OVER_PI = (2.0 / math.pi, -3.935735335036497e-17)
# |g| at which the Newton solve takes its last step: g's rounding error, its terms
# being below 2 near the root
_G_TOL = 16.0 * float(np.finfo(np.float64).eps)
# points of the theta grid that lower_bound_m refines by golden section
_N_THETA = 720
# delta per block of _upper_bound_argmin, bounding its temporaries; no bit depends on it
_DELTA_BLOCK = 1 << 16
# w(r) = (pi - phi)/sqrt(1 - delta) at g's root, r = sqrt(delta), as coefficients of r^0, r^1, ...:
# it interpolates the solve's roots and the closed forms atan(2/pi) at delta = 0 and u0 at delta = 1,
# u0 * atan(1/u0) = 1/2; 7e-10 off, so one Newton step lands within g's rounding. Written by
# tests/fit_alpha_start.py.
_START = (0.5669115049410094, -0.22727027479247647, 0.158146385432446,
          -0.12515565908592133, 0.10404133220331761, -0.08748212671994798,
          0.06958907557328517, -0.04725393075090587, 0.02410295205226413,
          -0.00783833664763915, 0.0011869867587477256)


def stationary_max(rho: float | np.ndarray, sigma: float | np.ndarray) -> float | np.ndarray:
    """Interior maximum r*(pi - phi)/sin(phi) at y = 2*pi - 2*phi; only valid in the window."""
    phi = np.arctan2(rho, sigma)
    return np.hypot(rho, sigma) * (np.pi - phi) / np.sin(phi)


def max_F_over_q(theta: float | np.ndarray, delta: float | np.ndarray) -> float | np.ndarray:
    """Exact case-resolved maximum of F over the tangency parameter at circle angle theta.

    ``theta`` and ``delta`` are numbers or arrays that broadcast together. The
    degenerate point rho = sigma = 0 (delta = 1, theta = 0) has phi = 0 and
    takes the AB value 0.
    """
    root = np.sqrt(delta_array(delta))
    rho = 1.0 - root * np.cos(theta)
    sigma = root * np.sin(theta)
    # sin(phi) = rho/r >= 0 and cos(phi) = sigma/r pick phi in [0, pi]
    phi = np.arctan2(rho, sigma)
    yb = rootfind.y_bounds()
    ab = phi <= math.pi - 0.5 * yb.y_plus
    value = np.where(ab, -sigma / math.cos(yb.y_plus), rho / math.sin(yb.y_minus))
    # the stationary form only on its window, where sin(phi) > 0.78
    window = ~ab & (phi <= math.pi - 0.5 * yb.y_minus)
    value[window] = stationary_max(rho[window], sigma[window])
    return value[()]


def lower_bound_m(delta: float | np.ndarray) -> float | np.ndarray:
    """Minimax lower bound: (2/pi) * min over the circle of the resolved max.

    ``delta`` is one number or an array, and the bound takes its shape. The
    search runs over theta in [pi, 2*pi] (sigma <= 0), where the minimum is
    attained, for every delta at once; the full-circle agreement is asserted
    by tests.
    """
    d = delta_array(delta).ravel()
    _, val = grid_golden_min(lambda theta, rows: max_F_over_q(theta, d[rows]),
                             np.full(d.size, math.pi), np.full(d.size, 2.0 * math.pi), _N_THETA)
    return ((2.0 / math.pi) * val).reshape(np.shape(delta))[()]


def f_max_closed(delta: float, z: float) -> float:
    """Closed-form inner maximum ((1+z)/2) * arccos((2*delta-1-z^2)/(1-z^2)).

    Evaluated by the half-angle formula as (1+z) * atan2(sqrt(1-delta),
    sqrt(delta-z^2)), which does not cancel as z^2 nears delta.
    """
    delta_array(delta)
    if z * z > delta + _CLAMP_TOL:
        raise DomainError(f"z^2={z * z} exceeds delta={delta}")
    w = delta - z * z
    return (1.0 + z) * math.atan2(math.sqrt(1.0 - delta), math.sqrt(w) if w > 0.0 else 0.0)


def _upper_bound_argmin(delta: float | np.ndarray) -> tuple:
    """Minimize the closed form over z; returns (bound value, argmin z).

    ``delta`` is one number or an array, and both results take its shape. At
    delta = 1 every z gives 0; the minimizer's limit z = -1 is returned.
    """
    d = delta_array(delta).ravel()
    value, z = np.empty((2, d.size))
    for s in range(0, d.size, _DELTA_BLOCK):
        value[s:s + _DELTA_BLOCK], z[s:s + _DELTA_BLOCK] = _argmin_block(d[s:s + _DELTA_BLOCK])
    return value.reshape(np.shape(delta))[()], z.reshape(np.shape(delta))[()]


def _argmin_block(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bound value, argmin z) of each delta of the 1-d array ``d``, by one Newton solve."""
    root, co = np.sqrt(d), np.sqrt(1.0 - d)
    gap = (1.0 - d) / (1.0 + root)  # 1 - sqrt(delta)
    inner = (root > 0.0) & (co > 0.0)
    r, c, gp = root[inner], co[inner], gap[inner]

    def g(t, rows):
        rr, cc = r[rows], c[rows]
        sin, cos = np.sin(t), np.cos(t)
        y = rr * sin
        minus = gp[rows] + 2.0 * rr * np.sin(0.5 * t) ** 2  # 1 - sqrt(delta)*cos(t)
        angle = np.arctan2(cc, y)
        return (sin * angle + cc * cos / minus,
                cos * angle - cc * sin * (rr * cos / (cc * cc + y * y) + 1.0 / (minus * minus)))

    phi = np.where(co == 0.0, math.pi, 0.5 * math.pi)
    start = math.pi - c * functools.reduce(lambda w, k: w * r + k, reversed(_START))  # Horner
    phi[inner] = kernels.newton(g, np.zeros(r.size), np.full(r.size, math.pi), _G_TOL, start)
    z = root * np.cos(phi)
    # 1 + z rounds once where it cannot cancel
    plus = np.where(z > -0.5, 1.0 + z, gap + 2.0 * root * np.cos(0.5 * phi) ** 2)
    angle = np.arctan2(co, root * np.sin(phi))
    value = plus * (angle * _TWO_OVER_PI[0] + angle * _TWO_OVER_PI[1])
    value[root == 0.0] = 1.0
    value[co == 0.0] = 0.0
    return value, z


def upper_bound_M(delta: float | np.ndarray) -> float | np.ndarray:
    """Two-level-family upper bound (2/pi) * min over z^2 <= delta, for one delta or an array."""
    return _upper_bound_argmin(delta)[0]


def alpha(delta: float | np.ndarray) -> float | np.ndarray:
    """The speed-limit coefficient, equal to both bounds, for one delta or an array."""
    return upper_bound_M(delta)


def mt_alpha(delta: float | np.ndarray) -> float | np.ndarray:
    """Numerator arccos(sqrt(delta)) of the dispersion-based limit, for one delta or an array.

    Each value is math.acos's: numpy's vectorised arccos can differ from it in
    the last bit.
    """
    d = delta_array(delta)
    # flat yields one float64 (a float) at a time: no list of every value
    return np.fromiter(map(math.acos, np.sqrt(d).flat), np.float64, d.size).reshape(d.shape)[()]


def omega_to_z(omega: float | np.ndarray, delta: float | np.ndarray) -> float | np.ndarray:
    """The involution z = (delta - omega)/(1 - omega) of [-sqrt(d), sqrt(d)].

    ``omega`` and ``delta`` are numbers or arrays that broadcast together, and
    z takes their shape. Each (omega, delta) pair is checked on its own.
    """
    delta = delta_array(delta)
    size = np.abs(omega)
    inside = size <= np.sqrt(delta) + _CLAMP_TOL
    require(inside, np.broadcast_to(size, np.shape(inside)), "|omega| must not exceed sqrt(delta)")
    if np.max(omega) >= 1.0:
        raise DomainError("omega = 1 leaves the map undefined")
    return (delta - omega) / (1.0 - omega)


def arc_gap_AB(x: float | np.ndarray) -> float | np.ndarray:
    """The AB arc lemma's h(x) = x - sin(x)/cos(y_plus) on [y_plus, 2*pi], at one x or an array.

    On AB the stationary maximum less the endpoint value is s/(2 sin psi) * h(2*psi), psi =
    pi - phi, where s = sin psi +/- sqrt(delta - cos^2 psi) >= 0 at every delta on either branch,
    as sqrt(delta - cos^2 psi) <= sin psi. h(y_plus) = 0 as tan y_plus = y_plus, h'(y_plus) = 0,
    and h'' = sin(x)/cos(y_plus) >= 0 on [pi, 2*pi]: so h >= 0.
    """
    yb = rootfind.y_bounds()
    require((yb.y_plus <= x) & (x <= 2.0 * math.pi), x, f"x must lie in [{yb.y_plus}, 2*pi]")
    return x - np.sin(x) / math.cos(yb.y_plus)


def arc_gap_CD(x: float | np.ndarray) -> float | np.ndarray:
    """The CD arc lemma's h(x) = x - (1 - cos x)/sin(y_minus) on [0, y_minus], at one x or an array.

    On CD the gap is s/(2 sin psi) * h(2*psi), s as on AB. h(0) = 0, h(y_minus) = 0 as (1 -
    cos y_minus)/sin y_minus = y_minus, and h' = 1 - sin(x)/sin(y_minus) is positive below
    pi - y_minus and negative above it: so h >= 0.
    """
    yb = rootfind.y_bounds()
    require((0.0 <= x) & (x <= yb.y_minus), x, f"x must lie in [0, {yb.y_minus}]")
    return x - (1.0 - np.cos(x)) / math.sin(yb.y_minus)
