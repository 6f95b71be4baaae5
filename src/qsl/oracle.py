"""Independent brute-force verifiers for the bound functions.

These deliberately avoid the case analysis of :mod:`qsl.bounds`: the minimax
oracle evaluates the raw inner objective on dense grids, and the two-level
oracle integrates nothing but the explicit fidelity of a two-level evolution.
Agreement between the three routes is the package's strongest correctness
signal.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, kernels, rootfind
from .errors import DomainError, delta_array, require
from .optimize import golden_min  # noqa: F401  no caller: a hook site of perfbench/layers.py
from .optimize import grid_golden_min

# every _PRUNE_STRIDE-th y column of a minimax table, and the last, give each
# row's lower bound in minimax_bruteforce_m: 65 of 2048 columns, 9 of 256
_PRUNE_STRIDE = 32


def _y_profiles(n_y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficient profiles of rho and sigma in the inner objective.

    F(y) = rho * fa(y) + sigma * fb(y) with
    fa = (sin y - y cos y)/(1 - cos y), fb = (1 - cos y - y sin y)/(1 - cos y);
    both are finite on the closed interval [y_minus, y_plus].
    """
    yb = rootfind.y_bounds()
    y = np.linspace(yb.y_minus, yb.y_plus, n_y)
    cy = np.cos(y)
    sy = np.sin(y)
    one_minus = 1.0 - cy
    fa = (sy - y * cy) / one_minus
    fb = (1.0 - cy - y * sy) / one_minus
    return y, fa, fb


def minimax_bruteforce_m(delta: float | np.ndarray, n: int) -> float | np.ndarray:
    """Pure-grid evaluation of (2/pi) * min_theta max_y F on n x n points; no case analysis.

    ``delta`` is one number or an array, and the value takes its shape. The
    result is the exact minimum of the full table of row maxima, although only
    a few rows are evaluated in full. A row's maximum over every
    ``_PRUNE_STRIDE``-th column (and the last) is a lower bound ``low`` on its
    full maximum, as every cell is rounded on its own; the full maximum ``up``
    of the row with the smallest ``low`` bounds the table's minimum from above.
    A row with ``low >= up`` cannot hold a smaller value, so only the rows with
    ``low < up`` are evaluated in full.
    """
    d = delta_array(delta).ravel()
    if n < 64:
        raise DomainError(f"the grid must be >= 64, got {n}")
    _, fa, fb = _y_profiles(n)
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    root = np.sqrt(d)[:, None]
    rho = (1.0 - root * np.cos(theta)).ravel()
    sigma = (root * np.sin(theta)).ravel()
    cols = np.append(np.arange(0, n - 1, _PRUNE_STRIDE), n - 1)
    low = kernels.theta_max_table(rho, sigma, fa[cols], fb[cols])
    first = np.argmin(low.reshape(d.size, n), axis=1) + n * np.arange(d.size)
    best = kernels.theta_max_table(rho[first], sigma[first], fa, fb)
    low[first] = np.inf  # evaluated in full already
    keep = np.flatnonzero(low < np.repeat(best, n))
    np.minimum.at(best, keep // n, kernels.theta_max_table(rho[keep], sigma[keep], fa, fb))
    return ((2.0 / math.pi) * best).reshape(np.shape(delta))[()]


def two_level_passage_time(xi: float | np.ndarray, delta: float | np.ndarray):
    """First time a two-level superposition reaches fidelity ``delta``.

    The state carries weight 1 - xi^2 on energy 0 and xi^2 on energy 1;
    its fidelity is (1-xi^2)^2 + xi^4 + 2 xi^2 (1-xi^2) cos(t). ``xi`` and
    ``delta`` are numbers or arrays that broadcast together, and the time takes
    their shape. Where the target fidelity is below the reachable minimum the
    time is inf.
    """
    xi = np.asarray(xi, dtype=np.float64)
    require((0.0 < xi) & (xi < 1.0), xi, "xi must lie in (0, 1)")
    delta = delta_array(delta)
    u = xi * xi
    # f = 1 - 2*amp*sin(t/2)^2 with amp = 2u(1 - u): solved from 1 - delta,
    # which stays exact as delta -> 1 where delta - (1-u)^2 - u^2 would cancel
    s = (1.0 - delta) / (4.0 * u * (1.0 - u))
    # a square a rounding error above 1 is clamped
    return np.where(s > 1.0 + 5e-13, math.inf, 2.0 * np.arcsin(np.sqrt(np.minimum(s, 1.0))))[()]


def two_level_min_time(delta: float | np.ndarray) -> float | np.ndarray:
    """Dimensionless minimal passage time (2/pi) * <H - E0> * t over the family.

    Minimizes over the reachable weights xi^2 in [(1-sqrt(d))/2, (1+sqrt(d))/2]
    by a dense grid plus golden refinement, at level spacing 1: the energy
    scale cancels in the product. ``delta`` is one number or an array, and the
    time takes its shape; it is 0 at delta = 1.
    """
    d = delta_array(delta).ravel()
    root = np.sqrt(d)
    xi_lo = np.sqrt((1.0 - root) / 2.0)
    xi_hi = np.sqrt((1.0 + root) / 2.0)

    def objective(xi, rows):
        # grid endpoints can fall a rounding error outside the reachable weights: inf there
        return (2.0 / math.pi) * (xi * xi) * two_level_passage_time(xi, d[rows])

    best = objective(0.5 * (xi_lo + xi_hi), np.arange(d.size))
    # at delta = 1 every weight has t = 0, which the midpoint xi = 1/2 gives exactly
    wide = np.flatnonzero((xi_hi - xi_lo >= 1e-15) & (d < 1.0))
    # within 2 ulp of delta = 1 the top weight rounds to 1: the largest float below stands in
    _, best[wide] = grid_golden_min(lambda xi, rows: objective(xi, wide[rows]), xi_lo[wide],
                                    np.minimum(xi_hi[wide], np.nextafter(1.0, 0.0)), 4096)
    return best.reshape(np.shape(delta))[()]


def identity_suite(n_samples: int, seed: int) -> dict:
    """Randomized spot-checks of the algebraic identities used by the bounds.

    Covers the double-angle identity arccos(2 t^2 - 1) = 2 arccos(t), the
    omega -> z interval involution, and bounds.stationary_max against the ratio
    form (r^2/rho) * arccos(-sigma/r) of the same maximum. Returns a flat
    report including the largest violation found.
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(seed)

    # 26-bit tau makes 2 tau^2 - 1 exact, so arccos's amplification of input
    # rounding near tau = 1 cannot pose as a violation of the identity
    tau = np.round(rng.uniform(0.0, 1.0, n_samples) * 2**26) / 2**26
    tau[0] = 0.0
    if n_samples > 1:
        tau[1] = 1.0
    double_angle = np.max(np.abs(np.arccos(2.0 * tau * tau - 1.0) - 2.0 * np.arccos(tau)))

    # a row of 257 omega across [-sqrt(delta), sqrt(delta)] for each of 32 delta
    deltas = rng.uniform(1e-6, 1.0, 32)
    root = np.sqrt(deltas)
    z = bounds.omega_to_z(np.linspace(-root, root, 257, axis=1), deltas[:, None])
    omega_z = float(max(np.max(np.abs(z[:, 0] - root)), np.max(np.abs(z[:, -1] + root)),
                        np.max(np.diff(z)),  # must be decreasing
                        np.max(np.abs(z) - root[:, None])))  # stays inside

    theta = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    delta = rng.uniform(0.0, 0.9, n_samples)
    rho = 1.0 - np.sqrt(delta) * np.cos(theta)
    sigma = np.sqrt(delta) * np.sin(theta)
    r = np.hypot(rho, sigma)
    ratio = (r * r / rho) * np.arccos(-sigma / r)
    stationary_forms = float(np.max(np.abs(bounds.stationary_max(rho, sigma) - ratio)))

    report = {
        "n_samples": n_samples,
        "seed": seed,
        "double_angle_max": float(double_angle),
        "omega_z_max": float(omega_z),
        "stationary_forms_max": stationary_forms,
    }
    report["max_violation"] = max(
        report["double_angle_max"], report["omega_z_max"], report["stationary_forms_max"]
    )
    return report
