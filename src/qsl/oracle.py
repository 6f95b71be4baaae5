"""Independent brute-force verifiers for the bound functions.

These deliberately avoid the case analysis of :mod:`qsl.bounds`: the minimax
oracle evaluates the raw inner objective on dense grids, and the two-level
oracle integrates nothing but the explicit fidelity of a two-level evolution.
Agreement between the three routes is the package's strongest correctness
signal.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import bounds, kernels, rootfind
from .errors import DomainError
from .optimize import golden_min


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


def minimax_bruteforce_m(delta: float, n: int) -> float:
    """Pure-grid evaluation of (2/pi) * min_theta max_y F on n x n points; no case analysis."""
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    if n < 64:
        raise DomainError(f"the grid must be >= 64, got {n}")
    _, fa, fb = _y_profiles(n)
    theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    root = math.sqrt(delta)
    rho = 1.0 - root * np.cos(theta)
    sigma = root * np.sin(theta)
    return (2.0 / math.pi) * float(kernels.theta_max_table(rho, sigma, fa, fb).min())


def two_level_passage_time(xi: float, delta: float) -> Optional[float]:
    """First time a two-level superposition reaches fidelity ``delta``.

    The state carries weight 1 - xi^2 on energy 0 and xi^2 on energy 1;
    its fidelity is (1-xi^2)^2 + xi^4 + 2 xi^2 (1-xi^2) cos(t). Returns
    None when the target fidelity is below the reachable minimum.
    """
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    u = xi * xi
    amp = 2.0 * u * (1.0 - u)
    arg = (delta - (1.0 - u) ** 2 - u * u) / amp
    if arg < -1.0:
        if arg < -1.0 - 1e-12:
            return None
        arg = -1.0
    if arg > 1.0:
        arg = 1.0
    return math.acos(arg)


def two_level_min_time(delta: float) -> float:
    """Dimensionless minimal passage time (2/pi) * <H - E0> * t over the family.

    Minimizes over the reachable weights xi^2 in [(1-sqrt(d))/2, (1+sqrt(d))/2]
    by a dense grid plus golden refinement, at level spacing 1: the energy
    scale cancels in the product.
    """
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    root = math.sqrt(delta)
    xi_lo = math.sqrt((1.0 - root) / 2.0)
    xi_hi = math.sqrt((1.0 + root) / 2.0)

    def objective(xi: float) -> float:
        t = two_level_passage_time(xi, delta)
        if t is None:  # grid endpoints can fall a rounding error outside
            return math.inf
        return (2.0 / math.pi) * (xi * xi) * t

    if xi_hi - xi_lo < 1e-15:
        return objective(0.5 * (xi_lo + xi_hi))
    n = 4096
    xs = np.linspace(xi_lo, xi_hi, n)
    vals = np.array([objective(x) for x in xs])
    i = int(np.argmin(vals))
    _, refined = golden_min(objective, xs[max(i - 1, 0)], xs[min(i + 1, n - 1)])
    return min(float(vals[i]), refined)


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

    omega_z = 0.0
    for delta in rng.uniform(1e-6, 1.0, 32):
        root = math.sqrt(delta)
        omega = np.linspace(-root, root, 257)
        z = bounds.omega_to_z(omega, delta)
        omega_z = max(omega_z, abs(z[0] - root), abs(z[-1] + root))
        omega_z = max(omega_z, float(np.max(np.diff(z))))  # must be decreasing
        omega_z = max(omega_z, float(np.max(np.abs(z) - root)))  # stays inside

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
