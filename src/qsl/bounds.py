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

The lower bound m minimizes the resolved maximum over the circle; the upper
bound M minimizes a closed-form objective over z in [-sqrt(delta),
sqrt(delta)]. The two agree, which is what the verification suites check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import rootfind
from .errors import CaseError, DomainError, EqualityViolation
from .optimize import grid_golden_min

_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class CirclePoint:
    """A point (rho, sigma) of the fidelity circle with its angle phi.

    ``degenerate`` marks rho = sigma = 0 (only reachable at delta = 1,
    theta = 0), where phi is undefined and stored as NaN.
    """

    rho: float
    sigma: float
    phi: float
    degenerate: bool = False

    @property
    def radius(self) -> float:
        return math.hypot(self.rho, self.sigma)


@dataclass(frozen=True)
class BoundEvaluation:
    """Both bounds at one fidelity, with their absolute gap."""

    delta: float
    m: float
    M: float
    gap: float


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"delta must lie in [0, 1], got {delta}")


def rho_sigma(theta: float, delta: float) -> CirclePoint:
    """Map a circle angle to (rho, sigma, phi) coordinates."""
    _check_delta(delta)
    root = math.sqrt(delta)
    rho = 1.0 - root * math.cos(theta)
    sigma = root * math.sin(theta)
    if rho == 0.0 and sigma == 0.0:
        return CirclePoint(rho=0.0, sigma=0.0, phi=math.nan, degenerate=True)
    # sin(phi) = rho/r >= 0 and cos(phi) = sigma/r pick phi in [0, pi]
    return CirclePoint(rho=rho, sigma=sigma, phi=math.atan2(rho, sigma))


def F_of_y(y: float, point: CirclePoint) -> float:
    """The inner objective as a function of the tangency abscissa.

    Defined on the closed interval [y_minus, y_plus]; at y_plus the rho
    coefficient vanishes identically and the value equals -sigma/cos(y_plus).
    """
    yb = rootfind.y_bounds()
    if not (yb.y_minus - 1e-12 <= y <= yb.y_plus + 1e-12):
        raise DomainError(f"y={y} outside [{yb.y_minus}, {yb.y_plus}]")
    cy = math.cos(y)
    sy = math.sin(y)
    num = point.rho * (sy - y * cy) + point.sigma * (1.0 - cy - y * sy)
    return num / (1.0 - cy)


def dF_dy(y: float, point: CirclePoint) -> float:
    """Derivative of ``F_of_y`` in y."""
    yb = rootfind.y_bounds()
    if not (yb.y_minus - 1e-12 <= y < yb.y_plus):
        raise DomainError(f"y={y} outside [{yb.y_minus}, {yb.y_plus})")
    r = point.radius
    if r == 0.0:
        return 0.0
    phi = point.phi
    cy = math.cos(y)
    return r * (y - math.sin(y)) * (math.cos(phi) - math.cos(phi + y)) / (1.0 - cy) ** 2


def stationary_y(phi: float) -> Optional[float]:
    """Abscissa of the interior stationary point, if phi admits one."""
    yb = rootfind.y_bounds()
    if math.pi - 0.5 * yb.y_plus < phi <= math.pi - 0.5 * yb.y_minus:
        return 2.0 * math.pi - 2.0 * phi
    return None


def f_max_at_point(point: CirclePoint) -> float:
    """Stationary-case maximum r*(pi - phi)/sin(phi); only valid in the window."""
    if point.degenerate:
        raise DomainError("degenerate point has no stationary maximum")
    if stationary_y(point.phi) is None:
        raise CaseError(f"phi={point.phi} outside the stationary window")
    return point.radius * (math.pi - point.phi) / math.sin(point.phi)


def F_AB(sigma: float) -> float:
    """Endpoint value -sigma/cos(y_plus), the y -> y_plus limit of F_of_y.

    On the arc where this case applies sigma is positive, so with
    cos(y_plus) < 0 the value is positive there; the function itself is just
    the linear limit formula and accepts any sigma.
    """
    return -sigma / math.cos(rootfind.y_bounds().y_plus)


def F_CD(rho: float) -> float:
    """Endpoint value rho/sin(y_minus), the value of F_of_y at y_minus."""
    return rho / math.sin(rootfind.y_bounds().y_minus)


def max_F_over_q(point: CirclePoint) -> float:
    """Exact case-resolved maximum of F over the tangency parameter."""
    if point.degenerate:
        return 0.0
    yb = rootfind.y_bounds()
    if point.phi <= math.pi - 0.5 * yb.y_plus:
        return F_AB(point.sigma)
    if point.phi > math.pi - 0.5 * yb.y_minus:
        return F_CD(point.rho)
    return f_max_at_point(point)


def lower_bound_m(delta: float, n_theta: int = 512) -> float:
    """Minimax lower bound: (2/pi) * min over the circle of the resolved max.

    The search runs over theta in [pi, 2*pi] (sigma <= 0), where the minimum
    is attained; the full-circle agreement is asserted by tests.
    """
    _check_delta(delta)
    if n_theta < 8:
        raise DomainError(f"n_theta must be at least 8, got {n_theta}")

    def objective(theta: float) -> float:
        return max_F_over_q(rho_sigma(theta, delta))

    _, val = grid_golden_min(objective, math.pi, 2.0 * math.pi, n=n_theta)
    return (2.0 / math.pi) * val


def f_max_closed(delta: float, z: float) -> float:
    """Closed-form inner maximum ((1+z)/2) * arccos((2*delta-1-z^2)/(1-z^2)).

    Evaluated by the half-angle formula as (1+z) * atan2(sqrt(1-delta),
    sqrt(delta-z^2)), which does not cancel as z^2 nears delta.
    """
    _check_delta(delta)
    if z * z > delta + _CLAMP_TOL:
        raise DomainError(f"z^2={z * z} exceeds delta={delta}")
    w = delta - z * z
    return (1.0 + z) * math.atan2(math.sqrt(1.0 - delta), math.sqrt(w) if w > 0.0 else 0.0)


def _upper_bound_argmin(delta: float, n_grid: int = 512) -> tuple[float, float]:
    """Minimize the closed form over z; returns (bound value, argmin z)."""
    _check_delta(delta)
    root = math.sqrt(delta)
    if root == 0.0:
        return (2.0 / math.pi) * f_max_closed(0.0, 0.0), 0.0
    z, val = grid_golden_min(lambda z: f_max_closed(delta, z), -root, root, n=n_grid)
    return (2.0 / math.pi) * val, z


def upper_bound_M(delta: float) -> float:
    """Two-level-family upper bound: (2/pi) * min over z^2 <= delta."""
    val, _ = _upper_bound_argmin(delta)
    return val


def alpha(delta: float, debug: bool = False) -> float:
    """The speed-limit coefficient; equals both bounds.

    With ``debug=True`` the minimax lower bound is computed as well and a gap
    above 1e-7 raises ``EqualityViolation`` (it would signal a bug here, not
    a failure of the underlying theorem).
    """
    value = upper_bound_M(delta)
    if debug:
        m = lower_bound_m(delta)
        if abs(m - value) > 1e-7:
            raise EqualityViolation(f"|m - M| = {abs(m - value)} at delta={delta}")
    return value


def mt_alpha(delta: float) -> float:
    """Numerator arccos(sqrt(delta)) of the dispersion-based limit."""
    _check_delta(delta)
    return math.acos(math.sqrt(delta))


def omega_to_z(omega: float, delta: float) -> float:
    """The involution z = (delta - omega)/(1 - omega) of [-sqrt(d), sqrt(d)]."""
    _check_delta(delta)
    if abs(omega) > math.sqrt(delta) + _CLAMP_TOL:
        raise DomainError(f"|omega|={abs(omega)} exceeds sqrt(delta)")
    if omega >= 1.0:
        raise DomainError("omega = 1 leaves the map undefined")
    return (delta - omega) / (1.0 - omega)


def evaluate_bounds(delta: float, n_theta: int = 720) -> BoundEvaluation:
    """Compute both bounds and package them with their gap."""
    m = lower_bound_m(delta, n_theta)
    big_m = upper_bound_M(delta)
    return BoundEvaluation(delta=delta, m=m, M=big_m, gap=abs(m - big_m))


def _intersection_factor(psi: float, delta: float, branch: int) -> float:
    """The shared factor sin(psi) +/- sqrt(delta - cos^2 psi) >= 0."""
    if branch not in (1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    disc = delta - math.cos(psi) ** 2
    if disc < -_CLAMP_TOL:
        raise DomainError(f"cos^2(psi)={math.cos(psi)**2} exceeds delta={delta}")
    return math.sin(psi) + branch * math.sqrt(max(disc, 0.0))


def arc_gap_AB(psi: float, delta: float, branch: int = 1) -> float:
    """Gap between the stationary formula and the y_plus endpoint value.

    Nonnegative on 2*psi in [y_plus, 2*pi], vanishing at 2*psi = y_plus.
    """
    _check_delta(delta)
    yb = rootfind.y_bounds()
    if not (yb.y_plus - 1e-9 <= 2.0 * psi <= 2.0 * math.pi + 1e-9):
        raise DomainError(f"2*psi={2 * psi} outside [y_plus, 2*pi]")
    s = _intersection_factor(psi, delta, branch)
    sp = math.sin(psi)
    if s == 0.0 or sp == 0.0:
        return 0.0
    return (s / (2.0 * sp)) * (2.0 * psi - math.sin(2.0 * psi) / math.cos(yb.y_plus))


def arc_gap_CD(psi: float, delta: float, branch: int = 1) -> float:
    """Gap between the stationary formula and the y_minus endpoint value.

    Nonnegative on 2*psi in [0, y_minus], vanishing at 2*psi = y_minus.
    """
    _check_delta(delta)
    yb = rootfind.y_bounds()
    if not (-1e-9 <= 2.0 * psi <= yb.y_minus + 1e-9):
        raise DomainError(f"2*psi={2 * psi} outside [0, y_minus]")
    s = _intersection_factor(psi, delta, branch)
    sp = math.sin(psi)
    if s == 0.0 or sp == 0.0:
        return 0.0
    return (s / (2.0 * sp)) * (2.0 * psi - (1.0 - math.cos(2.0 * psi)) / math.sin(yb.y_minus))
