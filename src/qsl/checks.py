"""The checks of ``qsl verify``, each defined once.

A check is a function of ``(quick, seed)`` that returns its report lines (an
insertion-ordered dict) and whether it passed. Its grids, sample fidelities
and tolerances are written here and nowhere else: ``qsl verify`` runs every
check through :func:`run`, and the acceptance gate calls the full variants.
Callees are looked up as module attributes at call time, so a test or a
tracer can replace them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import bounds, oracle, rootfind, tangent

ARC_DELTAS = (0.3, 0.6, 0.9)
ORACLE_DELTAS = {True: (0.3, 0.7), False: (0.1, 0.3, 0.5, 0.7, 0.9)}  # keyed by quick

# bounds on the curvature of (2/pi) max_y F in theta near its minimiser, and of
# (2/pi) F in y near its maximiser there, within half a step of the 256-point grid
# at every delta of ORACLE_DELTAS: measured at most 21.8 (delta = 0.9) and 0.30
# (delta = 0.1), with 10% to spare
_THETA_CURVATURE = 24.0
_Y_CURVATURE = 0.33

# a few units in the last place of a value alpha <= 1, whose ulp is at most eps/2
_FEW_ULPS = 4.0 * float(np.finfo(np.float64).eps)


def arcs(delta: float) -> list[tuple]:
    """The AB and CD arcs at ``delta``, each as (gap function, lo, hi, boundary).

    The arc is psi in [lo, hi], empty if lo > hi; its gap vanishes at psi = boundary.
    """
    yb = rootfind.y_bounds()
    reach = math.acos(math.sqrt(delta))  # the circle needs cos^2(psi) <= delta
    return [(bounds.arc_gap_AB, max(0.5 * yb.y_plus, reach), math.pi - reach, 0.5 * yb.y_plus),
            (bounds.arc_gap_CD, reach, 0.5 * yb.y_minus, 0.5 * yb.y_minus)]


def equality(quick: bool, seed: int) -> tuple[dict, bool]:
    """The paper's theorem m(delta) = M(delta), as the largest gap over a delta grid."""
    deltas = np.arange(0.05, 1.0, 0.05) if quick else np.arange(0.01, 1.0, 0.01)
    n_theta = 256 if quick else 720
    m = bounds.lower_bound_m(deltas, n_theta)
    gap = float(np.max(np.abs(m - bounds.upper_bound_M(deltas))))
    # m and M each lie within 2 ulp of alpha (the 50-digit reference pins both): gap <= 2 eps
    return {"equality_max_gap": gap, "equality_tol": _FEW_ULPS}, gap <= _FEW_ULPS


def minimax_oracle(quick: bool, seed: int) -> tuple[dict, bool]:
    """The case-free grid minimax against the closed-form M."""
    grid = 256 if quick else 2048
    deltas = np.array(ORACLE_DELTAS[quick])
    err = float(np.max(np.abs(oracle.minimax_bruteforce_m(deltas, grid)
                              - bounds.upper_bound_M(deltas))))
    yb = rootfind.y_bounds()
    # both extrema are smooth and a grid point lies within half a step of each, so the grid
    # minimum - M lies in [-c_y (h_y/2)^2 / 2, c_theta (h/2)^2 / 2], h = 2 pi/n, h_y = span/(n-1)
    tol = 0.5 * (_THETA_CURVATURE * (math.pi / grid) ** 2
                 + _Y_CURVATURE * (0.5 * (yb.y_plus - yb.y_minus) / (grid - 1)) ** 2)
    return {"minimax_oracle_max_err": err, "minimax_oracle_tol": tol}, err <= tol


def two_level_oracle(quick: bool, seed: int) -> tuple[dict, bool]:
    """The fastest two-level passage time against the closed-form M."""
    deltas = np.array(ORACLE_DELTAS[quick])
    err = float(np.max(np.abs(oracle.two_level_min_time(deltas) - bounds.upper_bound_M(deltas))))
    # a golden section on a flat minimum errs by the objective's few-ulp rounding, as M does
    return {"two_level_oracle_max_err": err}, err <= _FEW_ULPS


def identities(quick: bool, seed: int) -> tuple[dict, bool]:
    """The seeded trigonometric identities the closed forms rest on."""
    worst = oracle.identity_suite(1000 if quick else 10000, seed)["max_violation"]
    return {"identities_max_violation": worst}, worst <= 1e-12


def tangent_inequality(quick: bool, seed: int) -> tuple[dict, bool]:
    """cos x + q sin x >= 1 - a(q) x on a grid, with equality at x = y(q), for seeded random q."""
    q = np.random.default_rng(seed).uniform(0.0, 100.0, 100 if quick else 1000)
    worst = float(np.min(tangent.check_tangent_inequality(q)))
    y = tangent.y_of_q(q)
    # residual (q - q(y)) sin y at the rounded y: q' = 7.8e3 at q = 100 times ulp/2 is 3.4e-12
    tight = float(np.max(np.abs(np.cos(y) + q * np.sin(y) - 1.0 + tangent.a_of_q(q) * y)))
    lines = {"tangent_inequality_min": worst, "tangent_tightness_max": tight}
    return lines, worst >= -1e-9 and tight <= 1e-11


def arc_gaps(quick: bool, seed: int) -> tuple[dict, bool]:
    """Both arc gaps are nonnegative on both branches and vanish at the arc boundaries."""
    npoints = 200 if quick else 2000
    worst, boundary = math.inf, 0.0
    for delta in ARC_DELTAS:
        for gap, lo, hi, edge in arcs(delta):
            if lo > hi:
                continue
            psi = np.append(np.linspace(lo, hi, npoints), edge)
            for branch in (1, -1):
                values = gap(psi, delta, branch)
                worst = min(worst, float(values[:-1].min()))
                boundary = max(boundary, abs(float(values[-1])))
    lines = {"arc_gap_min": worst, "arc_gap_boundary_max": boundary}
    return lines, worst >= -1e-10 and boundary <= 1e-8


CHECKS: dict[str, Callable[[bool, int], tuple[dict, bool]]] = {
    "equality": equality,
    "minimax_oracle": minimax_oracle,
    "two_level_oracle": two_level_oracle,
    "identities": identities,
    "tangent_inequality": tangent_inequality,
    "arc_gaps": arc_gaps,
}


def run(quick: bool, seed: int) -> dict:
    """Every check in order: its lines, then ``<name>=pass|fail``, then the verdict."""
    report: dict = {"mode": "quick" if quick else "full", "seed": seed}
    failed = []
    for name, check in CHECKS.items():
        lines, passed = check(quick, seed)
        report.update(lines)
        report[name] = "pass" if passed else "fail"
        if not passed:
            failed.append(name)
    report["failed_checks"] = ",".join(failed) or "none"
    report["overall"] = "fail" if failed else "pass"
    return report
