"""The checks of ``qsl verify``, each defined once.

A check is a function of ``seed`` that returns its report lines (an
insertion-ordered dict) and whether it passed. Its grids, sample fidelities
and tolerances are written here and nowhere else: ``qsl verify`` runs every
check through :func:`run`, and the acceptance gate calls the same checks.
Callees are looked up as module attributes at call time, so a test or a
tracer can replace them.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import bounds, oracle, rootfind, tangent

ORACLE_DELTAS = (0.1, 0.3, 0.5, 0.7, 0.9)
ORACLE_GRID = 2048  # points per axis of the minimax oracle's tables

# bounds on the curvature of (2/pi) max_y F in theta near its minimiser, and of
# (2/pi) F in y near its maximiser there, within pi/256 (eight half-steps of the
# oracle's grid) at every delta of ORACLE_DELTAS: measured at most 21.8
# (delta = 0.9) and 0.30 (delta = 0.1), with 10% to spare
_THETA_CURVATURE = 24.0
_Y_CURVATURE = 0.33

# a few units in the last place of a value alpha <= 1, whose ulp is at most eps/2
_FEW_ULPS = 4.0 * float(np.finfo(np.float64).eps)

# y+- lie within rootfind's Newton stop 28 eps/|g'| (|g'| = 4.39, 1.61) of their roots, h_AB(y+)
# and h_CD(y-) move by tan^2 y+ = 20.2 and |1 - y-/sin y-| = 2.2 times that, plus h's 4 ulps of 2 pi
_ARC_TOL = 28.0 * np.finfo(float).eps * max(20.2 / 4.39, 2.2 / 1.61) + 4.0 * math.ulp(2.0 * math.pi)


def equality(seed: int) -> tuple[dict, bool]:
    """The paper's theorem m(delta) = M(delta), as the largest gap over a delta grid."""
    deltas = np.arange(0.01, 1.0, 0.01)
    m = bounds.lower_bound_m(deltas)
    gap = float(np.max(np.abs(m - bounds.upper_bound_M(deltas))))
    # m and M each lie within 2 ulp of alpha (the 50-digit reference pins both): gap <= 2 eps
    return {"equality_max_gap": gap, "equality_tol": _FEW_ULPS}, gap <= _FEW_ULPS


def minimax_oracle(seed: int) -> tuple[dict, bool]:
    """The case-free grid minimax against the closed-form M."""
    deltas = np.array(ORACLE_DELTAS)
    err = float(np.max(np.abs(oracle.minimax_bruteforce_m(deltas, ORACLE_GRID)
                              - bounds.upper_bound_M(deltas))))
    yb = rootfind.y_bounds()
    # both extrema are smooth and a grid point lies within half a step of each, so the grid
    # minimum - M lies in [-c_y (h_y/2)^2 / 2, c_theta (h/2)^2 / 2], h = 2 pi/n, h_y = span/(n-1)
    tol = 0.5 * (_THETA_CURVATURE * (math.pi / ORACLE_GRID) ** 2
                 + _Y_CURVATURE * (0.5 * (yb.y_plus - yb.y_minus) / (ORACLE_GRID - 1)) ** 2)
    return {"minimax_oracle_max_err": err, "minimax_oracle_tol": tol}, err <= tol


def two_level_oracle(seed: int) -> tuple[dict, bool]:
    """The fastest two-level passage time against the closed-form M."""
    deltas = np.array(ORACLE_DELTAS)
    err = float(np.max(np.abs(oracle.two_level_min_time(deltas) - bounds.upper_bound_M(deltas))))
    # a golden section on a flat minimum errs by the objective's few-ulp rounding, as M does
    return {"two_level_oracle_max_err": err}, err <= _FEW_ULPS


def identities(seed: int) -> tuple[dict, bool]:
    """The seeded trigonometric identities the closed forms rest on."""
    worst = oracle.identity_suite(10000, seed)["max_violation"]
    return {"identities_max_violation": worst}, worst <= 1e-12


def tangent_inequality(seed: int) -> tuple[dict, bool]:
    """cos x + q sin x >= 1 - a(q) x on a grid, with equality at x = y(q), for seeded random q."""
    q = np.random.default_rng(seed).uniform(0.0, 100.0, 1000)
    worst = float(np.min(tangent.check_tangent_inequality(q)))
    y = tangent.y_of_q(q)
    # residual (q - q(y)) sin y at the rounded y: q' = 7.8e3 at q = 100 times ulp/2 is 3.4e-12
    tight = float(np.max(np.abs(np.cos(y) + q * np.sin(y) - 1.0 + tangent.a_of_q(q) * y)))
    lines = {"tangent_inequality_min": worst, "tangent_tightness_max": tight}
    return lines, worst >= -1e-9 and tight <= 1e-11


def arc_gaps(seed: int) -> tuple[dict, bool]:
    """The arc lemma: h_AB >= 0 on [y_plus, 2*pi] and h_CD >= 0 on [0, y_minus], 0 at y+-."""
    yb = rootfind.y_bounds()
    ab = bounds.arc_gap_AB(np.linspace(yb.y_plus, 2.0 * math.pi, 2000))
    cd = bounds.arc_gap_CD(np.linspace(0.0, yb.y_minus, 2000))
    worst, boundary = float(min(ab.min(), cd.min())), float(max(abs(ab[0]), abs(cd[-1])))
    lines = {"arc_gap_min": worst, "arc_gap_boundary_max": boundary}
    return lines, worst >= -_ARC_TOL and boundary <= _ARC_TOL


CHECKS: dict[str, Callable[[int], tuple[dict, bool]]] = {
    "equality": equality,
    "minimax_oracle": minimax_oracle,
    "two_level_oracle": two_level_oracle,
    "identities": identities,
    "tangent_inequality": tangent_inequality,
    "arc_gaps": arc_gaps,
}


def run(seed: int) -> dict:
    """Every check in order: its lines, then ``<name>=pass|fail``, then the verdict."""
    # the one mode is still named: readers of the report key on mode=full
    report: dict = {"mode": "full", "seed": seed}
    failed = []
    for name, check in CHECKS.items():
        lines, passed = check(seed)
        report.update(lines)
        report[name] = "pass" if passed else "fail"
        if not passed:
            failed.append(name)
    report["failed_checks"] = ",".join(failed) or "none"
    report["overall"] = "fail" if failed else "pass"
    return report
