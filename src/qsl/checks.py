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
    n_theta, tol = (256, 1e-4) if quick else (720, 1e-6)
    gap = max(bounds.evaluate_bounds(float(d), n_theta).gap for d in deltas)
    return {"equality_max_gap": gap, "equality_tol": tol}, gap <= tol


def minimax_oracle(quick: bool, seed: int) -> tuple[dict, bool]:
    """The case-free grid minimax against the closed-form M."""
    grid, tol = (256, 5e-3) if quick else (2048, 1e-4)
    err = max(abs(oracle.minimax_bruteforce_m(d, grid, grid).value - bounds.upper_bound_M(d))
              for d in ORACLE_DELTAS[quick])
    return {"minimax_oracle_max_err": err, "minimax_oracle_tol": tol}, err <= tol


def two_level_oracle(quick: bool, seed: int) -> tuple[dict, bool]:
    """The fastest two-level passage time against the closed-form M."""
    err = max(abs(oracle.two_level_min_time(d) - bounds.upper_bound_M(d))
              for d in ORACLE_DELTAS[quick])
    return {"two_level_oracle_max_err": err}, err <= 1e-8


def identities(quick: bool, seed: int) -> tuple[dict, bool]:
    """The seeded trigonometric identities the closed forms rest on."""
    worst = oracle.identity_suite(1000 if quick else 10000, seed)["max_violation"]
    return {"identities_max_violation": worst}, worst <= 1e-12


def tangent_inequality(quick: bool, seed: int) -> tuple[dict, bool]:
    """cos x + q sin x >= 1 - a(q) x on a grid, for seeded random slopes q."""
    rng = np.random.default_rng(seed)
    worst = min(tangent.check_tangent_inequality(float(q), 50.0, 4096)
                for q in rng.uniform(0.0, 100.0, 100 if quick else 1000))
    return {"tangent_inequality_min": worst}, worst >= -1e-9


def arc_gaps(quick: bool, seed: int) -> tuple[dict, bool]:
    """Both arc gaps are nonnegative on both branches and vanish at the arc boundaries."""
    npoints = 200 if quick else 2000
    worst, boundary = math.inf, 0.0
    for delta in ARC_DELTAS:
        for gap, lo, hi, edge in arcs(delta):
            if lo > hi:
                continue
            for branch in (1, -1):
                worst = min(worst, min(gap(float(p), delta, branch)
                                       for p in np.linspace(lo, hi, npoints)))
                boundary = max(boundary, abs(gap(edge, delta, branch)))
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
