"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 2, 3, 5 and 6 run the `qsl.checks` definitions that `qsl verify`
runs, so their grids and tolerances live there.
"""

import math
import time

import numpy as np

from qsl import bounds, checks, qsim, rootfind, tangent

SEED = 7  # criteria 2, 3 and 6 draw nothing at random


def report(line):
    print(line)


def test_criterion_1_constants():
    # the best of five cold solves: one solve alone also times whatever else shares the CPU
    elapsed = math.inf
    for _ in range(5):
        rootfind.y_bounds.cache_clear()
        t0 = time.perf_counter()
        yb = rootfind.y_bounds()
        elapsed = min(elapsed, time.perf_counter() - t0)
    assert round(yb.y_minus, 4) == 2.3311
    assert round(yb.y_plus, 4) == 4.4934
    assert elapsed < 1e-3
    report(f"criterion 1: PASS — y_minus={yb.y_minus:.10f} y_plus={yb.y_plus:.10f} "
           f"runtime={elapsed * 1e6:.0f}us")


def test_criterion_2_equality_theorem():
    t0 = time.perf_counter()
    lines, passed = checks.equality(seed=SEED)
    elapsed = time.perf_counter() - t0
    assert passed, lines
    assert elapsed < 10.0
    report(f"criterion 2: PASS — max |m - M| = {lines['equality_max_gap']:.3e} over 99 deltas "
           f"(tol {lines['equality_tol']:g}), runtime={elapsed:.2f}s")


def test_criterion_3_oracle_triangulation():
    t0 = time.perf_counter()
    mm_lines, mm_passed = checks.minimax_oracle(seed=SEED)
    tl_lines, tl_passed = checks.two_level_oracle(seed=SEED)
    elapsed = time.perf_counter() - t0
    assert mm_passed, mm_lines
    assert tl_passed, tl_lines
    assert elapsed < 60.0
    report(f"criterion 3: PASS — minimax err {mm_lines['minimax_oracle_max_err']:.3e} "
           f"(tol {mm_lines['minimax_oracle_tol']:g}), two-level err "
           f"{tl_lines['two_level_oracle_max_err']:.3e}, runtime={elapsed:.2f}s")


def test_criterion_4_endpoints():
    assert abs(bounds.alpha(0.0) - 1.0) <= 1e-12
    assert abs(bounds.alpha(1.0)) <= 1e-12
    assert abs(bounds.mt_alpha(0.0) - math.pi / 2) <= 1e-12
    assert abs(bounds.mt_alpha(1.0)) <= 1e-12
    report("criterion 4: PASS — alpha(0)=1, alpha(1)=0, mt(0)=pi/2, mt(1)=0 within 1e-12")


def test_criterion_5_tangent_inequality():
    t0 = time.perf_counter()
    lines, passed = checks.tangent_inequality(seed=2024)
    elapsed = time.perf_counter() - t0
    assert passed, lines
    assert elapsed < 10.0
    report(f"criterion 5: PASS — grid min = {lines['tangent_inequality_min']:.3e}, tangency "
           f"residual = {lines['tangent_tightness_max']:.3e} over 1000 seeded q, "
           f"runtime={elapsed:.2f}s")


def test_criterion_6_arc_gaps():
    # each gap is s/(2 sin psi) * h(2*psi) with s >= 0 at every delta, so the check samples
    # the two delta-free h, each on its fixed interval, and their values at y+- are roundings
    lines, passed = checks.arc_gaps(seed=SEED)
    assert passed, lines
    assert lines["arc_gap_boundary_max"] <= 1e-14
    report(f"criterion 6: PASS — arc-gap min = {lines['arc_gap_min']:.3e}, "
           f"boundary residual = {lines['arc_gap_boundary_max']:.3e}")


def test_criterion_7_speed_limit_monte_carlo():
    t0 = time.perf_counter()
    rep = qsim.verify_limits(10_000, 8, seed=7)
    elapsed = time.perf_counter() - t0
    assert rep["violations"] == 0
    assert rep["designed_violations"] == 0
    assert rep["min_ml_slack"] >= -1e-9
    assert rep["min_mt_slack"] >= -1e-9
    assert rep["designed_max_rel_slack"] <= 1e-6
    assert rep["overall"] == "pass"
    assert elapsed < 30.0
    report(f"criterion 7: PASS — {rep['checks']} checks, {rep['skips']} skips, "
           f"0 violations, designed slack {rep['designed_max_rel_slack']:.2e}, "
           f"runtime={elapsed:.1f}s")


def test_criterion_8_derivative_checks():
    # the closed-form derivatives of the paper against central differences of the shipped maps
    rng = np.random.default_rng(77)
    yb = rootfind.y_bounds()

    def close(analytic, fd):
        return abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic), abs(fd))

    # dq/dy = y (y - sin y)/(sin y - y cos y)^2 against q(y)
    h = 1e-6
    for y in rng.uniform(yb.y_minus + 1e-3, yb.y_plus - 0.1, 100):
        fd = (tangent.q_of_y(y + h) - tangent.q_of_y(y - h)) / (2 * h)
        assert close(y * (y - math.sin(y)) / (math.sin(y) - y * math.cos(y)) ** 2, fd)

    # da/dq = -sin(y)/y at y = y(q) against the composed a(q)
    for q in rng.uniform(0.01, 50.0, 100):
        hq = 1e-5 * max(1.0, q)
        fd = (tangent.a_of_q(q + hq) - tangent.a_of_q(q - hq)) / (2 * hq)
        y = tangent.y_of_q(float(q))
        assert close(-math.sin(y) / y, fd)

    # dF/dy = r (y - sin y)(cos phi - cos(phi + y))/(1 - cos y)^2 against F(y),
    # at random circle points
    for _ in range(100):
        theta, delta = rng.uniform(0, 2 * math.pi), rng.uniform(0, 0.95)
        rho, sigma = 1.0 - math.sqrt(delta) * math.cos(theta), math.sqrt(delta) * math.sin(theta)
        r, phi = math.hypot(rho, sigma), math.atan2(rho, sigma)
        y = float(rng.uniform(yb.y_minus + 1e-3, yb.y_plus - 1e-3))
        fd = (bounds.F_of_y(y + h, rho, sigma) - bounds.F_of_y(y - h, rho, sigma)) / (2 * h)
        dF_dy = (r * (y - math.sin(y)) * (math.cos(phi) - math.cos(phi + y))
                 / (1.0 - math.cos(y)) ** 2)
        assert close(dF_dy, fd)

    report("criterion 8: PASS — dq/dy, da/dq, dF/dy match central differences of q(y), a(q), "
           "F(y) within 1e-6 relative at 100 points each")
