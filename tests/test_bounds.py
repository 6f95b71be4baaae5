import math

import numpy as np
import pytest

from qsl import bounds, checks
from qsl.errors import CaseError, DomainError
from qsl.rootfind import y_bounds

YB = y_bounds()


def grid_max_F(point, n=65536):
    # independent brute-force maximum over the closed y interval
    y = np.linspace(YB.y_minus, YB.y_plus, n)
    cy, sy = np.cos(y), np.sin(y)
    f = (point.rho * (sy - y * cy) + point.sigma * (1.0 - cy - y * sy)) / (1.0 - cy)
    return float(f.max())


class TestRhoSigma:
    def test_delta_zero_center(self):
        p = bounds.rho_sigma(0.0, 0.0)
        assert (p.rho, p.sigma) == (1.0, 0.0)
        assert p.phi == pytest.approx(math.pi / 2, abs=1e-15)

    def test_theta_pi(self):
        p = bounds.rho_sigma(math.pi, 0.25)
        assert p.rho == pytest.approx(1.5, abs=1e-15)
        assert abs(p.sigma) < 1e-15
        assert p.phi == pytest.approx(math.pi / 2, abs=1e-12)

    def test_theta_three_half_pi(self):
        p = bounds.rho_sigma(1.5 * math.pi, 0.25)
        assert p.rho == pytest.approx(1.0, abs=1e-15)
        assert p.sigma == pytest.approx(-0.5, abs=1e-15)
        assert p.phi == pytest.approx(math.acos(-0.5 / math.sqrt(1.25)), abs=1e-12)

    def test_degenerate(self):
        p = bounds.rho_sigma(0.0, 1.0)
        assert p.degenerate
        assert math.isnan(p.phi)

    def test_circle_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            theta = float(rng.uniform(0, 2 * math.pi))
            delta = float(rng.uniform(0, 1))
            p = bounds.rho_sigma(theta, delta)
            assert (p.rho - 1.0) ** 2 + p.sigma**2 == pytest.approx(delta, abs=1e-12)
            assert p.rho >= 0.0

    def test_invalid_delta(self):
        with pytest.raises(DomainError):
            bounds.rho_sigma(0.0, 1.5)


class TestFofY:
    def test_unit_point_at_pi(self):
        p = bounds.rho_sigma(0.0, 0.0)
        assert bounds.F_of_y(math.pi, p) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_y_plus_limit(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = bounds.rho_sigma(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 0.99)))
            expected = -p.sigma / math.cos(YB.y_plus)
            assert bounds.F_of_y(YB.y_plus, p) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("theta,delta", [(0.0, 0.0), (2.1, 0.4)])
    def test_angular_form_agrees(self, theta, delta):
        # the polar rewrite of the same function must match pointwise
        p = bounds.rho_sigma(theta, delta)
        r, phi = p.radius, p.phi
        for y in np.linspace(YB.y_minus, YB.y_plus, 500):
            angular = r * (math.cos(phi) - math.cos(phi + y) - y * math.sin(phi + y)) / (1.0 - math.cos(y))
            assert bounds.F_of_y(float(y), p) == pytest.approx(angular, abs=1e-12)

    def test_domain(self):
        p = bounds.rho_sigma(0.0, 0.0)
        with pytest.raises(DomainError):
            bounds.F_of_y(1.0, p)


def dF_dy(y, p):
    """r (y - sin y)(cos phi - cos(phi + y))/(1 - cos y)^2, the derivative behind the case split."""
    return (p.radius * (y - math.sin(y)) * (math.cos(p.phi) - math.cos(p.phi + y))
            / (1.0 - math.cos(y)) ** 2)


class TestDFdy:
    # the sign of dF/dy decides the case split; checked here against the shipped F_of_y

    def test_stationary_at_pi_for_phi_half_pi(self):
        p = bounds.rho_sigma(0.0, 0.0)  # phi = pi/2
        h = 1e-5
        assert abs(bounds.F_of_y(math.pi + h, p) - bounds.F_of_y(math.pi - h, p)) / (2 * h) < 1e-9

    def test_matches_finite_difference(self):
        p = bounds.CirclePoint(rho=1.2, sigma=-0.3, phi=math.atan2(1.2, -0.3))
        y, h = 3.0, 1e-6
        fd = (bounds.F_of_y(y + h, p) - bounds.F_of_y(y - h, p)) / (2 * h)
        assert abs(dF_dy(y, p) - fd) / abs(fd) < 1e-6

    def test_positive_for_small_phi(self):
        # phi = 0.1 lies below the stationary window: F increases throughout
        phi = 0.1
        p = bounds.CirclePoint(rho=math.sin(phi), sigma=math.cos(phi), phi=phi)
        values = [bounds.F_of_y(float(y), p) for y in np.linspace(YB.y_minus, YB.y_plus, 300)]
        assert all(f1 < f2 for f1, f2 in zip(values, values[1:]))


class TestStationaryY:
    def test_half_pi(self):
        assert bounds.stationary_y(math.pi / 2) == pytest.approx(math.pi, abs=1e-15)

    def test_below_window(self):
        assert bounds.stationary_y(0.1) is None

    def test_boundary_included(self):
        phi = math.pi - YB.y_minus / 2
        assert bounds.stationary_y(phi) == pytest.approx(YB.y_minus, abs=1e-12)

    def test_lower_boundary_excluded(self):
        assert bounds.stationary_y(math.pi - YB.y_plus / 2) is None


class TestFmaxAtPoint:
    def test_unit_point(self):
        p = bounds.rho_sigma(0.0, 0.0)
        assert bounds.f_max_at_point(p) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 100:
            p = bounds.rho_sigma(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 0.9)))
            if bounds.stationary_y(p.phi) is None:
                continue
            ratio_form = (p.radius**2 / p.rho) * math.acos(-p.sigma / p.radius)
            assert bounds.f_max_at_point(p) == pytest.approx(ratio_form, abs=1e-12)
            checked += 1

    def test_second_derivative_negative_at_stationary_point(self):
        # curvature factor (y - sin y) sin(phi + y) / (1 - cos y)^2 at y = 2pi - 2phi
        for phi in np.linspace(math.pi - YB.y_plus / 2 + 1e-3, math.pi - YB.y_minus / 2, 50):
            y = 2 * math.pi - 2 * phi
            curv = (y - math.sin(y)) * math.sin(phi + y) / (1 - math.cos(y)) ** 2
            assert curv < 0.0

    def test_outside_window_rejected(self):
        phi = 0.2
        p = bounds.CirclePoint(rho=math.sin(phi), sigma=math.cos(phi), phi=phi)
        with pytest.raises(CaseError):
            bounds.f_max_at_point(p)

    def test_degenerate_rejected(self):
        p = bounds.rho_sigma(0.0, 1.0)
        with pytest.raises(DomainError):
            bounds.f_max_at_point(p)


class TestEndpointCases:
    def test_F_AB_zero(self):
        assert bounds.F_AB(0.0) == 0.0

    def test_F_CD_zero(self):
        assert bounds.F_CD(0.0) == 0.0

    def test_F_AB_matches_endpoint_value(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            p = bounds.rho_sigma(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 0.99)))
            assert bounds.F_AB(p.sigma) == pytest.approx(bounds.F_of_y(YB.y_plus, p), abs=1e-10)

    def test_F_CD_matches_endpoint_value(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            p = bounds.rho_sigma(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 0.99)))
            assert bounds.F_CD(p.rho) == pytest.approx(bounds.F_of_y(YB.y_minus, p), abs=1e-10)

    def test_F_AB_is_grid_max_below_window(self):
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 20:
            p = bounds.rho_sigma(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.5, 0.99)))
            if p.degenerate or p.phi >= math.pi - YB.y_plus / 2:
                continue
            assert bounds.F_AB(p.sigma) == pytest.approx(grid_max_F(p), abs=1e-6)
            checked += 1

    def test_F_CD_is_grid_max_above_window(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 20:
            p = bounds.rho_sigma(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.2, 0.99)))
            if p.degenerate or p.phi <= math.pi - YB.y_minus / 2:
                continue
            assert bounds.F_CD(p.rho) == pytest.approx(grid_max_F(p), abs=1e-6)
            checked += 1


class TestMaxFOverQ:
    def test_unit_point(self):
        assert bounds.max_F_over_q(bounds.rho_sigma(0.0, 0.0)) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_degenerate_point(self):
        assert bounds.max_F_over_q(bounds.rho_sigma(0.0, 1.0)) == 0.0

    def test_case_consistency_with_grid(self):
        rng = np.random.default_rng(59)
        for _ in range(1000):
            p = bounds.rho_sigma(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 1)))
            if p.degenerate:
                continue
            assert bounds.max_F_over_q(p) == pytest.approx(grid_max_F(p), abs=1e-6)


class TestBoundFunctions:
    def test_lower_bound_endpoints(self):
        assert bounds.lower_bound_m(0.0, 64) == pytest.approx(1.0, abs=1e-12)
        assert bounds.lower_bound_m(1.0, 64) == pytest.approx(0.0, abs=1e-12)

    def test_equality_at_quarter(self):
        assert abs(bounds.lower_bound_m(0.25) - bounds.upper_bound_M(0.25)) <= 1e-7

    def test_sigma_restriction_matches_full_circle(self):
        # the search over theta in [pi, 2pi] must agree with a full-circle scan
        for delta in (0.1, 0.45, 0.8):
            m = bounds.lower_bound_m(delta, 512)
            thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
            full = (2.0 / math.pi) * min(
                bounds.max_F_over_q(bounds.rho_sigma(float(t), delta)) for t in thetas
            )
            assert m <= full + 1e-9
            assert full - m <= 1e-4  # grid-limited agreement

    def test_invalid_delta(self):
        with pytest.raises(DomainError):
            bounds.lower_bound_m(-0.1)
        with pytest.raises(DomainError):
            bounds.upper_bound_M(1.1)

    def test_f_max_closed_endpoints(self):
        assert bounds.f_max_closed(0.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert bounds.f_max_closed(1.0, 1.0) == 0.0

    def test_f_max_closed_domain(self):
        with pytest.raises(DomainError):
            bounds.f_max_closed(0.25, 0.6)

    @pytest.mark.parametrize("delta,omega", [(0.25, 0.1), (0.5, -0.3), (0.81, 0.4), (0.09, 0.0)])
    def test_closed_form_chain(self, delta, omega):
        # polar, omega, half-angle and z forms all express the same maximum
        omega_form = ((1 - 2 * omega + delta) / (1 - omega)) * math.acos(
            math.sqrt(delta - omega**2) / math.sqrt(1 - 2 * omega + delta)
        )
        half_angle_form = ((1 - 2 * omega + delta) / (2 * (1 - omega))) * math.acos(
            (delta - 1 + 2 * omega - 2 * omega**2) / (1 - 2 * omega + delta)
        )
        z_form = bounds.f_max_closed(delta, bounds.omega_to_z(omega, delta))
        rho = 1.0 - omega
        sigma = -math.sqrt(delta - omega**2)  # the sigma <= 0 representative
        r2 = rho * rho + sigma * sigma
        polar_form = (r2 / rho) * math.acos(-sigma / math.sqrt(r2))
        assert polar_form == pytest.approx(omega_form, abs=1e-12)
        assert omega_form == pytest.approx(half_angle_form, abs=1e-12)
        assert half_angle_form == pytest.approx(z_form, abs=1e-12)

    def test_evaluate_bounds_ranges(self):
        for delta in (0.0, 0.2, 0.55, 0.95, 1.0):
            m = bounds.lower_bound_m(delta, 128)
            big_m = bounds.upper_bound_M(delta)
            assert 0.0 <= big_m <= 1.0
            assert 0.0 <= m <= 1.0
            assert abs(m - big_m) <= 1e-10

    def test_upper_bound_endpoints(self):
        assert bounds.upper_bound_M(0.0) == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper_bound_M(1.0) == pytest.approx(0.0, abs=1e-12)


def alpha_mp(delta):
    """(2/pi) * min of the closed form at 40 digits, by golden-section search
    over the whole of [-sqrt(d), sqrt(d)]."""
    mpmath = pytest.importorskip("mpmath")
    if delta in (0.0, 1.0):
        return 1.0 - delta
    with mpmath.workdps(40):
        d = mpmath.mpf(delta)

        def objective(z):
            arg = (2 * d - 1 - z * z) / (1 - z * z)
            return (1 + z) / 2 * mpmath.acos(min(max(arg, -1), 1))

        lo, hi = -mpmath.sqrt(d), mpmath.sqrt(d)
        ratio = (mpmath.sqrt(5) - 1) / 2
        for _ in range(200):
            z1, z2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            lo, hi = (lo, z2) if objective(z1) <= objective(z2) else (z1, hi)
        return float(2 / mpmath.pi * objective((lo + hi) / 2))


# 64 points of [0, 1] and 32 of [1 - 10^-1, 1 - 10^-16], log-spaced in 1 - delta
DENSE_DELTAS = np.concatenate([np.linspace(0.0, 1.0, 64), 1.0 - np.logspace(-1, -16, 32)])


class TestAlpha:
    def test_endpoints(self):
        assert bounds.alpha(0.0) == 1.0
        assert bounds.alpha(1.0) == 0.0

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [bounds.alpha(float(d)) for d in grid]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    @pytest.mark.parametrize("delta", [d for k in range(1, 17)
                                       for d in (10.0 ** -k, 1 - 10.0 ** -k)] + [0.999999])
    def test_matches_high_precision_closed_form(self, delta):
        assert abs(bounds.alpha(delta) - alpha_mp(delta)) <= 1e-14

    def test_matches_high_precision_closed_form_dense(self):
        got = bounds.alpha(DENSE_DELTAS)
        err = [abs(a - alpha_mp(float(d))) for d, a in zip(DENSE_DELTAS, got)]
        assert max(err) <= 1e-14

    def test_array_equals_scalar_calls_bit_for_bit(self):
        deltas = np.concatenate([DENSE_DELTAS, [1e-300, 1e-16, 0.37, 0.5]])
        values, zs = bounds._upper_bound_argmin(deltas)
        assert values.tolist() == [bounds.upper_bound_M(float(d)) for d in deltas]
        assert zs.tolist() == [bounds._upper_bound_argmin(float(d))[1] for d in deltas]
        grid = deltas.reshape(4, -1)
        assert bounds.alpha(grid).tolist() == values.reshape(4, -1).tolist()

    def test_argmin_is_the_minimum(self):
        # no point of a dense z grid beats the returned minimizer
        for delta in (1e-6, 0.3, 0.77, 1 - 1e-9):
            value, z = bounds._upper_bound_argmin(delta)
            root = math.sqrt(delta)
            zs = np.linspace(-root, root, 20001)
            grid = (2 / math.pi) * min(bounds.f_max_closed(delta, float(x)) for x in zs)
            assert value <= grid + 1e-15
            assert (2 / math.pi) * bounds.f_max_closed(delta, z) == pytest.approx(value, abs=1e-15)

    def test_endpoint_minimizers(self):
        assert bounds._upper_bound_argmin(0.0) == (1.0, 0.0)
        assert bounds._upper_bound_argmin(1.0) == (0.0, -1.0)

    def test_invalid_delta_in_array(self):
        with pytest.raises(DomainError):
            bounds.alpha(np.array([0.2, 1.5]))
        with pytest.raises(DomainError):
            bounds.alpha(math.nan)


class TestMTAlpha:
    @pytest.mark.parametrize(
        "delta,expected", [(0.0, math.pi / 2), (1.0, 0.0), (0.5, math.pi / 4)]
    )
    def test_values(self, delta, expected):
        assert bounds.mt_alpha(delta) == pytest.approx(expected, abs=1e-12)

    def test_decreasing_and_vanishing(self):
        grid = np.linspace(0.0, 1.0, 101)
        mt = [bounds.mt_alpha(float(d)) for d in grid]
        al = [bounds.alpha(float(d)) for d in grid]
        assert all(v1 > v2 for v1, v2 in zip(mt, mt[1:]))
        assert mt[-1] <= 1e-12 and al[-1] <= 1e-12


class TestOmegaToZ:
    def test_endpoint_exchange(self):
        delta = 0.49
        root = math.sqrt(delta)
        assert bounds.omega_to_z(root, delta) == pytest.approx(-root, abs=1e-14)
        assert bounds.omega_to_z(-root, delta) == pytest.approx(root, abs=1e-14)

    def test_fixed_zero(self):
        assert bounds.omega_to_z(0.25, 0.25) == 0.0

    def test_bijection(self):
        for delta in (0.1, 0.5, 0.9):
            root = math.sqrt(delta)
            omegas = np.linspace(-root, root, 101)
            zs = [bounds.omega_to_z(float(w), delta) for w in omegas]
            assert all(z1 > z2 for z1, z2 in zip(zs, zs[1:]))  # strictly decreasing
            assert all(abs(z) <= root + 1e-12 for z in zs)

    def test_array_matches_scalar(self):
        delta = 0.37
        omegas = np.linspace(-math.sqrt(delta), math.sqrt(delta), 257)
        zs = bounds.omega_to_z(omegas, delta)
        assert zs.tolist() == [bounds.omega_to_z(float(w), delta) for w in omegas]

    def test_invalid(self):
        with pytest.raises(DomainError):
            bounds.omega_to_z(0.9, 0.25)
        with pytest.raises(DomainError):
            bounds.omega_to_z(np.array([0.0, 0.9]), 0.25)


def direct_arc_coords(psi, delta, branch):
    s = math.sqrt(delta - math.cos(psi) ** 2)
    rho = math.sin(psi) ** 2 + branch * math.sin(psi) * s
    sigma = -math.sin(psi) * math.cos(psi) - branch * math.cos(psi) * s
    return rho, sigma


class TestArcGaps:
    def test_AB_vanishes_at_boundary(self):
        for delta in (0.6, 0.9):
            for branch in (1, -1):
                assert abs(bounds.arc_gap_AB(YB.y_plus / 2, delta, branch)) <= 1e-12

    def test_CD_vanishes_at_boundary(self):
        for delta in (0.2, 0.6, 0.9):
            for branch in (1, -1):
                assert abs(bounds.arc_gap_CD(YB.y_minus / 2, delta, branch)) <= 1e-12

    def test_AB_interior_positive(self):
        _, lo, hi, _ = checks.arcs(0.9)[0]
        for psi in np.linspace(lo + 1e-3, hi, 200):
            assert bounds.arc_gap_AB(float(psi), 0.9, 1) > 0.0

    def test_CD_interior_positive(self):
        _, lo, hi, _ = checks.arcs(0.9)[1]
        for psi in np.linspace(lo, hi - 1e-3, 200):
            assert bounds.arc_gap_CD(float(psi), 0.9, 1) > 0.0

    def test_AB_matches_direct_subtraction(self):
        delta = 0.8
        _, lo, hi, _ = checks.arcs(delta)[0]
        for branch in (1, -1):
            for psi in np.linspace(lo + 1e-4, hi - 1e-4, 100):
                rho, sigma = direct_arc_coords(float(psi), delta, branch)
                f_max = (2.0 + (delta - 1.0) / rho) * psi
                f_ab = -(sigma) / math.cos(YB.y_plus)
                gap = bounds.arc_gap_AB(float(psi), delta, branch)
                assert gap == pytest.approx(f_max - f_ab, abs=1e-10)

    def test_CD_matches_direct_subtraction(self):
        delta = 0.5
        _, lo, hi, _ = checks.arcs(delta)[1]
        for branch in (1, -1):
            for psi in np.linspace(lo + 1e-4, hi - 1e-4, 100):
                rho, sigma = direct_arc_coords(float(psi), delta, branch)
                f_max = (2.0 + (delta - 1.0) / rho) * psi
                f_cd = rho / math.sin(YB.y_minus)
                gap = bounds.arc_gap_CD(float(psi), delta, branch)
                assert gap == pytest.approx(f_max - f_cd, abs=1e-10)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            bounds.arc_gap_AB(0.5, 0.9)
        with pytest.raises(DomainError):
            bounds.arc_gap_CD(2.0, 0.9)
        with pytest.raises(DomainError):
            bounds.arc_gap_CD(0.2, 0.1)  # cos^2(psi) > delta
