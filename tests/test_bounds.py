import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qsl import bounds, kernels
from qsl.errors import DomainError
from qsl.rootfind import y_bounds
from fit_alpha_start import fit
from inner_objective import F_of_y

YB = y_bounds()
PHI_AB = math.pi - YB.y_plus / 2  # the stationary window is PHI_AB < phi <= PHI_CD
PHI_CD = math.pi - YB.y_minus / 2


def circle(theta, delta):
    """(rho, sigma, phi) of the circle point at angle theta, formed independently of bounds."""
    rho = 1.0 - np.sqrt(delta) * np.cos(theta)
    sigma = np.sqrt(delta) * np.sin(theta)
    return rho, sigma, np.arctan2(rho, sigma)


def point_at(phi):
    """(theta, delta) of the circle point (sin^2 phi, sin phi cos phi), whose angle is phi."""
    return (phi if phi <= math.pi / 2 else phi + math.pi), math.cos(phi) ** 2


def grid_max_F(rho, sigma, n=65536):
    # independent brute-force maximum over the closed y interval, 50 points at a time
    y = np.linspace(YB.y_minus, YB.y_plus, n)
    cy, sy = np.cos(y), np.sin(y)
    fa, fb = (sy - y * cy) / (1.0 - cy), (1.0 - cy - y * sy) / (1.0 - cy)
    rho, sigma = np.atleast_1d(rho), np.atleast_1d(sigma)
    return np.concatenate([np.max(rho[k:k + 50, None] * fa + sigma[k:k + 50, None] * fb, axis=1)
                           for k in range(0, rho.size, 50)])


def seeded_points(seed, count, delta_lo, delta_hi):
    """``count`` seeded circle angles and fidelities, drawn in (theta, delta) pairs."""
    u = np.random.default_rng(seed).random((count, 2))
    return 2 * math.pi * u[:, 0], delta_lo + (delta_hi - delta_lo) * u[:, 1]


def resolved(theta, delta):
    return np.array([bounds.max_F_over_q(float(t), float(d)) for t, d in zip(theta, delta)])


class TestRhoSigma:
    # the circle coordinates max_F_over_q forms from (theta, delta)

    def test_delta_zero_center(self):
        # every theta maps to (rho, sigma) = (1, 0), phi = pi/2
        values = bounds.max_F_over_q(np.linspace(0.0, 2 * math.pi, 17), 0.0)
        assert np.allclose(values, math.pi / 2, rtol=0.0, atol=1e-15)

    def test_theta_pi(self):
        # (rho, sigma) = (1.5, 0): phi = pi/2, r = 1.5
        assert bounds.max_F_over_q(math.pi, 0.25) == pytest.approx(1.5 * math.pi / 2, abs=1e-12)

    def test_theta_three_half_pi(self):
        # (rho, sigma) = (1, -0.5): phi = acos(-0.5/sqrt(1.25)) lies above the window
        assert math.acos(-0.5 / math.sqrt(1.25)) > PHI_CD
        value = bounds.max_F_over_q(1.5 * math.pi, 0.25)
        assert value == pytest.approx(1.0 / math.sin(YB.y_minus), abs=1e-12)
        assert value == pytest.approx(F_of_y(YB.y_minus, 1.0, -0.5), abs=1e-12)

    def test_degenerate(self):
        # rho = sigma = 0 at theta = 0 takes the value 0; every other point stays finite
        values = bounds.max_F_over_q(np.linspace(0.0, 2 * math.pi, 9), 1.0)
        assert values[0] == 0.0
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)

    def test_invalid_delta(self):
        with pytest.raises(DomainError):
            bounds.max_F_over_q(0.0, 1.5)


class TestFofY:
    def test_unit_point_at_pi(self):
        assert F_of_y(math.pi, 1.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_y_plus_limit(self):
        rho, sigma, _ = circle(*seeded_points(9, 50, 0.0, 0.99))
        expected = -sigma / math.cos(YB.y_plus)
        for r, s, e in zip(rho, sigma, expected):
            assert F_of_y(YB.y_plus, r, s) == pytest.approx(e, abs=1e-10)

    @pytest.mark.parametrize("theta,delta", [(0.0, 0.0), (2.1, 0.4)])
    def test_angular_form_agrees(self, theta, delta):
        # the polar rewrite of the same function must match pointwise
        rho, sigma, phi = circle(theta, delta)
        r = math.hypot(rho, sigma)
        y = np.linspace(YB.y_minus, YB.y_plus, 500)
        angular = r * (np.cos(phi) - np.cos(phi + y) - y * np.sin(phi + y)) / (1.0 - np.cos(y))
        assert np.allclose(F_of_y(y, rho, sigma), angular, rtol=0.0, atol=1e-12)


def dF_dy(y, rho, sigma):
    """r (y - sin y)(cos phi - cos(phi + y))/(1 - cos y)^2, the derivative behind the case split."""
    r, phi = math.hypot(rho, sigma), math.atan2(rho, sigma)
    return r * (y - math.sin(y)) * (math.cos(phi) - math.cos(phi + y)) / (1.0 - math.cos(y)) ** 2


class TestDFdy:
    # the sign of dF/dy decides the case split; checked here against F_of_y

    def test_stationary_at_pi_for_phi_half_pi(self):
        h = 1e-5  # (rho, sigma) = (1, 0): phi = pi/2
        fd = (F_of_y(math.pi + h, 1.0, 0.0) - F_of_y(math.pi - h, 1.0, 0.0)) / (2 * h)
        assert abs(fd) < 1e-9

    def test_matches_finite_difference(self):
        y, h = 3.0, 1e-6
        fd = (F_of_y(y + h, 1.2, -0.3) - F_of_y(y - h, 1.2, -0.3)) / (2 * h)
        assert abs(dF_dy(y, 1.2, -0.3) - fd) / abs(fd) < 1e-6

    def test_positive_for_small_phi(self):
        # phi = 0.1 lies below the stationary window: F increases throughout
        phi = 0.1
        y = np.linspace(YB.y_minus, YB.y_plus, 300)
        values = F_of_y(y, math.sin(phi), math.cos(phi))
        assert np.all(np.diff(values) > 0.0)


class TestStationaryY:
    # where the maximum of F_of_y over y lies: y = 2*pi - 2*phi inside the window, an end outside

    def test_half_pi(self):
        y = np.linspace(YB.y_minus, YB.y_plus, 4097)
        assert abs(y[np.argmax(F_of_y(y, 1.0, 0.0))] - math.pi) <= y[1] - y[0]
        assert bounds.max_F_over_q(0.0, 0.0) == pytest.approx(
            F_of_y(math.pi, 1.0, 0.0), abs=1e-14)

    def test_below_window(self):
        theta, delta = point_at(0.1)
        rho, sigma, _ = circle(theta, delta)
        y = np.linspace(YB.y_minus, YB.y_plus, 4097)
        assert np.argmax(F_of_y(y, rho, sigma)) == y.size - 1
        assert bounds.max_F_over_q(theta, delta) == pytest.approx(
            F_of_y(YB.y_plus, rho, sigma), abs=1e-12)

    def test_boundary_included(self):
        # at phi = pi - y_minus/2 the stationary point reaches y_minus: both forms agree there
        theta, delta = point_at(PHI_CD)
        rho, sigma, _ = circle(theta, delta)
        edge = rho / math.sin(YB.y_minus)
        assert bounds.stationary_max(rho, sigma) == pytest.approx(edge, abs=1e-12)
        assert bounds.max_F_over_q(theta, delta) == pytest.approx(edge, abs=1e-12)

    def test_lower_boundary_excluded(self):
        # at phi = pi - y_plus/2 the stationary point reaches y_plus: both forms agree there
        theta, delta = point_at(PHI_AB)
        rho, sigma, _ = circle(theta, delta)
        edge = -sigma / math.cos(YB.y_plus)
        assert bounds.stationary_max(rho, sigma) == pytest.approx(edge, abs=1e-12)
        assert bounds.max_F_over_q(theta, delta) == pytest.approx(edge, abs=1e-12)


class TestFmaxAtPoint:
    # bounds.stationary_max, the interior maximum of the window

    def test_unit_point(self):
        assert bounds.stationary_max(1.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_two_forms_agree(self):
        rho, sigma, phi = circle(*seeded_points(31, 400, 0.0, 0.9))
        inside = (PHI_AB < phi) & (phi <= PHI_CD)
        rho, sigma = rho[inside][:100], sigma[inside][:100]
        assert rho.size == 100
        r = np.hypot(rho, sigma)
        ratio_form = (r * r / rho) * np.arccos(-sigma / r)
        assert np.allclose(bounds.stationary_max(rho, sigma), ratio_form, rtol=0.0, atol=1e-12)

    def test_second_derivative_negative_at_stationary_point(self):
        # curvature factor (y - sin y) sin(phi + y) / (1 - cos y)^2 at y = 2pi - 2phi
        for phi in np.linspace(PHI_AB + 1e-3, PHI_CD, 50):
            y = 2 * math.pi - 2 * phi
            curv = (y - math.sin(y)) * math.sin(phi + y) / (1 - math.cos(y)) ** 2
            assert curv < 0.0

    def test_outside_window_rejected(self):
        # at phi = 0.2 the stationary form overshoots; the resolved maximum is the y_plus value
        theta, delta = point_at(0.2)
        rho, sigma, _ = circle(theta, delta)
        value = bounds.max_F_over_q(theta, delta)
        assert value == pytest.approx(-sigma / math.cos(YB.y_plus), abs=1e-12)
        assert value < bounds.stationary_max(rho, sigma) - 1e-3

    def test_degenerate_rejected(self):
        # rho = sigma = 0 has no stationary maximum; max_F_over_q sends it to the AB case
        with np.errstate(invalid="ignore"):
            assert math.isnan(bounds.stationary_max(0.0, 0.0))
        assert bounds.max_F_over_q(0.0, 1.0) == 0.0


class TestEndpointCases:
    def test_F_AB_zero(self):
        # the AB value -sigma/cos(y_plus) vanishes as the point nears the origin along AB
        t = np.array([1e-3, 1e-6, 1e-9])
        assert np.all(circle(t, 1.0)[2] <= PHI_AB)
        values = bounds.max_F_over_q(t, 1.0)
        assert np.allclose(values, -np.sin(t) / math.cos(YB.y_plus), rtol=1e-12, atol=0.0)
        assert values[-1] < 1e-8

    def test_F_CD_zero(self):
        # the CD value rho/sin(y_minus) vanishes as the point nears the origin along CD
        t = np.array([1e-3, 1e-6, 1e-9])
        assert np.all(circle(2 * math.pi - t, 1.0)[2] > PHI_CD)
        values = bounds.max_F_over_q(2 * math.pi - t, 1.0)
        assert np.allclose(values, circle(2 * math.pi - t, 1.0)[0] / math.sin(YB.y_minus),
                           rtol=1e-12, atol=0.0)
        assert values[-1] < 1e-8

    def test_F_AB_matches_endpoint_value(self):
        theta, delta = seeded_points(41, 400, 0.5, 0.99)
        rho, sigma, phi = circle(theta, delta)
        ab = phi <= PHI_AB
        assert ab.sum() >= 50
        ends = [F_of_y(YB.y_plus, r, s) for r, s in zip(rho[ab], sigma[ab])]
        assert np.allclose(resolved(theta[ab], delta[ab]), ends, rtol=0.0, atol=1e-10)

    def test_F_CD_matches_endpoint_value(self):
        theta, delta = seeded_points(43, 400, 0.2, 0.99)
        rho, sigma, phi = circle(theta, delta)
        cd = phi > PHI_CD
        assert cd.sum() >= 50
        ends = [F_of_y(YB.y_minus, r, s) for r, s in zip(rho[cd], sigma[cd])]
        assert np.allclose(resolved(theta[cd], delta[cd]), ends, rtol=0.0, atol=1e-10)

    def test_F_AB_is_grid_max_below_window(self):
        theta, delta = seeded_points(47, 200, 0.5, 0.99)
        rho, sigma, phi = circle(theta, delta)
        ab = phi < PHI_AB
        assert ab.sum() >= 20
        assert np.allclose(resolved(theta[ab], delta[ab]), grid_max_F(rho[ab], sigma[ab]),
                           rtol=0.0, atol=1e-6)

    def test_F_CD_is_grid_max_above_window(self):
        theta, delta = seeded_points(53, 200, 0.2, 0.99)
        rho, sigma, phi = circle(theta, delta)
        cd = phi > PHI_CD
        assert cd.sum() >= 20
        assert np.allclose(resolved(theta[cd], delta[cd]), grid_max_F(rho[cd], sigma[cd]),
                           rtol=0.0, atol=1e-6)


class TestMaxFOverQ:
    def test_unit_point(self):
        assert bounds.max_F_over_q(0.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_degenerate_point(self):
        assert bounds.max_F_over_q(0.0, 1.0) == 0.0

    def test_case_consistency_with_grid(self):
        theta, delta = seeded_points(59, 1000, 0.0, 1.0)
        rho, sigma, _ = circle(theta, delta)
        assert np.allclose(resolved(theta, delta), grid_max_F(rho, sigma), rtol=0.0, atol=1e-6)

    def test_one_array_call_equals_point_calls(self):
        theta = np.linspace(0.0, 2 * math.pi, 257)
        for delta in (0.0, 0.3, 0.9, 1.0):
            values = bounds.max_F_over_q(theta, delta)
            assert values.tolist() == [bounds.max_F_over_q(float(t), delta) for t in theta]

    def test_delta_array_equals_point_calls(self):
        theta = np.linspace(math.pi, 2 * math.pi, 33)
        deltas = np.array([0.0, 1e-12, 0.3, 0.9, 1.0])
        values = bounds.max_F_over_q(theta, deltas[:, None])
        assert values.shape == (deltas.size, theta.size)
        assert values.tolist() == [[bounds.max_F_over_q(float(t), float(d)) for t in theta]
                                   for d in deltas]

    def test_one_bad_delta_raises(self):
        with pytest.raises(DomainError):
            bounds.max_F_over_q(0.0, np.array([0.5, 1.5, 0.2]))

    def test_case_split_matches_argmax_of_F_of_y(self):
        # the argmax of F_of_y over a fine grid lies at y_plus below the window, at
        # y_minus above it and within one grid step of 2*pi - 2*phi inside it
        y = np.linspace(YB.y_minus, YB.y_plus, 16385)
        theta, delta = seeded_points(61, 300, 0.05, 0.99)
        rho, sigma, phi = circle(theta, delta)
        cases = [0, 0, 0]
        for r, s, p in zip(rho, sigma, phi):
            at = y[np.argmax(F_of_y(y, r, s))]
            if p <= PHI_AB:
                assert at == y[-1]
                cases[0] += 1
            elif p > PHI_CD:
                assert at == y[0]
                cases[2] += 1
            else:
                assert abs(at - (2 * math.pi - 2 * p)) <= y[1] - y[0]
                cases[1] += 1
        assert min(cases) >= 20


def three_branch_reference(theta, delta):
    """max_F_over_q as one np.where over all three forms, each evaluated at every point."""
    root = np.sqrt(delta)
    rho = 1.0 - root * np.cos(theta)
    sigma = root * np.sin(theta)
    phi = np.arctan2(rho, sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(phi <= PHI_AB, -sigma / math.cos(YB.y_plus),
                        np.where(phi > PHI_CD, rho / math.sin(YB.y_minus),
                                 bounds.stationary_max(rho, sigma)))


class TestWindowOnlyStationaryForm:
    # max_F_over_q evaluates the stationary form only inside its window

    def test_dense_grid_equals_the_three_branch_reference(self):
        theta = np.linspace(0.0, 2 * math.pi, 1441)
        delta = np.linspace(0.0, 1.0, 201)[:, None]
        phi = circle(theta, delta)[2]
        assert (phi <= PHI_AB).sum() > 1000 and (phi > PHI_CD).sum() > 1000
        assert ((PHI_AB < phi) & (phi <= PHI_CD)).sum() > 1000
        with np.errstate(all="raise"):
            values = bounds.max_F_over_q(theta, delta)
        assert values.shape == (201, 1441)
        assert np.array_equal(values, three_branch_reference(theta, delta))

    @pytest.mark.parametrize("edge", [PHI_AB, PHI_CD])
    def test_points_at_the_window_edges_equal_the_reference(self, edge):
        # circle points whose angle lies within a few ulps of each edge, on both sides
        phis = edge + np.arange(-8, 9) * np.spacing(edge)
        theta, delta = map(np.array, zip(*[point_at(float(p)) for p in phis]))
        phi = circle(theta, delta)[2]
        assert np.any(phi <= edge) and np.any(phi > edge)
        with np.errstate(all="raise"):
            values = bounds.max_F_over_q(theta, delta)
            points = [bounds.max_F_over_q(float(t), float(d)) for t, d in zip(theta, delta)]
        reference = three_branch_reference(theta, delta)
        assert np.array_equal(values, reference)
        assert points == reference.tolist()

    @pytest.mark.parametrize("theta, delta", [(0.0, 0.0), (0.0, 1.0), (0.0, 0.5),
                                              (1.0, 0.0), (4.0, 1.0), (math.pi, 1.0)])
    def test_scalar_ends_equal_the_reference(self, theta, delta):
        with np.errstate(all="raise"):
            value = bounds.max_F_over_q(theta, delta)
        assert isinstance(value, float)
        assert value == float(three_branch_reference(theta, delta))

    def test_theta_zero_and_delta_ends_as_arrays(self):
        theta = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, 2 * math.pi])
        for delta in (0.0, 1.0, np.array([0.0, 1.0])[:, None]):
            with np.errstate(all="raise"):
                values = bounds.max_F_over_q(theta, delta)
            assert np.array_equal(values, three_branch_reference(theta, delta))
        with np.errstate(all="raise"):
            column = bounds.max_F_over_q(0.0, np.linspace(0.0, 1.0, 11))
        assert np.array_equal(column, three_branch_reference(0.0, np.linspace(0.0, 1.0, 11)))


class TestBoundFunctions:
    def test_lower_bound_endpoints(self):
        assert bounds.lower_bound_m(0.0) == pytest.approx(1.0, abs=1e-12)
        assert bounds.lower_bound_m(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_equality_at_quarter(self):
        assert abs(bounds.lower_bound_m(0.25) - bounds.upper_bound_M(0.25)) <= 1e-7

    def test_sigma_restriction_matches_full_circle(self):
        # the search over theta in [pi, 2pi] must agree with a full-circle scan
        for delta in (0.1, 0.45, 0.8):
            m = bounds.lower_bound_m(delta)
            thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
            full = (2.0 / math.pi) * float(bounds.max_F_over_q(thetas, delta).min())
            assert m <= full + 1e-9
            assert full - m <= 1e-4  # grid-limited agreement

    @pytest.mark.parametrize("n_theta", [256, 720])
    def test_lower_bound_array_equals_point_calls(self, monkeypatch, n_theta):
        # the shipped theta grid and a coarser one, with both endpoints of [0, 1]
        monkeypatch.setattr(bounds, "_N_THETA", n_theta)
        deltas = np.array([0.0, 1e-9, 0.05, 0.37, 0.5, 0.93, 1.0 - 1e-9, 1.0])
        values = bounds.lower_bound_m(deltas)
        assert values.tolist() == [bounds.lower_bound_m(float(d)) for d in deltas]
        assert bounds.lower_bound_m(deltas.reshape(2, 4)).tolist() == \
            values.reshape(2, 4).tolist()

    def test_lower_bound_scalar_in_scalar_out(self):
        value = bounds.lower_bound_m(0.3)
        assert np.ndim(value) == 0 and isinstance(value, float)

    def test_lower_bound_one_bad_delta_raises(self):
        with pytest.raises(DomainError):
            bounds.lower_bound_m(np.array([0.2, -0.1, 0.5]))

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
            m = bounds.lower_bound_m(delta)
            big_m = bounds.upper_bound_M(delta)
            assert 0.0 <= big_m <= 1.0
            assert 0.0 <= m <= 1.0
            assert abs(m - big_m) <= 1e-10

    def test_upper_bound_endpoints(self):
        assert bounds.upper_bound_M(0.0) == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper_bound_M(1.0) == pytest.approx(0.0, abs=1e-12)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "alpha_reference.json"


@pytest.fixture(scope="module")
def reference():
    """The stored deltas and their 50-digit alpha, as exact fractions."""
    table = json.loads(REFERENCE.read_text())["alpha"]
    return np.array([float(d) for d in table]), [Fraction(a) for a in table.values()]


class TestAgainstReference:
    # one call per bound over every delta of perfbench/alpha_reference.json

    def test_upper_bound_within_4_ulp(self, reference):
        deltas, exact = reference
        values = bounds.upper_bound_M(deltas)
        ulps = [abs(Fraction(v) - a) / Fraction(math.ulp(float(a)))
                for d, v, a in zip(deltas, values, exact) if 0.0 < d < 1.0]
        assert len(ulps) == deltas.size - 2
        assert max(ulps) <= 4
        assert bounds.upper_bound_M(np.array([0.0, 1.0])).tolist() == [1.0, 0.0]

    def test_lower_bound_within_two_ulp_of_one(self, reference):
        # m is 2.5e-16 off at most, but not a few ulps relative as delta -> 1: alpha
        # tends to 0 there, and about 200 stored delta above 0.5 are more than 4 ulp
        # off. Closing that takes a Newton solve for m, not its grid-and-golden search.
        deltas, exact = reference
        values = bounds.lower_bound_m(deltas)
        assert max(abs(Fraction(v) - a) for v, a in zip(values, exact)) <= Fraction(4.4e-16)


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

    def test_array_equals_scalar_calls_bit_for_bit(self, reference):
        # so alpha --delta and alpha --grid give the same value at the same delta
        deltas = np.concatenate([DENSE_DELTAS, [1e-300, 1e-16, 0.37, 0.5], reference[0],
                                 np.linspace(0.0, 1.0, 1001)])
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


def counted_solves(monkeypatch):
    """One count per kernels.newton solve from here on: its g evaluations on a nonempty set of rows."""
    solves, newton = [], kernels.newton

    def counting(g, *args):
        solves.append(0)
        index = len(solves) - 1

        def counted(t, rows):
            solves[index] += rows.size > 0
            return g(t, rows)

        return newton(counted, *args)

    monkeypatch.setattr(kernels, "newton", counting)
    return solves


class TestNewtonStart:
    # the fitted first guess bounds._START of _argmin_block's solve, written by
    # tests/fit_alpha_start.py

    def test_coefficients_are_the_fit(self):
        fitted = fit()
        assert len(fitted) == len(bounds._START)
        assert max(abs(a - b) for a, b in zip(fitted, bounds._START)) <= 1e-12

    def test_ends_are_the_closed_forms(self):
        # the fit imposes both ends exactly: atan(2/pi) at r = 0, and u0 with
        # u0 * atan(1/u0) = 1/2 at r = 1; what is left is the rounding of the sum
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            u0 = float(mpmath.findroot(lambda u: u * mpmath.atan(1 / u) - 0.5, 0.43))
            atan_2_pi = float(mpmath.atan(2 / mpmath.pi))
        assert (atan_2_pi, u0) == (0.5669115049410094, 0.42897790896417926)
        assert abs(bounds._START[0] - atan_2_pi) <= 1e-15
        assert abs(math.fsum(bounds._START) - u0) <= 1e-15

    def test_two_g_evaluations_per_scalar_alpha(self, monkeypatch, reference):
        deltas = np.concatenate([np.random.default_rng(28).random(2000),
                                 [10.0 ** -k for k in range(1, 16)],
                                 [1.0 - 10.0 ** -k for k in range(1, 16)], reference[0]])
        solves = counted_solves(monkeypatch)
        for d in deltas:
            bounds.alpha(float(d))
        assert len(solves) == deltas.size
        assert max(solves) <= 2

    def test_at_most_three_passes_for_a_table(self, monkeypatch):
        solves = counted_solves(monkeypatch)
        bounds.alpha(np.linspace(0.0, 1.0, 1001))
        assert len(solves) == 1 and solves[0] <= 3


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

    def test_array_delta_matches_scalar_calls(self):
        deltas = np.array([1e-6, 0.1, 0.37, 0.9, 1.0 - 1e-12])
        roots = np.sqrt(deltas)
        omegas = np.linspace(-roots, roots, 33, axis=1)
        zs = bounds.omega_to_z(omegas, deltas[:, None])
        assert zs.shape == (5, 33)
        for row, delta in enumerate(deltas.tolist()):
            assert zs[row].tolist() == [bounds.omega_to_z(float(w), delta) for w in omegas[row]]
        # one omega against a column of delta
        assert bounds.omega_to_z(0.25, deltas[2:]).tolist() == \
            [bounds.omega_to_z(0.25, d) for d in deltas[2:].tolist()]

    def test_array_delta_is_checked_per_pair(self):
        # |omega| = 0.5 fits sqrt(0.3) but not sqrt(0.2): the error names the first bad pair's |omega|
        with pytest.raises(DomainError, match=r"sqrt\(delta\), got 0.5"):
            bounds.omega_to_z(np.array([[0.1, -0.5], [0.1, 0.5]]), np.array([[0.3], [0.2]]))
        assert bounds.omega_to_z(np.array([0.1, -0.5]), np.array([0.3, 0.3])).shape == (2,)
        for bad in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError, match=f"delta must lie in \\[0, 1\\], got {bad}"):
                bounds.omega_to_z(np.zeros((2, 3)), np.array([[0.5], [bad]]))


def direct_arc_coords(psi, delta, branch):
    """(rho, sigma, s) of the circle point on the line at angle pi - psi: s*(sin psi, -cos psi).

    delta - cos^2 psi is formed as delta - 1 + sin^2 psi, which does not cancel as
    delta -> 1 and makes s exactly 0 at the origin (delta = 1, branch -1).
    """
    sin, cos = np.sin(psi), np.cos(psi)
    root = np.sqrt(np.maximum(delta - 1.0 + sin * sin, 0.0))
    rho = sin * sin + branch * sin * root
    sigma = -sin * cos - branch * cos * root
    return rho, sigma, sin + branch * root


def arc_psi(arc, delta):
    """The psi range of one arc at delta: the circle needs cos^2(psi) <= delta."""
    reach = math.acos(math.sqrt(delta))
    if arc == "AB":
        return max(0.5 * YB.y_plus, reach), math.pi - reach
    return reach, 0.5 * YB.y_minus


def factorisation_error(arc, gap, end, delta, branch):
    """Largest |direct gap - s/(2 sin psi) * h(2 psi)| over the arc, after asserting s >= 0."""
    psi = np.linspace(*arc_psi(arc, delta), 201)
    rho, sigma, s = direct_arc_coords(psi, delta, branch)
    assert (s >= 0.0).all()
    r, phi = np.hypot(rho, sigma), np.arctan2(rho, sigma)
    # at the origin (s = 0) the stationary maximum, the endpoint value and the factor are all 0
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(r == 0.0, 0.0, r * (math.pi - phi) / np.sin(phi)) - end(rho, sigma)
        factored = np.where(s == 0.0, 0.0, s / (2.0 * np.sin(psi)) * gap(2.0 * psi))
    return float(np.max(np.abs(direct - factored)))


# the deltas of the factorisation tests: delta = 1 puts the origin on branch -1, and psi = 0
# and psi = pi on the arcs
FACTOR_DELTAS = (0.4, 0.5, 0.8, 0.9, 1.0)


class TestArcGaps:
    def test_AB_vanishes_at_boundary(self):
        assert abs(bounds.arc_gap_AB(YB.y_plus)) <= 1e-14

    def test_CD_vanishes_at_boundary(self):
        assert bounds.arc_gap_CD(0.0) == 0.0
        assert abs(bounds.arc_gap_CD(YB.y_minus)) <= 1e-14

    def test_AB_interior_positive(self):
        assert (bounds.arc_gap_AB(np.linspace(YB.y_plus + 1e-3, 2.0 * math.pi, 2000)) > 0.0).all()

    def test_CD_interior_positive(self):
        assert (bounds.arc_gap_CD(np.linspace(1e-3, YB.y_minus - 1e-3, 2000)) > 0.0).all()

    def test_AB_matches_direct_subtraction(self):
        # stationary maximum - AB value = s/(2 sin psi) * h_AB(2 psi), s >= 0, on both branches
        for delta in FACTOR_DELTAS:
            for branch in (1, -1):
                err = factorisation_error("AB", bounds.arc_gap_AB,
                                          lambda rho, sigma: -sigma / math.cos(YB.y_plus),
                                          delta, branch)
                assert err <= 1e-12, (delta, branch)

    def test_CD_matches_direct_subtraction(self):
        for delta in FACTOR_DELTAS:
            for branch in (1, -1):
                err = factorisation_error("CD", bounds.arc_gap_CD,
                                          lambda rho, sigma: rho / math.sin(YB.y_minus),
                                          delta, branch)
                assert err <= 1e-12, (delta, branch)

    def test_range_validation(self):
        for gap, x in ((bounds.arc_gap_AB, 4.0), (bounds.arc_gap_AB, 6.3),
                       (bounds.arc_gap_CD, -0.1), (bounds.arc_gap_CD, 2.5)):
            with pytest.raises(DomainError):
                gap(x)

    def test_one_array_call_equals_point_calls(self):
        for gap, lo, hi in ((bounds.arc_gap_AB, YB.y_plus, 2.0 * math.pi),
                            (bounds.arc_gap_CD, 0.0, YB.y_minus)):
            x = np.linspace(lo, hi, 101)
            assert gap(x).tolist() == [gap(float(v)) for v in x]

    def test_scalar_in_scalar_out(self):
        for gap, x in ((bounds.arc_gap_AB, 5.0), (bounds.arc_gap_CD, 2.0)):
            value = gap(x)
            assert np.ndim(value) == 0 and isinstance(value, float)

    @pytest.mark.parametrize("gap, x", [
        (bounds.arc_gap_AB, [5.0, 4.0]),  # below y_plus
        (bounds.arc_gap_CD, [1.0, 2.5]),  # above y_minus
    ])
    def test_one_bad_element_raises(self, gap, x):
        gap(x[0])
        with pytest.raises(DomainError):
            gap(np.array(x))
