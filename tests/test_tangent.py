import math

import numpy as np
import pytest

from qsl import tangent
from qsl.errors import DomainError
from qsl.rootfind import y_bounds

YB = y_bounds()
TWO_OVER_PI = 2.0 / math.pi


def check_tangent_inequality(q):
    """The grid check at the shipped a(q), as the verify check calls it; named as what it wraps."""
    return tangent.check_tangent_inequality(q, tangent.a_of_q(q))


class TestQofY:
    def test_vanishes_at_y_minus(self):
        assert abs(tangent.q_of_y(YB.y_minus)) < 1e-12

    def test_value_at_pi(self):
        assert tangent.q_of_y(math.pi) == pytest.approx(TWO_OVER_PI, abs=1e-14)

    def test_diverges_near_y_plus(self):
        assert tangent.q_of_y(YB.y_plus - 1e-6) > 1e5

    @pytest.mark.parametrize("y", [0.0, YB.y_minus - 1e-6, YB.y_plus, 10.0])
    def test_domain(self, y):
        with pytest.raises(DomainError):
            tangent.q_of_y(y)

    def test_strictly_monotone(self):
        rng = np.random.default_rng(11)
        ys = np.sort(rng.uniform(YB.y_minus, YB.y_plus - 1e-9, 200))
        qs = [tangent.q_of_y(float(y)) for y in ys]
        assert all(q1 < q2 for q1, q2 in zip(qs, qs[1:]))


class TestAofY:
    def test_value_at_pi(self):
        assert tangent.a_of_y(math.pi) == pytest.approx(TWO_OVER_PI, abs=1e-14)

    def test_value_at_y_minus_is_sin(self):
        # at the left endpoint the defining condition reduces a to sin(y_minus)
        assert tangent.a_of_y(YB.y_minus) == pytest.approx(math.sin(YB.y_minus), abs=1e-12)
        assert tangent.a_of_y(YB.y_minus) == pytest.approx(0.7246113537767084, abs=1e-12)

    def test_diverges_near_y_plus(self):
        assert tangent.a_of_y(YB.y_plus - 1e-6) > 1e5

    def test_positive_on_domain(self):
        for y in np.linspace(YB.y_minus, YB.y_plus - 1e-6, 500):
            assert tangent.a_of_y(float(y)) > 0.0


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestDerivatives:
    # the parametric derivatives, checked against the shipped maps q(y), a(y) and a(q):
    # dq/dy = y (y - sin y)/(sin y - y cos y)^2, da/dq = -sin(y)/y

    def test_dq_dy_at_pi(self):
        assert central_difference(tangent.q_of_y, math.pi, 1e-5) == pytest.approx(1.0, abs=1e-9)

    def test_dq_dy_positive(self):
        qs = [tangent.q_of_y(float(y)) for y in np.linspace(YB.y_minus, YB.y_plus - 1e-6, 500)]
        assert all(q1 < q2 for q1, q2 in zip(qs, qs[1:]))

    def test_dq_dy_matches_finite_difference(self):
        y = 3.0
        dq_dy = y * (y - math.sin(y)) / (math.sin(y) - y * math.cos(y)) ** 2
        fd = central_difference(tangent.q_of_y, y, 1e-5)
        assert abs(dq_dy - fd) / abs(fd) < 1e-6

    def test_da_dq_at_pi(self):
        # q(pi) = 2/pi, where a(q) has its minimum
        assert abs(central_difference(tangent.a_of_q, TWO_OVER_PI, 1e-5)) < 1e-9

    def test_da_dq_at_y_minus(self):
        expected = -math.sin(YB.y_minus) / YB.y_minus
        assert expected == pytest.approx(-0.3108422633548355, abs=1e-12)
        # one-sided at q = 0 = q(y_minus), the end of the domain
        h = 1e-7
        fd = (tangent.a_of_q(h) - tangent.a_of_q(0.0)) / h
        assert fd == pytest.approx(expected, abs=1e-6)

    def test_da_dq_is_derivative_ratio(self):
        y, h = 3.5, 1e-5
        ratio = central_difference(tangent.a_of_y, y, h) / central_difference(tangent.q_of_y, y, h)
        assert abs(ratio + math.sin(y) / y) < 1e-9


class TestInversion:
    def test_q_zero_maps_to_y_minus(self):
        assert tangent.y_of_q(0.0) == YB.y_minus

    def test_q_two_over_pi_maps_to_pi(self):
        assert tangent.y_of_q(TWO_OVER_PI) == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize("q", [0.1, 1.0, 10.0, 100.0])
    def test_round_trip(self, q):
        assert tangent.q_of_y(tangent.y_of_q(q)) == pytest.approx(q, abs=1e-9)

    def test_negative_q_rejected(self):
        with pytest.raises(DomainError):
            tangent.y_of_q(-0.5)

    def test_window_constraint(self):
        # the tangency abscissa stays inside [pi - arctan(1/q), pi + arctan(q)]
        for q in (0.05, 0.5, TWO_OVER_PI, 2.0, 20.0, 500.0):
            y = tangent.y_of_q(q)
            assert math.pi - math.atan(1.0 / q) - 1e-9 <= y <= math.pi + math.atan(q) + 1e-9

    def test_tangency_system_residuals(self):
        rng = np.random.default_rng(5)
        for q in rng.uniform(0.0, 100.0, 200):
            y = tangent.y_of_q(float(q))
            a = tangent.a_of_y(y)
            r1 = math.cos(y) + q * math.sin(y) - (1.0 - a * y)
            r2 = -math.sin(y) + q * math.cos(y) + a
            assert abs(r1) < 1e-10
            assert abs(r2) < 1e-10
            assert a > 0.0


class TestAofQ:
    def test_at_zero(self):
        assert tangent.a_of_q(0.0) == pytest.approx(math.sin(YB.y_minus), abs=1e-12)

    def test_at_two_over_pi(self):
        assert tangent.a_of_q(TWO_OVER_PI) == pytest.approx(TWO_OVER_PI, abs=1e-12)

    def test_minimum_at_two_over_pi(self):
        qs = np.linspace(0.0, 5.0, 401)
        vals = [tangent.a_of_q(float(q)) for q in qs]
        assert min(vals) >= TWO_OVER_PI - 1e-12
        argmin = qs[int(np.argmin(vals))]
        assert abs(argmin - TWO_OVER_PI) < 2.0 * (qs[1] - qs[0])

    def test_lower_bound_everywhere(self):
        rng = np.random.default_rng(17)
        for q in rng.uniform(0.0, 100.0, 300):
            assert tangent.a_of_q(float(q)) >= TWO_OVER_PI - 1e-12


class TestInequality:
    def test_q_zero(self):
        val = check_tangent_inequality(0.0)
        assert val >= -1e-9
        # away from the origin (also an exact zero) the minimum sits at the
        # tangency abscissa
        x = np.linspace(0.5, 20.0, 100_000)
        curve = np.cos(x) + 0.0 * np.sin(x) - 1.0 + tangent.a_of_q(0.0) * x
        assert abs(x[int(np.argmin(curve))] - YB.y_minus) < 1e-3

    def test_q_one(self):
        assert check_tangent_inequality(1.0) >= -1e-9

    def test_origin_value_is_zero(self):
        q = 3.7
        assert math.cos(0.0) + q * math.sin(0.0) - 1.0 + tangent.a_of_q(q) * 0.0 == 0.0

    def test_random_q_certificate(self):
        rng = np.random.default_rng(23)
        for q in rng.uniform(0.0, 100.0, 1000):
            assert check_tangent_inequality(float(q)) >= -1e-9

    @pytest.mark.parametrize("q", [-1.0, math.nan, math.inf])
    def test_invalid_inputs(self, q):
        # the check validates q itself: it is handed a, not a q to solve for
        with pytest.raises(DomainError):
            tangent.check_tangent_inequality(q, 1.0)
        with pytest.raises(DomainError):
            tangent.check_tangent_inequality(np.array([1.0, q]), np.ones(2))

    def test_grid_looks_up_no_callee(self, monkeypatch):
        q = np.random.default_rng(5).uniform(0.0, 100.0, 70)
        a = tangent.a_of_q(q)
        expected = tangent.check_tangent_inequality(q, a)
        for name in ("a_of_q", "y_of_q", "a_of_y", "q_of_y"):
            monkeypatch.setattr(tangent, name, None)
        np.testing.assert_array_equal(tangent.check_tangent_inequality(q, a), expected)


class TestArrays:
    Q = np.array([0.0, 1e-300, 1e-17, 1e-16, 1e-15, 1e-12, 0.3, TWO_OVER_PI, 7.0, 99.5, 1e6])
    Y = np.array([YB.y_minus, 2.5, math.pi, 4.0, YB.y_plus - 1e-6])
    # 70 slopes span three of check_tangent_inequality's blocks of 32
    Q_GRID = np.random.default_rng(3).uniform(0.0, 100.0, 70)

    def cases(self):
        return [(tangent.y_of_q, self.Q), (tangent.q_of_y, self.Y), (tangent.a_of_y, self.Y),
                (tangent.a_of_q, self.Q), (check_tangent_inequality, self.Q_GRID)]

    def test_one_array_call_equals_point_calls(self):
        for fn, xs in self.cases():
            assert fn(xs).tolist() == [fn(float(x)) for x in xs], fn.__name__
            assert fn(xs.reshape(-1, 1)).shape == (xs.size, 1)

    def test_blocks_equal_one_unblocked_evaluation(self):
        # the blocks add the same terms in the same order as the plain
        # expression; a lowered a(q) moves each minimum off x = 0, where it is exactly 0
        lowered = tangent.a_of_q(self.Q_GRID) * (1.0 - 1e-3)
        x = np.linspace(0.0, 50.0, 4096)
        a = lowered[:, None]
        q = self.Q_GRID[:, None]
        whole = (np.cos(x) + q * np.sin(x) - 1.0 + a * x).min(axis=1)
        assert np.all(whole < 0.0)
        np.testing.assert_array_equal(tangent.check_tangent_inequality(self.Q_GRID, lowered), whole)

    def test_scalar_in_scalar_out(self):
        for fn, xs in self.cases():
            value = fn(float(xs[1]))
            assert np.ndim(value) == 0 and isinstance(value, float), fn.__name__

    @pytest.mark.parametrize("fn, values", [
        (tangent.y_of_q, [1.0, -0.5, 2.0]), (tangent.y_of_q, [1.0, math.nan, 2.0]),
        (tangent.a_of_q, [1.0, -1e-300, 2.0]), (check_tangent_inequality, [1.0, -1.0]),
        (tangent.q_of_y, [3.0, YB.y_plus, 4.0]), (tangent.a_of_y, [3.0, 1.0, 4.0]),
    ])
    def test_one_bad_element_raises(self, fn, values):
        with pytest.raises(DomainError):
            fn(np.array(values))

    def test_small_q_nondecreasing_and_pinned_to_y_minus(self):
        # below q = 1e-16 the root lies within an ulp of y_minus, where g(y_minus) is
        # rounding noise; a solve there used to raise NoSignChange or land ulps too high
        qs = [0.0, 1e-300, 1e-17, 1e-16, 1e-15, 1e-12]
        ys = [tangent.y_of_q(q) for q in qs]
        assert all(y1 <= y2 for y1, y2 in zip(ys, ys[1:]))
        assert ys[:4] == [YB.y_minus] * 4
        assert tangent.a_of_q(1e-17) == tangent.a_of_q(0.0)
        assert check_tangent_inequality(1e-17) >= -1e-9


def full_grid_minimum(q, a):
    """The grid minimum over all 4096 points of [0, 50], in row chunks, for slopes q and a."""
    x = np.linspace(0.0, 50.0, 4096)
    q, a = np.atleast_1d(q)[:, None], np.atleast_1d(a)[:, None]
    return np.concatenate([(np.cos(x) + q[k:k + 250] * np.sin(x) - 1.0 + a[k:k + 250] * x)
                           .min(axis=1) for k in range(0, q.size, 250)])


class TestGridCut:
    # the grid stops at X(q) = (2 + sqrt(1 + q^2))/a: past X the gap exceeds 1, at x = 0 it is 0

    @pytest.mark.parametrize("seeds", [range(0, 25), range(25, 50)])
    def test_seeded_slopes_equal_the_full_grid(self, seeds):
        for seed in seeds:
            # the slopes of the verify check at this seed
            q = np.random.default_rng(seed).uniform(0.0, 100.0, 1000)
            a = tangent.a_of_q(q)
            assert np.array_equal(tangent.check_tangent_inequality(q, a),
                                  full_grid_minimum(q, a)), seed

    def test_edge_slopes_equal_the_full_grid(self):
        # 1e13 lies above _CUT_Q_MAX: that call evaluates the whole grid
        for q in (0.0, 1e-300, 1e-17, 100.0, 1e6, 1e13):
            a = tangent.a_of_q(q)
            whole = full_grid_minimum(q, a)
            assert np.array_equal(tangent.check_tangent_inequality(np.array([q]), np.array([a])),
                                  whole), q
            assert tangent.check_tangent_inequality(q, a) == whole[0], q

    def test_lowered_a_equals_the_full_grid(self):
        # a lowered a(q) moves each minimum off x = 0 to a negative value before X
        q = np.random.default_rng(7).uniform(0.0, 100.0, 1000)
        a = tangent.a_of_q(q) * (1.0 - 1e-3)
        whole = full_grid_minimum(q, a)
        assert np.all(whole < 0.0)
        assert np.array_equal(tangent.check_tangent_inequality(q, a), whole)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf])
    def test_nonpositive_or_infinite_a_takes_the_full_grid(self, scale):
        # no cut holds there: the minimum lies far out on the grid, or is -inf or nan
        q = np.array([0.0, 0.5, 3.0, 99.0])
        with np.errstate(invalid="ignore"):
            a = tangent.a_of_q(q) * scale
            whole = full_grid_minimum(q, a)
            assert np.array_equal(tangent.check_tangent_inequality(q, a), whole, equal_nan=True)
        if scale <= 0.0:
            assert np.all(whole < -1.0)
