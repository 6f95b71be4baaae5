import math

import numpy as np
import pytest

from qsl import bounds, checks, kernels, oracle, qsim, rootfind
from qsl.errors import DomainError
from inner_objective import F_of_y


class TestMinimax:
    def test_delta_zero(self):
        assert abs(oracle.minimax_bruteforce_m(0.0, 256) - 1.0) <= 1e-4

    def test_matches_closed_form_at_quarter(self):
        value = oracle.minimax_bruteforce_m(0.25, 2048)
        assert abs(value - bounds.upper_bound_M(0.25)) <= 1e-5

    def test_refinement_reduces_error(self):
        # grid errors carry opposite signs (theta +, y -), so strict per-doubling
        # monotonicity can break near the cancellation floor; coarse-to-fine
        # reduction is the robust certificate
        for delta in (0.2, 0.5, 0.8):
            target = bounds.upper_bound_M(delta)
            coarse = abs(oracle.minimax_bruteforce_m(delta, 64) - target)
            fine = abs(oracle.minimax_bruteforce_m(delta, 2048) - target)
            assert fine <= coarse / 50.0
            assert fine <= 1e-5

    def test_monotone_showcase(self):
        # at delta = 0.9 the study yields literal monotone shrink under doubling
        target = bounds.upper_bound_M(0.9)
        errs = [
            abs(oracle.minimax_bruteforce_m(0.9, g) - target)
            for g in (64, 128, 256, 512, 1024)
        ]
        assert all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    @pytest.mark.parametrize("n", [64, 256, 2048])
    def test_pruning_changes_nothing(self, n):
        # the full table's minimum, bit for bit: at delta = 0 every row is equal
        deltas = np.linspace(0.0, 1.0, 201)
        _, fa, fb = oracle._y_profiles(n)
        theta = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        full = [(2.0 / math.pi) * float(kernels.theta_max_table(
                    1.0 - math.sqrt(d) * np.cos(theta), math.sqrt(d) * np.sin(theta), fa, fb).min())
                for d in deltas]
        values = oracle.minimax_bruteforce_m(deltas, n)
        assert values.tolist() == full
        assert [oracle.minimax_bruteforce_m(float(d), n) for d in deltas] == full
        assert oracle.minimax_bruteforce_m(deltas.reshape(3, 67), n).tolist() == \
            values.reshape(3, 67).tolist()

    def test_scalar_in_scalar_out(self):
        value = oracle.minimax_bruteforce_m(0.3, 256)
        assert np.ndim(value) == 0 and isinstance(value, float)

    def test_gate_curvatures_bound_the_objective(self):
        # the error model of checks.minimax_oracle: near its minimiser in theta,
        # (2/pi) max_y F rises no faster than c_theta s^2 / 2 within half a
        # 256-point step s, and (2/pi) F bends no more than c_y in y near its maximiser
        half = math.pi / 256
        s = np.concatenate((np.linspace(-half, -half / 64, 64), np.linspace(half / 64, half, 64)))
        yb = rootfind.y_bounds()
        for delta in checks.ORACLE_DELTAS:
            theta = np.linspace(math.pi, 2.0 * math.pi, 400_001)
            star = theta[np.argmin(bounds.max_F_over_q(theta, delta))]
            rise = (bounds.max_F_over_q(star + s, delta) - bounds.max_F_over_q(star, delta))
            assert np.max((2.0 / math.pi) * 2.0 * rise / s**2) <= checks._THETA_CURVATURE
            root = math.sqrt(delta)
            rho, sigma = 1.0 - root * math.cos(star), root * math.sin(star)
            y = np.linspace(yb.y_minus, yb.y_plus, 20_001)
            f = (2.0 / math.pi) * F_of_y(y, rho, sigma)
            k = int(np.argmax(f))
            assert 0 < k < y.size - 1  # an interior maximum, as in the window
            bend = -(f[k - 1] - 2.0 * f[k] + f[k + 1]) / (y[1] - y[0]) ** 2
            assert bend <= checks._Y_CURVATURE

    @pytest.mark.parametrize("per_delta", [True, False])
    def test_every_oracle_delta_within_the_gate(self, per_delta):
        # all five deltas, in one array call or in one scalar call each
        deltas = np.array(checks.ORACLE_DELTAS)
        if per_delta:
            m = np.array([oracle.minimax_bruteforce_m(float(d), checks.ORACLE_GRID) for d in deltas])
        else:
            m = oracle.minimax_bruteforce_m(deltas, checks.ORACLE_GRID)
        err = m - bounds.upper_bound_M(deltas)
        lines, _ = checks.minimax_oracle(7)
        assert np.max(np.abs(err)) == lines["minimax_oracle_max_err"]
        assert np.max(np.abs(err)) <= lines["minimax_oracle_tol"]

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            oracle.minimax_bruteforce_m(0.5, 32)
        with pytest.raises(DomainError):
            oracle.minimax_bruteforce_m(1.5, 256)


class TestTwoLevelPassage:
    def test_orthogonalization_case(self):
        t = oracle.two_level_passage_time(math.sqrt(0.5), 0.0)
        assert t == pytest.approx(math.pi, abs=1e-12)

    def test_unreachable(self):
        t = oracle.two_level_passage_time(math.sqrt(0.9), 0.0)
        assert t == math.inf and np.ndim(t) == 0 and isinstance(t, float)

    def test_plug_back(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            xi = float(rng.uniform(0.05, 0.95))
            delta = float(rng.uniform(0.0, 1.0))
            t = oracle.two_level_passage_time(xi, delta)
            if t == math.inf:
                continue
            u = xi * xi
            fid = (1 - u) ** 2 + u * u + 2 * u * (1 - u) * math.cos(t)
            assert fid == pytest.approx(delta, abs=1e-10)

    def test_reachability_frontier(self):
        # passage exists exactly for xi^2 between (1 - sqrt(d))/2 and (1 + sqrt(d))/2
        delta = 0.3
        for edge in ((1 - math.sqrt(delta)) / 2, (1 + math.sqrt(delta)) / 2):
            inside = math.sqrt(edge + 1e-9) if edge < 0.5 else math.sqrt(edge - 1e-9)
            outside = math.sqrt(edge - 1e-9) if edge < 0.5 else math.sqrt(edge + 1e-9)
            assert oracle.two_level_passage_time(inside, delta) < math.inf
            assert oracle.two_level_passage_time(outside, delta) == math.inf

    @pytest.mark.parametrize("xi,delta", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1)])
    def test_validation(self, xi, delta):
        with pytest.raises(DomainError):
            oracle.two_level_passage_time(xi, delta)

    def test_array_equals_point_calls(self):
        # one array call gives each pair's own call, inf where the target is out of reach
        xi = np.linspace(0.05, 0.95, 37)
        for delta in (0.0, 0.3, 0.9):
            times = oracle.two_level_passage_time(xi, delta)
            points = [oracle.two_level_passage_time(float(x), delta) for x in xi]
            assert times.tolist() == points
            assert math.inf in points or delta == 0.9


class TestTwoLevelMinTime:
    def test_delta_zero(self):
        assert oracle.two_level_min_time(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_matches_closed_form(self):
        assert oracle.two_level_min_time(0.5) == pytest.approx(bounds.upper_bound_M(0.5), abs=1e-8)

    def test_array_equals_point_calls(self):
        # qsl verify's deltas, the degenerate delta = 0 and one below its 1e-15 cell
        deltas = np.array([0.0, 1e-31, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-9])
        values = oracle.two_level_min_time(deltas)
        assert values.tolist() == [oracle.two_level_min_time(float(d)) for d in deltas]
        assert oracle.two_level_min_time(deltas.reshape(4, 2)).tolist() == \
            values.reshape(4, 2).tolist()

    def test_defined_up_to_one(self):
        # every float in [1 - 1e-15, 1]: the top weight rounds to 1 at the last two
        assert oracle.two_level_min_time(1.0) == 0.0
        deltas = [1.0]
        while deltas[-1] >= 1.0 - 1e-15:
            deltas.append(float(np.nextafter(deltas[-1], 0.0)))
        deltas = np.array(deltas)
        values = oracle.two_level_min_time(deltas)
        eps = float(np.finfo(np.float64).eps)
        assert np.max(np.abs(values - bounds.upper_bound_M(deltas))) <= 4.0 * eps
        assert values.tolist() == [oracle.two_level_min_time(float(d)) for d in deltas]

    def test_relative_accuracy_near_one(self):
        # solved from 1 - delta, the time keeps its relative accuracy as it
        # falls to 0; the difference of squares lost it all at 1 - 2**-52
        near = np.array([1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15, 1.0 - 2.0 ** -52])
        np.testing.assert_allclose(oracle.two_level_min_time(near), bounds.upper_bound_M(near),
                                   rtol=1e-5, atol=0.0)
        deltas = [float(np.nextafter(1.0, 0.0))]
        while deltas[-1] >= 1.0 - 1e-15:
            deltas.append(float(np.nextafter(deltas[-1], 0.0)))
        deltas = np.concatenate((np.linspace(0.0, 1.0, 1001)[:-1], deltas))
        assert np.all(oracle.two_level_min_time(deltas) > 0.0)

    def test_scalar_in_scalar_out(self):
        value = oracle.two_level_min_time(0.3)
        assert np.ndim(value) == 0 and isinstance(value, float)

    def test_one_bad_delta_raises(self):
        with pytest.raises(DomainError):
            oracle.two_level_min_time(np.array([0.3, 1.2, 0.7]))

    def test_energy_scale_cancels(self):
        # two_level_min_time works at level spacing 1: <H - E0> * t, proportional
        # to spacing * t, is the same at any spacing; the passage time of the
        # same weights at spacing 7, measured by the scan, is 1/7 of the oracle's
        t1 = oracle.two_level_passage_time(0.6, 0.3)
        state = qsim.QuantumState(np.array([0.0, 7.0]), np.array([0.8, 0.6], dtype=complex))
        t7 = qsim.first_passage(state, 0.3, qsim.default_horizon(state.support()[0]))
        assert abs(t1 - 7.0 * t7) <= 1e-12

    def test_sandwich_against_minimax(self):
        for delta in (0.2, 0.6):
            closed = bounds.upper_bound_M(delta)
            grid = oracle.minimax_bruteforce_m(delta, 512)
            dyn = oracle.two_level_min_time(delta)
            assert abs(dyn - closed) <= 1e-8
            assert abs(grid - closed) <= 1e-3


def looped_identity_suite(n_samples, seed):
    """identity_suite with its omega -> z check as one omega_to_z call per delta."""
    rng = np.random.default_rng(seed)
    tau = np.round(rng.uniform(0.0, 1.0, n_samples) * 2**26) / 2**26
    tau[0] = 0.0
    if n_samples > 1:
        tau[1] = 1.0
    double_angle = np.max(np.abs(np.arccos(2.0 * tau * tau - 1.0) - 2.0 * np.arccos(tau)))
    omega_z = 0.0
    for delta in rng.uniform(1e-6, 1.0, 32):
        root = math.sqrt(delta)
        z = bounds.omega_to_z(np.linspace(-root, root, 257), delta)
        omega_z = max(omega_z, abs(z[0] - root), abs(z[-1] + root))
        omega_z = max(omega_z, float(np.max(np.diff(z))))
        omega_z = max(omega_z, float(np.max(np.abs(z) - root)))
    theta = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    delta = rng.uniform(0.0, 0.9, n_samples)
    rho = 1.0 - np.sqrt(delta) * np.cos(theta)
    sigma = np.sqrt(delta) * np.sin(theta)
    r = np.hypot(rho, sigma)
    ratio = (r * r / rho) * np.arccos(-sigma / r)
    stationary = float(np.max(np.abs(bounds.stationary_max(rho, sigma) - ratio)))
    report = {"n_samples": n_samples, "seed": seed, "double_angle_max": float(double_angle),
              "omega_z_max": float(omega_z), "stationary_forms_max": stationary}
    report["max_violation"] = max(float(double_angle), float(omega_z), stationary)
    return report


class TestIdentitySuite:
    def test_one_omega_to_z_call_equals_one_per_delta(self, monkeypatch):
        calls = []
        shipped = bounds.omega_to_z
        monkeypatch.setattr(bounds, "omega_to_z",
                            lambda omega, delta: calls.append(np.shape(omega)) or shipped(omega, delta))
        for seed in range(50):
            calls.clear()
            assert oracle.identity_suite(10_000, seed) == looped_identity_suite(10_000, seed), seed
            assert calls[0] == (32, 257) and len(calls) == 33  # one call, then the loop's 32
    def test_edge_values(self):
        # tau = 0 and tau = 1 are forced into the sample
        rep = oracle.identity_suite(2, seed=0)
        assert rep["double_angle_max"] <= 1e-12

    def test_full_suite(self):
        rep = oracle.identity_suite(10_000, seed=42)
        assert rep["max_violation"] <= 1e-12

    def test_exact_input_near_tau_one(self):
        # with rounded 2 tau^2 - 1 this seed read double_angle_max = 1.13e-12
        rep = oracle.identity_suite(10_000, seed=577090037)
        assert rep["double_angle_max"] <= 1e-15
        assert rep["max_violation"] <= 1e-12

    def test_deterministic(self):
        assert oracle.identity_suite(500, seed=9) == oracle.identity_suite(500, seed=9)

    def test_seed_recorded(self):
        rep = oracle.identity_suite(10, seed=1234)
        assert rep["seed"] == 1234
        assert rep["n_samples"] == 10
