import math

import numpy as np
import pytest

from qsl import bounds, oracle, qsim
from qsl.errors import DomainError


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
        assert oracle.two_level_passage_time(math.sqrt(0.9), 0.0) is None

    def test_plug_back(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            xi = float(rng.uniform(0.05, 0.95))
            delta = float(rng.uniform(0.0, 1.0))
            t = oracle.two_level_passage_time(xi, delta)
            if t is None:
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
            assert oracle.two_level_passage_time(inside, delta) is not None
            assert oracle.two_level_passage_time(outside, delta) is None

    @pytest.mark.parametrize("xi,delta", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1)])
    def test_validation(self, xi, delta):
        with pytest.raises(DomainError):
            oracle.two_level_passage_time(xi, delta)

    def test_array_equals_point_calls(self):
        # inf in the array where a single call returns None
        xi = np.linspace(0.05, 0.95, 37)
        for delta in (0.0, 0.3, 0.9):
            times = oracle.two_level_passage_time(xi, delta)
            points = [oracle.two_level_passage_time(float(x), delta) for x in xi]
            assert times.tolist() == [math.inf if t is None else t for t in points]
            assert None in points or delta == 0.9


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
        t7 = qsim.first_passage(state, 0.3, qsim.default_horizon(state))
        assert abs(t1 - 7.0 * t7) <= 1e-12

    def test_sandwich_against_minimax(self):
        for delta in (0.2, 0.6):
            closed = bounds.upper_bound_M(delta)
            grid = oracle.minimax_bruteforce_m(delta, 512)
            dyn = oracle.two_level_min_time(delta)
            assert abs(dyn - closed) <= 1e-8
            assert abs(grid - closed) <= 1e-3


class TestIdentitySuite:
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
