"""The numpy kernels against independent direct computations."""

import numpy as np
import pytest

from qsl import kernels, qsim


def random_state_arrays(seed, d=6):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(0.0, 2.0, d))
    p = rng.uniform(0.1, 1.0, d)
    return energies, p / p.sum()


def test_theta_max_table_matches_full_matrix_argmax():
    # 300 rows: one full chunk plus a partial one
    assert 300 % kernels._THETA_CHUNK != 0
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.0, 2.0, 300)
    sigma = rng.uniform(-1.0, 1.0, 300)
    fa = rng.uniform(-2.0, 2.0, 400)
    fb = rng.uniform(-2.0, 2.0, 400)
    full = np.outer(rho, fa) + np.outer(sigma, fb)
    best, arg = kernels.theta_max_table(rho, sigma, fa, fb)
    np.testing.assert_array_equal(arg, full.argmax(axis=1))
    np.testing.assert_allclose(best, full.max(axis=1), rtol=0, atol=1e-12)


def test_rotation_resync_long_grid():
    # a grid longer than 12 000 points stays at rounding level against the
    # scalar evaluation, from its first point to its last
    energies, p = random_state_arrays(29, d=4)
    n = 12_305
    f = kernels.fidelity_grid(p, energies, 0.0, 0.02, n)
    for i in (0, 1, 4095, 4096, 8191, 8192, n - 2, n - 1):
        direct = kernels.fidelity_scalar(p, energies, 0.02 * i)
        assert f[i] == pytest.approx(direct, abs=1e-11)


def test_derivative_matches_finite_difference():
    energies, p = random_state_arrays(23)
    h = 1e-6
    for t in (0.5, 2.2, 9.1):
        fd = (kernels.fidelity_scalar(p, energies, t + h)
              - kernels.fidelity_scalar(p, energies, t - h)) / (2 * h)
        assert kernels.dfidelity_scalar(p, energies, t) == pytest.approx(fd, abs=1e-7)


def test_refine_crossing_lands_on_level():
    energies, p = random_state_arrays(17)
    f = kernels.fidelity_grid(p, energies, 0.0, 0.01, 5000)
    idx = int(np.argmax(f <= 0.5))
    assert idx > 0 and f[idx - 1] > 0.5 >= f[idx]
    t = kernels.refine_crossing(p, energies, (idx - 1) * 0.01, idx * 0.01, 0.5, 80)
    assert (idx - 1) * 0.01 < t <= idx * 0.01
    assert kernels.fidelity_scalar(p, energies, t) == pytest.approx(0.5, abs=1e-10)


def test_refine_minimum_lands_on_stationary_point():
    energies, p = random_state_arrays(17)
    f = kernels.fidelity_grid(p, energies, 0.0, 0.01, 5000)
    i = int(qsim._local_minima(f)[0])
    lo, hi = (i - 1) * 0.01, (i + 1) * 0.01
    assert kernels.dfidelity_scalar(p, energies, lo) < 0.0 < kernels.dfidelity_scalar(p, energies, hi)
    t = kernels.refine_minimum(p, energies, lo, hi, 80)
    assert lo < t < hi
    assert kernels.dfidelity_scalar(p, energies, t) == pytest.approx(0.0, abs=1e-12)
    assert kernels.fidelity_scalar(p, energies, t) <= f[i]


class TestFirstPassage:
    state = qsim.two_level_state(np.sqrt(0.5))  # fidelity (1 + cos t) / 2

    def test_crossing_at_first_grid_point(self):
        # idx == 0 needs f(0) <= delta < 1: an equal-weight state whose grid
        # value at t = 0 rounds below 1, with delta set to that value
        for d in range(2, 40):
            state = qsim.QuantumState(np.arange(d, dtype=float), np.full(d, d ** -0.5))
            energies, p = state.support()
            f0 = kernels.fidelity_grid(p, energies, 0.0, 1.0, 16)[0]
            if f0 < 1.0:
                break
        assert f0 < 1.0
        res = qsim.first_passage(state, f0, 10.0)
        assert res.t_star == 0.0

    def test_interior_crossing(self):
        res = qsim.first_passage(self.state, 0.5, 10.0)
        assert res.t_star == pytest.approx(np.pi / 2, abs=1e-12)
        assert res.achieved_fidelity == pytest.approx(0.5, abs=1e-12)

    def test_no_crossing_within_horizon(self):
        res = qsim.first_passage(self.state, 0.5, 1.0)
        assert res.t_star is None
        assert res.achieved_fidelity == pytest.approx((1 + np.cos(1.0)) / 2, abs=1e-12)
