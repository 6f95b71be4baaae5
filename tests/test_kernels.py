"""The numpy kernels against independent direct computations."""

import math

import numpy as np
import pytest

from qsl import kernels, qsim
from state_rows import state_rows


def random_state_arrays(seed, d=6):
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(0.0, 2.0, d))
    p = rng.uniform(0.1, 1.0, d)
    return energies, p / p.sum()


def test_theta_max_table_matches_full_matrix_argmax():
    # 310 rows: whole blocks and a partial one; the buffered sums are the same
    # products added in the same order, so the maxima are equal bit for bit
    assert 310 % (kernels._THETA_CELLS // 400) != 0
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.0, 2.0, 310)
    sigma = rng.uniform(-1.0, 1.0, 310)
    fa = rng.uniform(-2.0, 2.0, 400)
    fb = rng.uniform(-2.0, 2.0, 400)
    full = np.outer(rho, fa) + np.outer(sigma, fb)
    best = kernels.theta_max_table(rho, sigma, fa, fb)
    np.testing.assert_array_equal(best, full.max(axis=1))


@pytest.mark.parametrize("rows, cols", [(10240, 65), (700, 9), (65, 65), (5, 2048), (310, 400)])
def test_theta_max_table_equals_the_dense_table(rows, cols):
    # fewer columns than rows runs column by column (the pruning pass's 10240 x 65),
    # otherwise by blocks of whole rows; either way every cell is rounded on its own
    rng = np.random.default_rng(rows + cols)
    rho = rng.uniform(0.0, 2.0, rows)
    sigma = rng.uniform(-1.0, 1.0, rows)
    fa = rng.uniform(-2.0, 2.0, cols)
    fb = rng.uniform(-2.0, 2.0, cols)
    dense = (rho[:, None] * fa + sigma[:, None] * fb).max(axis=1)
    np.testing.assert_array_equal(kernels.theta_max_table(rho, sigma, fa, fb), dense)


def test_rotation_resync_long_grid():
    # a grid far from t = 0 on a state of many levels, one matrix product of
    # 111 rows, stays at rounding level against the direct evaluation at its
    # ends and its row edges
    energies, p = random_state_arrays(29, d=600)
    n = 12_305
    width = math.isqrt(n - 1) + 1
    t0, dt = 3 * 4096 * 0.02, 0.02
    f = np.abs(kernels.fidelity_grid(p, energies, t0, dt, n)) ** 2
    for i in (0, 1, width - 1, width, n - 2, n - 1):
        direct = kernels.fidelity_scalar(*state_rows(p, energies, 1), [t0 + dt * i])[0]
        assert f[i] == pytest.approx(direct, abs=1e-13)


def test_rounding_bound_holds_at_long_times():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for seed, d in ((3, 2), (5, 8), (7, 40)):
        energies, p = random_state_arrays(seed, d)
        energies = energies - 1.0  # |E| <= 1, as after the scan's shift to the median
        for t0 in (0.0, 1e3, 1e6):
            dt = 0.37
            z = kernels.fidelity_grid(p, energies, t0, dt, 100)
            f = z.real * z.real + z.imag * z.imag  # as the passage scan forms it
            for i in (0, 37, 99):
                t = mp.mpf(t0) + mp.mpf(dt) * i
                z_exact = mp.fsum(mp.mpf(pk) * mp.expj(-mp.mpf(ek) * t)
                                  for pk, ek in zip(p, energies))
                exact = abs(z_exact) ** 2
                bound = kernels.rounding_bound(t0 + dt * i, d, 1.0)
                # the chord test of the scan relies on the amplitude's error as well
                assert abs(complex(z[i]) - z_exact) <= bound
                assert abs(f[i] - exact) <= bound
                f_row = kernels.fidelity_scalar(*state_rows(p, energies, 1), [float(t)])[0]
                assert abs(f_row - exact) <= bound


def test_derivative_matches_finite_difference():
    energies, p = random_state_arrays(23)
    rows = state_rows(p, energies, 3)
    h = 1e-6
    t = np.array([0.5, 2.2, 9.1])
    fd = (kernels.fidelity_scalar(*rows, t + h) - kernels.fidelity_scalar(*rows, t - h)) / (2 * h)
    assert kernels.dfidelity_scalar(*rows, t) == pytest.approx(fd, abs=1e-7)
    fdd = (kernels.dfidelity_scalar(*rows, t + h)
           - kernels.dfidelity_scalar(*rows, t - h)) / (2 * h)
    assert kernels.derivatives(*rows, t, 2)[2] == pytest.approx(fdd, abs=1e-7)


@pytest.mark.parametrize("n", [3, 2000])
def test_every_order_is_the_one_its_own_call_gives(n):
    # 2000 times of 6 levels span three blocks of the level-major tables
    energies, p = random_state_arrays(23)
    rows = state_rows(p, energies, n)
    t = np.linspace(0.0, 40.0, n)
    single = [kernels.fidelity_scalar(*rows, t), kernels.dfidelity_scalar(*rows, t)]
    for order in range(3):
        f = kernels.derivatives(*rows, t, order)
        assert len(f) == order + 1
        for j in range(min(order + 1, 2)):
            np.testing.assert_array_equal(f[j], single[j])


def test_refine_crossing_lands_on_level():
    # each bracket runs from t = 0 to the first grid point at or below its
    # level; below the first local minimum (0.122 at t = 3.19) it spans that
    # dip, where Newton steps from inside the bracket leave it
    energies, p = random_state_arrays(17)
    step = 0.01
    f = np.abs(kernels.fidelity_grid(p, energies, 0.0, step, 5000)) ** 2
    levels = np.array([0.02, 0.05, 0.08, 0.11, 0.35, 0.65, 0.95])
    idx = np.array([int(np.argmax(f <= level)) for level in levels])
    assert np.all(idx > 0)
    hi = idx * step
    rows = state_rows(p, energies, levels.size)
    t = kernels.refine_crossing(*rows, np.zeros(levels.size), hi, levels)
    assert np.all((hi - step < t) & (t <= hi))
    np.testing.assert_allclose(kernels.fidelity_scalar(*rows, t), levels, rtol=0, atol=1e-13)


def padded_crossings(states, width):
    """Brackets of each state's crossings, as zero-padded (p, e) rows of ``width``.

    Each bracket is the grid cell where f first comes down to one of the
    levels 0.2, 0.5 and 0.8 that it reaches. Returns the rows
    (p, e, lo, hi, level) and each state's own, as wide as the state.
    """
    rows, own = [], []
    step = 0.01
    for energies, p in states:
        f = np.abs(kernels.fidelity_grid(p, energies, 0.0, step, 5000)) ** 2
        levels = np.array([level for level in (0.2, 0.5, 0.8) if f.min() <= level])
        hi = np.array([int(np.argmax(f <= level)) for level in levels]) * step
        own.append((*state_rows(p, energies, levels.size), hi - step, hi, levels))
        pad = (0, width - p.size)
        rows.append((*state_rows(np.pad(p, pad), np.pad(energies, pad), levels.size),
                     hi - step, hi, levels))
    return [np.concatenate(part) for part in zip(*rows)], own


def test_refine_crossing_on_padded_rows_matches_one_call_per_state():
    # one call on the rows of states of 2, 5 and 8 levels zero-padded to 8, as
    # verify_limits refines a block, against one call per state on rows as
    # wide as the state, as first_passage refines its block of one
    states = [random_state_arrays(seed, d) for seed, d in ((41, 2), (43, 5), (47, 8))]
    rows, own = padded_crossings(states, 8)
    assert [args[4].size for args in own] == [2, 3, 3]  # two levels do not reach 0.2
    t = kernels.refine_crossing(*rows)
    ref = np.concatenate([kernels.refine_crossing(*args) for args in own])
    assert np.all(np.abs(t - ref) <= 4 * np.spacing(ref))
    assert np.all((rows[2] < t) & (t <= rows[3]))


def test_padding_level_leaves_f_and_slope_bit_identical(monkeypatch):
    # the same rows with one more p = 0 column: each Newton pass sees the same
    # value and slope bit for bit, so the refined times are equal too
    calls = []
    newton = kernels.newton
    monkeypatch.setattr(kernels, "newton",
                        lambda g, lo, hi, tol: calls.append((g, tol)) or newton(g, lo, hi, tol))
    states = [random_state_arrays(seed, d) for seed, d in ((41, 2), (43, 5), (47, 8))]
    narrow, _ = padded_crossings(states, 8)
    wide, _ = padded_crossings(states, 9)
    np.testing.assert_array_equal(kernels.refine_crossing(*narrow), kernels.refine_crossing(*wide))
    (g8, tol8), (g9, tol9) = calls
    np.testing.assert_array_equal(tol8, tol9)  # a bracket's tolerance counts its state's levels
    rows = np.arange(narrow[2].size)
    for t in (narrow[2], 0.5 * (narrow[2] + narrow[3]), narrow[3] + 1.7):
        for a, b in zip(g8(t, rows), g9(t, rows)):
            np.testing.assert_array_equal(a, b)


def test_refine_minimum_lands_on_stationary_point():
    # each bracket runs between the grid maxima around one grid minimum, so
    # it holds inflection points where a Newton step on f' can leave it
    energies, p = random_state_arrays(17)
    step = 0.01
    f = np.abs(kernels.fidelity_grid(p, energies, 0.0, step, 5000)) ** 2
    interior = f[1:-1]
    minima = np.nonzero((interior < f[:-2]) & (interior <= f[2:]))[0][:6] + 1
    maxima = np.append(0, np.nonzero((interior > f[:-2]) & (interior >= f[2:]))[0] + 1)
    lo = np.array([maxima[maxima < i].max() + 1 for i in minima]) * step
    hi = np.array([maxima[maxima > i].min() - 1 for i in minima]) * step
    rows = state_rows(p, energies, minima.size)
    assert np.all(kernels.dfidelity_scalar(*rows, lo) < 0.0)
    assert np.all(kernels.dfidelity_scalar(*rows, hi) > 0.0)
    t = kernels.refine_minimum(*rows, lo, hi)
    assert np.all((minima - 1) * step < t) and np.all(t < (minima + 1) * step)
    np.testing.assert_allclose(kernels.dfidelity_scalar(*rows, t), 0.0, atol=1e-13)
    assert np.all(kernels.fidelity_scalar(*rows, t) <= f[minima])


def two_table_slopes(p, energies):
    """refine_minimum's Newton function as it was: -f' and -f'' from an exp table each, per pass."""

    def level_sums(p_r, e_r, t, order):
        p_t, e_t = np.ascontiguousarray(p_r.T), np.ascontiguousarray(e_r.T)
        w = np.exp(-1j * (e_t * t))
        sums, weight = [], p_t
        for j in range(order + 1):
            if j:
                weight = weight * e_t
            sums.append((w * weight).sum(axis=0))
        return sums

    def g(t, rows):
        z, zd = level_sums(p[rows], energies[rows], t, 1)
        slope = 2.0 * (z.real * zd.imag - z.imag * zd.real)
        z, zd, zdd = level_sums(p[rows], energies[rows], t, 2)
        curv = 2.0 * (zd.real * zd.real + zd.imag * zd.imag
                      - z.real * zdd.real - z.imag * zdd.imag)
        return -slope, -curv

    return g


@pytest.mark.parametrize("width", [8, 9])
def test_refine_minimum_equals_the_two_table_newton(monkeypatch, width):
    # one exp table per pass gives -f' and -f'' the bits of one table per derivative,
    # so the minima are equal too: on brackets between the grid points around each
    # grid minimum, and random brackets, of states of 2 to 8 levels zero-padded to ``width``
    rng = np.random.default_rng(61)
    step, p_rows, e_rows, lo, hi = 0.05, [], [], [], []
    for seed in range(14):
        energies, p = random_state_arrays(seed, 2 + seed % 7)
        f = np.abs(kernels.fidelity_grid(p, energies, 0.0, step, 2000)) ** 2
        minima = np.nonzero((f[1:-1] < f[:-2]) & (f[1:-1] <= f[2:]))[0] + 1
        random_lo = rng.uniform(0.0, 100.0, 10)
        starts = np.concatenate(((minima - 1) * step, random_lo))
        ends = np.concatenate(((minima + 1) * step, random_lo + rng.uniform(0.01, 2.0, 10)))
        pad = (0, width - p.size)
        p_rows.append(np.tile(np.pad(p, pad), (starts.size, 1)))
        e_rows.append(np.tile(np.pad(energies, pad), (starts.size, 1)))
        lo.append(starts)
        hi.append(ends)
    p, e, lo, hi = (np.concatenate(part) for part in (p_rows, e_rows, lo, hi))
    assert lo.size >= 300
    calls = []
    newton = kernels.newton
    monkeypatch.setattr(kernels, "newton",
                        lambda g, lo, hi, tol: calls.append((g, tol)) or newton(g, lo, hi, tol))
    t = kernels.refine_minimum(p, e, lo, hi)
    (g, tol), = calls
    scale = np.abs(e).max(axis=-1)
    bound = kernels.rounding_bound(hi, np.count_nonzero(p, axis=-1), scale)
    np.testing.assert_array_equal(tol, 2.0 * scale * bound)
    np.testing.assert_array_equal(t, newton(two_table_slopes(p, e), lo, hi, tol))
    reference = two_table_slopes(p, e)
    for rows in (np.arange(lo.size), np.arange(0, lo.size, 3)):
        for at in (lo, 0.5 * (lo + hi), hi, t):
            for got, want in zip(g(at[rows], rows), reference(at[rows], rows)):
                np.testing.assert_array_equal(got, want)


class TestFirstPassage:
    state = qsim.two_level_state(np.sqrt(0.5))  # fidelity (1 + cos t) / 2

    def test_crossing_at_first_grid_point(self):
        # idx == 0 needs f(0) <= delta < 1: an equal-weight state whose grid
        # value at t = 0 rounds below 1, with delta set to that value
        for d in range(2, 40):
            state = qsim.QuantumState(np.arange(d, dtype=float), np.full(d, d ** -0.5))
            energies, p = state.support()
            z0 = kernels.fidelity_grid(p, energies, 0.0, 1.0, 16)[0]
            f0 = z0.real * z0.real + z0.imag * z0.imag  # bit for bit as the scan forms it
            if f0 < 1.0:
                break
        assert f0 < 1.0
        assert qsim.first_passage(state, f0, 10.0) == 0.0

    def test_interior_crossing(self):
        t_star = qsim.first_passage(self.state, 0.5, 10.0)
        assert t_star == pytest.approx(np.pi / 2, abs=1e-12)
        energies, p = self.state.support()
        f = kernels.fidelity_scalar(*state_rows(p, energies, 1), [t_star])[0]
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_no_crossing_within_horizon(self):
        # the crossing at pi/2 lies past the horizon
        assert qsim.first_passage(self.state, 0.5, 1.0) is None
        assert qsim.first_passage(self.state, 0.5, 0.5 * np.pi + 1e-9) is not None
