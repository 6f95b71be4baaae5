import math

import numpy as np
import pytest

from qsl import bounds, kernels, qsim
from qsl.errors import DomainError

EQUAL_WEIGHT = qsim.QuantumState(
    np.array([0.0, 1.0]), np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)
)
STATIONARY = qsim.QuantumState(np.array([3.0]), np.array([1.0], dtype=complex))
# fidelity dips to 0.103204 at t = 1.92, to 0.025292 at t = 3.875
DIP = qsim.QuantumState(np.array([0.0, 1.0, 2.2]), np.sqrt([0.5, 0.3, 0.2]).astype(complex))


def kernel_fidelity(state, t):
    """The fidelity at ``t`` through the shipped scalar kernel."""
    energies, p = state.support()
    return float(kernels.fidelity_scalar(p, energies, float(t)))


def dense_fidelity(state, t):
    """The fidelity at each time of ``t``, evaluated directly, not through the kernels."""
    energies, p = state.support()
    z = np.exp(-1j * np.outer(t, energies)) @ p
    return np.abs(z) ** 2


def scan_horizon(state, mult=1.0):
    return qsim.default_horizon(state.support()[0], mult)


def fast_period(state):
    energies, _ = state.support()
    return 2 * math.pi / (energies.max() - energies.min())


def reference_passage(state, delta, step, t_max):
    """First grid crossing of ``delta`` on [0, t_max], bisected to the float spacing."""
    grid = np.arange(0.0, t_max, step)
    i = int(np.argmax(dense_fidelity(state, grid) <= delta))
    assert i > 0
    lo, hi = grid[i - 1], grid[i]
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dense_fidelity(state, mid)[0] > delta else (lo, mid)
    return hi


class TestQuantumState:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            qsim.QuantumState(np.array([0.0, 1.0]), np.array([1.0, 1.0], dtype=complex))

    def test_needs_nonzero_amplitude(self):
        with pytest.raises(DomainError):
            qsim.QuantumState(np.array([0.0]), np.array([0.0], dtype=complex))

    def test_support_drops_empty_levels(self):
        s = qsim.QuantumState(np.array([0.0, 1.0, 2.0]),
                              np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5)], dtype=complex))
        energies, p = s.support()
        assert list(energies) == [0.0, 2.0]
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("amplitude", [math.nan, complex(0.0, math.nan), math.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        # the norm check alone passes a NaN amplitude: a comparison with NaN is false
        with pytest.raises(DomainError):
            qsim.QuantumState(np.array([0.0, 1.0]), np.array([amplitude, 1.0], dtype=complex))


class TestFidelity:
    def test_identity_at_zero(self):
        assert kernel_fidelity(EQUAL_WEIGHT, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_two_level_closed_form(self):
        for t in (0.3, 1.0, 2.5, math.pi):
            assert kernel_fidelity(EQUAL_WEIGHT, t) == pytest.approx(math.cos(t / 2) ** 2, abs=1e-12)

    def test_stationary(self):
        for t in (0.0, 1.7, 100.0):
            assert kernel_fidelity(STATIONARY, t) == pytest.approx(1.0, abs=1e-14)

    def test_bounded(self):
        state = qsim.draw_state(np.random.default_rng(2), 6)
        for t in np.linspace(0.0, 150.0, 500):
            f = kernel_fidelity(state, float(t))
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_energy_shift_invariance(self):
        state = qsim.draw_state(np.random.default_rng(3), 5)
        shifted = qsim.QuantumState(state.energies + 17.3, state.amplitudes)
        for t in (0.2, 1.1, 8.0):
            assert kernel_fidelity(state, t) == pytest.approx(kernel_fidelity(shifted, t), abs=1e-9)
        for functional in (qsim.dispersion, qsim.mean_excess_energy):
            assert functional(*state.support()) == pytest.approx(
                functional(*shifted.support()), abs=1e-12)


class TestEnergyFunctionals:
    def test_equal_weight_two_level(self):
        assert qsim.dispersion(*EQUAL_WEIGHT.support()) == pytest.approx(0.5, abs=1e-14)
        assert qsim.mean_excess_energy(*EQUAL_WEIGHT.support()) == pytest.approx(0.5, abs=1e-14)

    def test_single_level(self):
        assert qsim.dispersion(*STATIONARY.support()) == 0.0
        assert qsim.mean_excess_energy(*STATIONARY.support()) == 0.0

    def test_weighted_two_level(self):
        for u in (0.1, 0.4, 0.9):
            s = qsim.two_level_state(math.sqrt(u))
            assert qsim.mean_excess_energy(*s.support()) == pytest.approx(u, abs=1e-12)
            assert qsim.dispersion(*s.support()) == pytest.approx(
                math.sqrt(u * (1.0 - u)), abs=1e-12)


class TestFirstPassage:
    def test_orthogonalization_touch(self):
        # fidelity cos^2(t/2) touches zero tangentially at t = pi
        t_star = qsim.first_passage(EQUAL_WEIGHT, 0.0, 4 * math.pi)
        assert t_star == pytest.approx(math.pi, rel=1e-9)
        assert abs(kernel_fidelity(EQUAL_WEIGHT, t_star)) <= 1e-8

    def test_stationary_never_crosses(self):
        assert qsim.first_passage(STATIONARY, 0.5, 10.0) is None

    def test_half_fidelity(self):
        t_star = qsim.first_passage(EQUAL_WEIGHT, 0.5, 4 * math.pi)
        assert t_star == pytest.approx(math.pi / 2, rel=1e-10)

    def test_target_already_met(self):
        assert qsim.first_passage(EQUAL_WEIGHT, 1.0, 1.0) == 0.0

    def test_crossing_value_invariant(self):
        rng = np.random.default_rng(19)
        for seed in range(20):
            state = qsim.draw_state(np.random.default_rng(seed), int(rng.integers(2, 7)))
            horizon = scan_horizon(state)
            t_star = qsim.first_passage(state, 0.4, horizon)
            if t_star is not None:
                assert 0.0 <= t_star <= horizon
                assert kernel_fidelity(state, t_star) == pytest.approx(0.4, abs=1e-8)

    @pytest.mark.parametrize("delta,horizon", [(-0.1, 1.0), (0.5, 0.0)])
    def test_validation(self, delta, horizon):
        with pytest.raises(DomainError):
            qsim.first_passage(EQUAL_WEIGHT, delta, horizon)

    @pytest.mark.parametrize("delta,expected", [(0.1, 5.912137764688868), (0.2, 5.141107829876899)])
    def test_long_horizon_trial_matches_dense_reference(self, delta, expected):
        # trial 738 of `simulate --seed 7`: its horizon is 2.3e6, over which a
        # grid capped at 65536 points stepped 35.46 against a 9.52 period
        rng = np.random.default_rng(7 + 738)
        state = qsim.draw_state(rng, int(rng.integers(2, 9)))
        assert state.energies.size == 7
        horizon = scan_horizon(state)
        assert horizon > 2e6
        ref = reference_passage(state, delta, fast_period(state) / 1024, 20.0)
        t_star = qsim.first_passage(state, delta, horizon)
        assert t_star == pytest.approx(ref, abs=1e-9)
        assert t_star == pytest.approx(expected, abs=1e-9)

    def test_no_dense_sample_below_target_before_t_star(self):
        deltas = qsim.DELTAS.tolist()
        for seed in range(200):
            state = qsim.draw_state(np.random.default_rng(seed), 2 + seed % 7)
            horizon = scan_horizon(state)
            times = [qsim.first_passage(state, delta, horizon) for delta in deltas]
            reached = [(d, t) for d, t in zip(deltas, times) if t is not None]
            if not reached:
                continue
            step = fast_period(state) / (64 * qsim._SAMPLES_PER_FAST_PERIOD)
            grid = np.arange(0.0, max(t for _, t in reached), step)
            f = dense_fidelity(state, grid)
            for delta, t_star in reached:
                before = f[grid < t_star]
                assert before.size == 0 or before.min() > delta - 1e-12, (seed, delta)
                assert dense_fidelity(state, t_star)[0] == pytest.approx(delta, abs=1e-12)

    def test_dip_between_grid_points_is_found(self):
        # the first fidelity minimum, 0.103204 at t = 1.92, lies between two
        # samples of the 16-per-period grid that both read above 0.1038
        delta = 0.1035
        step = fast_period(DIP) / qsim._SAMPLES_PER_FAST_PERIOD
        ref = reference_passage(DIP, delta, step / 1024, 3.0)
        grid = np.arange(0.0, ref + 2 * step, step)
        assert dense_fidelity(DIP, grid).min() > delta
        assert qsim.first_passage(DIP, delta, 50.0) == pytest.approx(ref, abs=1e-9)

    def test_crossing_cell_is_cut_down_to_the_first_crossing(self):
        # one cell from t = 0 to past the second dip ends below the target
        # and holds three crossings before its end; the derivative bound
        # cannot certify f monotone on it, so it is cut until the bracket
        # holds the first crossing only
        delta = 0.1035
        ref = reference_passage(DIP, delta, fast_period(DIP) / 16384, 3.0)
        width = 3.9
        energies, p = DIP.support()
        ends = dense_fidelity(DIP, np.array([0.0, width]))
        assert ends[1] <= delta
        lo, hi, touch = qsim._first_events(qsim._Curve.of(energies, p), np.array([0.0]),
                                           ends[:1], ends[1:], width, np.array([delta]))
        assert np.isnan(touch[0])
        assert lo[0] < ref <= hi[0] and hi[0] - lo[0] <= width / qsim._SPLIT

    def test_unreachable_target_is_not_scanned(self, monkeypatch):
        calls = []
        grid = kernels.fidelity_grid
        monkeypatch.setattr(kernels, "fidelity_grid", lambda *args: calls.append(args) or grid(*args))
        state = qsim.two_level_state(math.sqrt(0.2))  # p_max = 0.8, so f >= 0.6**2 = 0.36
        assert qsim.first_passage(state, 0.35, 1e6) is None
        assert calls == []
        assert qsim.first_passage(state, 0.37, 10.0) is not None
        assert calls
        # the bound needs p_max > 1/2: three equal weights reach f = 0 at t = 2*pi/3
        equal = qsim.QuantumState(np.array([0.0, 1.0, 2.0]), np.full(3, 3 ** -0.5, dtype=complex))
        assert qsim.first_passage(equal, 0.1, 10.0) is not None

    def test_horizon_multiplier_keeps_passage_times(self):
        # the scan's step does not depend on the horizon, so a longer horizon
        # only adds grid points after the ones a shorter one scans
        for seed in range(50):
            state = qsim.draw_state(np.random.default_rng(1000 + seed), 2 + seed % 7)
            short, long = scan_horizon(state), scan_horizon(state, 1000.0)
            for delta in qsim.DELTAS.tolist():
                t_star = qsim.first_passage(state, delta, short)
                if t_star is not None:
                    later = qsim.first_passage(state, delta, long)
                    assert later == pytest.approx(t_star, rel=1e-12, abs=1e-12), (seed, delta)


def limits(state, deltas):
    """Both speed limits of ``state`` at ``deltas``, from the numerators verify_limits uses."""
    deltas = np.asarray(deltas, dtype=float)
    ml_coeff = 0.5 * math.pi * bounds.alpha(deltas)
    mt_coeff = np.array([bounds.mt_alpha(d) for d in deltas.tolist()])
    return qsim._limits(*state.support(), ml_coeff, mt_coeff)


class TestBounds:
    def test_saturation_at_zero_fidelity(self):
        ml, mt = limits(EQUAL_WEIGHT, [0.0])
        assert ml[0] == pytest.approx(math.pi, abs=1e-12)
        assert mt[0] == pytest.approx(math.pi, abs=1e-12)
        assert qsim.first_passage(EQUAL_WEIGHT, 0.0, 4 * math.pi) == pytest.approx(math.pi, rel=1e-9)

    def test_vanish_at_unit_fidelity(self):
        ml, mt = limits(EQUAL_WEIGHT, [1.0])
        assert ml[0] <= 1e-12
        assert mt[0] <= 1e-12

    def test_infinite_for_stationary(self):
        ml, mt = limits(STATIONARY, [0.0, 0.5])
        assert np.all(ml == math.inf)
        assert np.all(mt == math.inf)

    def test_optimal_family_saturates(self):
        delta = 0.5
        _, z_opt = bounds._upper_bound_argmin(delta)
        state = qsim.two_level_state(math.sqrt((1.0 + z_opt) / 2.0))
        t_star = qsim.first_passage(state, delta, scan_horizon(state))
        ml, _ = limits(state, [delta])
        assert abs(t_star / ml[0] - 1.0) <= 1e-8


class TestSampling:
    def test_single_level(self):
        s = qsim.draw_state(np.random.default_rng(4), 1)
        assert s.energies.size == 1
        assert abs(abs(s.amplitudes[0]) - 1.0) <= 1e-12

    def test_normalization_across_seeds(self):
        for seed in range(1000):
            s = qsim.draw_state(np.random.default_rng(seed), 7)
            assert np.sum(np.abs(s.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(s.energies) >= 0.0)
            assert 0.0 <= s.energies[0] and s.energies[-1] <= 1.0

    def test_reproducible(self):
        a = qsim.draw_state(np.random.default_rng(99), 5)
        b = qsim.draw_state(np.random.default_rng(99), 5)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_validation(self):
        with pytest.raises(DomainError):
            qsim.draw_state(np.random.default_rng(1), 0)


def scalar_tally(report, t_star, ml, mt):
    """The check of each time against both limits, one at a time, as a reference for _tally."""
    for t, ml_d, mt_d in zip(t_star.tolist(), ml.tolist(), mt.tolist()):
        if math.isnan(t):
            report["skips"] += 1
            continue
        report["checks"] += 1
        ml_slack = t - ml_d if math.isfinite(ml_d) else math.inf
        mt_slack = t - mt_d if math.isfinite(mt_d) else math.inf
        report["min_ml_slack"] = min(report["min_ml_slack"], ml_slack)
        report["min_mt_slack"] = min(report["min_mt_slack"], mt_slack)
        if ml_slack < -1e-9 or mt_slack < -1e-9:
            report["violations"] += 1
        binding = min(ml_d, mt_d)
        if math.isfinite(binding) and binding > 0.0:
            rel = t / binding - 1.0
            edge = next((e for e in qsim._HIST_EDGES if rel <= e), None)
            report["hist_rel_slack_gt_1" if edge is None else f"hist_rel_slack_le_{edge:g}"] += 1


class TestVerifyLimits:
    def test_array_tally_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        n = 4000
        t_star = rng.uniform(0.0, 3.0, n)
        ml = t_star / (1.0 + 10.0 ** rng.uniform(-8.0, 1.0, n))  # slack in every bin
        mt = rng.uniform(0.0, 4.0, n)  # some above t_star: violations
        t_star[rng.random(n) < 0.1] = np.nan
        ml[rng.random(n) < 0.1] = np.inf
        mt[rng.random(n) < 0.1] = np.inf
        ml[:3], mt[:3] = 0.0, np.inf  # a zero binding limit is not binned
        t_star[3:6], ml[3:6], mt[3:6] = [1.0, 2.0, 1.0 + 2e-6], 1.0, np.inf  # on and near edges
        ml[6:8], mt[6:8] = np.inf, np.inf  # no finite limit
        t_star[6] = 2.5
        for cut in (n, 2000, 17):  # one tally, or several into the same report
            reference = qsim._empty_report(n, 8, 0, 1.0)
            scalar_tally(reference, t_star, ml, mt)
            report = qsim._empty_report(n, 8, 0, 1.0)
            for s in range(0, n, cut):
                qsim._tally(report, t_star[s:s + cut], ml[s:s + cut], mt[s:s + cut])
            assert report == reference
            assert all(type(report[key]) is type(reference[key]) for key in report)
        assert reference["violations"] > 0 and reference["skips"] > 0
        assert all(reference[key] > 0 for key in qsim._HIST_KEYS)

    @pytest.mark.parametrize("args", [(300, 8, 7), (100, 40, 3, 0.3)])
    def test_block_boundary_does_not_change_the_report(self, monkeypatch, args):
        # with a cell budget of 1 every trial with a crossing is refined alone,
        # in a zero-padded block only as wide as its own state
        blocks = []
        refine = kernels.refine_crossing
        monkeypatch.setattr(kernels, "refine_crossing",
                            lambda p, *rest: blocks.append(np.ndim(p)) or refine(p, *rest))
        default = qsim.verify_limits(*args)
        assert blocks.count(2) == 1
        blocks.clear()
        monkeypatch.setattr(qsim, "_REFINE_CELLS", 1)
        assert qsim.verify_limits(*args) == default
        assert blocks.count(2) > 0.9 * args[0]


    def test_small_run_clean(self):
        rep = qsim.verify_limits(200, 8, seed=7)
        assert rep["violations"] == 0
        assert rep["designed_violations"] == 0
        assert rep["checks"] > 0
        assert rep["min_ml_slack"] >= -1e-9
        assert rep["min_mt_slack"] >= -1e-9

    def test_empty_report(self):
        rep = qsim.verify_limits(0, 8, seed=7)
        assert rep["checks"] == 0
        assert rep["skips"] == 0
        assert rep["violations"] == 0
        assert rep["designed_cases"] == 0

    def test_designed_saturation(self):
        rep = qsim.verify_limits(1, 2, seed=7)
        assert rep["designed_cases"] == qsim.DELTAS.size
        assert rep["designed_max_rel_slack"] <= 1e-6

    def test_one_alpha_solve_per_run(self, monkeypatch):
        # the designed cases take the random trials' coefficients, so alpha is
        # solved once per run; each designed passage is still measured by first_passage
        alphas, passages = [], []
        alpha, first_passage = bounds.alpha, qsim.first_passage
        monkeypatch.setattr(bounds, "alpha", lambda delta: alphas.append(delta) or alpha(delta))
        monkeypatch.setattr(qsim, "first_passage",
                            lambda state, delta, horizon: passages.append(delta)
                            or first_passage(state, delta, horizon))
        rep = qsim.verify_limits(5, 4, seed=7)
        assert len(alphas) == 1
        assert passages == qsim.DELTAS.tolist()
        assert rep["designed_cases"] == len(passages)
        assert rep["checks"] >= rep["designed_cases"]

    def test_deterministic(self):
        a = qsim.verify_limits(50, 4, seed=3)
        b = qsim.verify_limits(50, 4, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(DomainError):
            qsim.verify_limits(-1, 8, seed=0)
        with pytest.raises(DomainError):
            qsim.verify_limits(10, 1, seed=0)
