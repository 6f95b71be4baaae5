import math

import numpy as np
import pytest

from qsl import bounds, kernels, qsim
from qsl.errors import DomainError
from state_rows import state_rows

EQUAL_WEIGHT = qsim.QuantumState(
    np.array([0.0, 1.0]), np.array([math.sqrt(0.5), math.sqrt(0.5)], dtype=complex)
)
STATIONARY = qsim.QuantumState(np.array([3.0]), np.array([1.0], dtype=complex))
# fidelity dips to 0.103204 at t = 1.92, to 0.025292 at t = 3.875
DIP = qsim.QuantumState(np.array([0.0, 1.0, 2.2]), np.sqrt([0.5, 0.3, 0.2]).astype(complex))


def draw_state(rng, d):
    """The random state verify_limits draws, as the checked public type."""
    return qsim.QuantumState(*qsim._draw(rng, d))


def kernel_fidelity(state, t):
    """The fidelity at ``t`` through the shipped row kernel."""
    energies, p = state.support()
    return float(kernels.fidelity_scalar(*state_rows(p, energies, 1), [float(t)])[0])


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
        state = draw_state(np.random.default_rng(2), 6)
        for t in np.linspace(0.0, 150.0, 500):
            f = kernel_fidelity(state, float(t))
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_energy_shift_invariance(self):
        state = draw_state(np.random.default_rng(3), 5)
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
            state = draw_state(np.random.default_rng(seed), int(rng.integers(2, 7)))
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
        state = draw_state(rng, int(rng.integers(2, 9)))
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
            state = draw_state(np.random.default_rng(seed), 2 + seed % 7)
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
        rows = qsim._rows([DIP.support()])
        ends = np.exp(-1j * np.outer([0.0, width], rows.e[0])) @ rows.p[0]  # the amplitudes z
        assert abs(ends[1]) ** 2 <= delta
        chunk = (0, 0, ends, np.ones(1, dtype=bool))  # row 0's chunk from grid point 0
        (lo,), (hi,), (touch,) = qsim._first_events(rows, [chunk], np.array([width]),
                                                    np.array([delta]), np.ones((1, 1), dtype=bool))
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
            state = draw_state(np.random.default_rng(1000 + seed), 2 + seed % 7)
            short, long = scan_horizon(state), scan_horizon(state, 1000.0)
            for delta in qsim.DELTAS.tolist():
                t_star = qsim.first_passage(state, delta, short)
                if t_star is not None:
                    later = qsim.first_passage(state, delta, long)
                    assert later == pytest.approx(t_star, rel=1e-12, abs=1e-12), (seed, delta)


class TestFirstCells:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, columns = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        # each row's cells one contiguous run, some rows without any
        row = np.sort(rng.choice(n_rows, size=int(rng.integers(0, 40))))
        mask = rng.random((row.size, columns)) < rng.random()
        want = np.full((n_rows, columns), row.size)
        for c in range(row.size - 1, -1, -1):
            want[row[c], mask[c]] = c
        assert np.array_equal(qsim._first_cells(mask, row, n_rows), want)

    def test_empty_mask(self):
        first = qsim._first_cells(np.zeros((0, 3), dtype=bool), np.zeros(0, dtype=int), 4)
        assert np.array_equal(first, np.zeros((4, 3), dtype=int))


def touches_of_every_dip(rows, row, a, b, relevant, deltas, lo, hi, touch):
    """_touches as it was first written: every dip refined, the earliest reaching one recorded."""
    both = np.concatenate((row, row))
    slope = kernels.dfidelity_scalar(rows.p[both], rows.e[both], np.concatenate((a, b)))
    dip = (slope[:a.size] < 0.0) & (slope[a.size:] > 0.0)
    row, a, b, relevant = row[dip], a[dip], b[dip], relevant[dip]
    t_min = kernels.refine_minimum(rows.p[row], rows.e[row], a, b)
    f_min = kernels.fidelity_scalar(rows.p[row], rows.e[row], t_min)
    reach = relevant & (f_min[:, None] <= deltas + qsim._TOUCH_ACCEPT)
    recorded = set()
    for c in range(a.size):  # a row's dips in time order: the earliest reaching one is recorded
        for j in np.nonzero(reach[c])[0].tolist():
            if (row[c], j) not in recorded:
                recorded.add((row[c], j))
                lo[row[c], j] = a[c]
                if f_min[c] <= deltas[j] - qsim._TOUCH_ACCEPT:
                    hi[row[c], j] = t_min[c]
                else:
                    touch[row[c], j] = t_min[c]
    return int(dip.sum())


class TestTouches:
    @pytest.mark.parametrize("seed", range(4))
    def test_first_dips_first_records_what_every_dip_records(self, monkeypatch, seed):
        # cells around every grid minimum of 12 states over 8 of their fast
        # periods, several dips a row, some flat cells between; each row seeks
        # each target before a random cell start, or in all its cells, and
        # every other row no target below 0.5
        rng = np.random.default_rng(seed)
        states = [draw_state(rng, int(rng.integers(3, 9))) for _ in range(12)]
        rows = qsim._rows([state.support() for state in states])
        row, a = [], []
        for i, state in enumerate(states):
            step = fast_period(state) / 64
            t = np.arange(1, 512) * step
            f = dense_fidelity(state, t)
            minima = np.nonzero((f[1:-1] < f[:-2]) & (f[1:-1] <= f[2:]))[0] + 1
            starts = np.sort(np.concatenate((t[minima] - step, t[minima[::2]] + 5 * step)))
            row += [i] * starts.size
            a.append(starts)
        row, a = np.array(row), np.concatenate(a)
        b = a + np.array([fast_period(state) / 32 for state in states])[row]
        until = np.where(rng.random((len(states), qsim.DELTAS.size)) < 0.3, np.inf,
                         rng.choice(a, (len(states), qsim.DELTAS.size)))
        until[::2, :5] = -np.inf  # every other row seeks only delta >= 0.5
        relevant = a[:, None] < until[row]
        start = (np.full((len(states), qsim.DELTAS.size), np.inf),
                 np.full((len(states), qsim.DELTAS.size), np.inf),
                 np.full((len(states), qsim.DELTAS.size), np.nan))
        want = [x.copy() for x in start]
        dips = touches_of_every_dip(rows, row, a, b, relevant, qsim.DELTAS, *want)
        refined, refine = [], kernels.refine_minimum
        monkeypatch.setattr(kernels, "refine_minimum",
                            lambda p, e, lo, hi: refined.append(lo.size) or refine(p, e, lo, hi))
        got = [x.copy() for x in start]
        qsim._touches(rows, row, a, b, relevant, qsim.DELTAS, *got)
        for x, y in zip(got, want):
            assert np.array_equal(x, y, equal_nan=True)
        assert np.count_nonzero(np.isfinite(want[0])) > 20
        # the first dips alone, then the later dips of rows they leave short
        assert len(refined) == 2 and refined[0] == len(states) and sum(refined) < dips


class TestTailChunks:
    @staticmethod
    def passage_times(args):
        times, scan = [], qsim._scan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qsim, "_scan", lambda *a: times.append(scan(*a)) or times[-1])
            qsim.verify_limits(*args)
        return times

    @pytest.mark.parametrize("args", [(300, 8, 7), (50, 128, 1)])
    def test_chunk_length_changes_no_passage_time(self, monkeypatch, args):
        default = self.passage_times(args)
        monkeypatch.setattr(qsim, "_TAIL_CHUNK", qsim._CHUNK)
        short = self.passage_times(args)
        assert len(default) == len(short)
        assert all(np.array_equal(x, y, equal_nan=True) for x, y in zip(default, short))

    def test_a_scan_makes_at_most_two_first_events_calls(self, monkeypatch):
        # one for the first chunks, one for every tail chunk of the block
        per_scan, scan, first_events = [], qsim._scan, qsim._first_events

        def counted_scan(*args):
            per_scan.append(0)
            return scan(*args)

        def counted_events(*args):
            per_scan[-1] += 1
            return first_events(*args)

        monkeypatch.setattr(qsim, "_scan", counted_scan)
        monkeypatch.setattr(qsim, "_first_events", counted_events)
        qsim.verify_limits(50, 128, 1)  # a delta = 0 passage at grid point 49 152
        assert len(per_scan) > 1 and max(per_scan) == 2

    def test_tail_hands_on_only_cells_no_bound_clears(self, monkeypatch):
        # a tail chunk's depth-0 pass hands the flat phase a row's crossing
        # cells and the cells neither the curvature nor the chord bound clears;
        # a row's tail chunks go to the flat phase together, in order
        calls, first_events, first_cells = [], qsim._first_events, qsim._first_cells

        def recorded_events(rows, grids, h, deltas, todo):
            chunks = []
            calls.append(dict(rows=rows, chunks=chunks, h=h.copy()))

            def recording():
                for i, k, z, seek in grids:
                    chunks.append((i, k, z, seek.copy()))  # what the chunk seeks, as it came
                    yield i, k, z, seek

            return first_events(rows, recording(), h, deltas, todo)

        def recorded_cells(mask, row, n_rows):
            calls[-1].setdefault("handed", (mask, row))
            return first_cells(mask, row, n_rows)

        monkeypatch.setattr(qsim, "_first_events", recorded_events)
        monkeypatch.setattr(qsim, "_first_cells", recorded_cells)
        qsim.verify_limits(50, 128, 1)
        tail = [c for c in calls if c["chunks"] and c["chunks"][0][1]]
        assert tail
        chord_cleared, several = 0, 0
        for c in tail:
            rows, deltas = c["rows"], qsim.DELTAS
            mask, row = c["handed"]
            handed_rows = {}
            for i, k, z, seek in c["chunks"]:
                assert k >= qsim._CHUNK
                h = float(c["h"][i])
                f = z.real * z.real + z.imag * z.imag
                fmin = np.minimum(f[:-1], f[1:])
                n = fmin.size
                sought = deltas[seek]
                first = np.array([np.argmax(fmin <= t) if (fmin <= t).any() else n for t in sought])
                # each cell's highest sought target whose first crossing cell lies after it
                after = first > np.arange(n)[:, None]
                top = np.where(after, sought + qsim._TOUCH_ACCEPT, -math.inf).max(
                    axis=1, initial=-math.inf)
                r = rows.rounding((k + n - 1) * h + h, i)
                curvature = fmin - rows.curv[i] * h * h / 8.0 - r > top
                gap = qsim._chord_distance(z[:-1], z[1:]) - rows.sag[i] * h * h - r
                chord = np.maximum(gap, 0.0) ** 2 > top
                crossing = np.isin(np.arange(n), first)
                handed = crossing | ~(curvature | chord)
                chord_cleared += np.count_nonzero(~crossing & ~curvature & chord)
                handed_rows.setdefault(i, []).append(fmin[handed, None] <= deltas)
            for i, parts in handed_rows.items():
                several += len(parts) > 1
                assert np.array_equal(mask[row == i], np.concatenate(parts))
        assert chord_cleared > 10**5
        assert several  # some row's tail chunks all went to one flat phase


class TestChordBound:
    def test_chord_bound_holds_on_random_cells(self):
        # on a cell [a, a + h], |z| >= dist(0, [z(a), z(a + h)]) - sag*h**2 - r,
        # with z(a) and z(a + h) from the kernel; checked against a dense direct
        # evaluation, which carries a rounding error r of its own, on cells from
        # 1/100 to 3 grid steps wide. The least margin is 3.5e-8, and 0.9*sag
        # fails on 5 cells. On 69 cells the curvature bound cannot clear even
        # delta = 0, which the chord bound clears
        rng = np.random.default_rng(31)
        margins, curvature_kept = [], 0
        for seed in range(300):
            state = draw_state(np.random.default_rng(seed), 2 + seed % 7)
            rows = qsim._rows([state.support()])
            p, e = rows.p[0], rows.e[0]
            step = 2 * math.pi / (qsim._SAMPLES_PER_FAST_PERIOD * np.ptp(e))
            starts = rng.uniform(0.0, 100.0, 10)
            for a, h in zip(starts, step * 10.0 ** rng.uniform(-2.0, 0.5, 10)):
                z = kernels.amplitude_rows(*state_rows(p, e, 1), [a], [h], 2)[0]
                r = rows.rounding(a + h, 0)
                gap = qsim._chord_distance(z[:1], z[1:])[0] - rows.sag[0] * h * h - r
                t = a + h * np.linspace(0.0, 1.0, 513)
                margins.append(np.abs(np.exp(-1j * np.outer(t, e)) @ p).min() + r - gap)
                fmin = (np.abs(z) ** 2).min()
                curvature_kept += gap > 0.0 and fmin - rows.curv[0] * h * h / 8.0 - r <= 0.0
        assert min(margins) >= 0.0
        assert curvature_kept >= 50

    def test_chord_distance_of_degenerate_and_far_segments(self):
        z = np.array([0.6 + 0.8j, 1.0 + 0j, 1.0 - 1.0j])
        w = np.array([0.6 + 0.8j, 2.0 + 0j, -1.0 + 1.0j])  # a point, 0 off the end, 0 on it
        np.testing.assert_allclose(qsim._chord_distance(z, w), [1.0, 1.0, 0.0], atol=1e-16)

    def test_one_row_index_and_cell_rows_keep_the_same_cells(self):
        # the per-row pass gives _uncleared one row index, the flat phase the
        # row of each cell; both must keep the same cells
        t = np.linspace(0.0, 20.0, 2001)
        z = (0.6 + 0.35 * np.cos(0.7 * t)) * np.exp(1j * t)
        f = z.real * z.real + z.imag * z.imag
        fmin, ceiling = np.minimum(f[:-1], f[1:]), np.random.default_rng(8).uniform(0.0, 1.0, 2000)
        args = (fmin, z[:-1], z[1:], np.array([9.0, 2.0]), np.array([9.0, 0.02]),
                np.array([9.0, 1e-12]), ceiling)
        curvature = qsim._uncleared(*args, 1, chord=False)
        for chord in (False, True):
            kept = qsim._uncleared(*args, 1, chord=chord)
            per_cell = qsim._uncleared(*args, np.ones(2000, dtype=int), chord=chord)
            assert np.array_equal(kept, per_cell)
        # the chord bound clears some cells the curvature bound keeps, and no others
        assert np.count_nonzero(curvature & ~kept) > 100
        assert not np.any(kept & ~curvature)

    @pytest.mark.parametrize("args", [(300, 8, 7), (100, 40, 3, 0.3), (3, 256, 7)])
    def test_chord_test_changes_no_report_and_cuts_few_cells(self, monkeypatch, args):
        # sag = inf turns the chord test off, so that the curvature test alone
        # clears cells; every amplitude_rows row is a subdivision
        rows = []
        amplitude_rows, set_up = kernels.amplitude_rows, qsim._rows

        def counted_rows(p, e, starts, dt, n):
            rows.append(len(starts))
            return amplitude_rows(p, e, starts, dt, n)

        monkeypatch.setattr(kernels, "amplitude_rows", counted_rows)
        default, default_rows = qsim.verify_limits(*args), sum(rows)
        rows.clear()
        monkeypatch.setattr(qsim, "_rows", lambda *args: set_up(*args)._replace(sag=math.inf))
        assert qsim.verify_limits(*args) == default
        assert 0 < 5 * default_rows < sum(rows)


def limits(state, deltas):
    """Both speed limits of ``state`` at ``deltas``, from the numerators verify_limits uses."""
    deltas = np.asarray(deltas, dtype=float)
    ml_coeff = 0.5 * math.pi * bounds.alpha(deltas)
    mt_coeff = np.array([bounds.mt_alpha(d) for d in deltas.tolist()])
    ml, mt = qsim._limits(qsim._rows([state.support()]), ml_coeff, mt_coeff)
    return ml[0], mt[0]


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
        s = draw_state(np.random.default_rng(4), 1)
        assert s.energies.size == 1
        assert abs(abs(s.amplitudes[0]) - 1.0) <= 1e-12

    def test_normalization_across_seeds(self):
        for seed in range(1000):
            s = draw_state(np.random.default_rng(seed), 7)
            assert np.sum(np.abs(s.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(s.energies) >= 0.0)
            assert 0.0 <= s.energies[0] and s.energies[-1] <= 1.0

    def test_reproducible(self):
        a = draw_state(np.random.default_rng(99), 5)
        b = draw_state(np.random.default_rng(99), 5)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_validation(self):
        with pytest.raises(DomainError):
            draw_state(np.random.default_rng(1), 0)

    def test_drawn_support_is_the_drawn_state_support(self):
        # verify_limits draws supports without the state type, from the same stream
        pairs = np.random.default_rng(2024).integers([0, 1], [10**6, 300], size=(1000, 2))
        for seed, d in pairs.tolist():
            got = qsim._support(*qsim._draw(np.random.default_rng(seed), d))
            want = draw_state(np.random.default_rng(seed), d).support()
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def scalar_tally(report, t_star, ml, mt, tol):
    """The check of each time against both limits, one at a time, as a reference for _tally."""
    for t, ml_d, mt_d, g in zip(t_star.tolist(), ml.tolist(), mt.tolist(), tol.tolist()):
        if math.isnan(t):
            report["skips"] += 1
            continue
        report["checks"] += 1
        ml_slack = t - ml_d if math.isfinite(ml_d) else math.inf
        mt_slack = t - mt_d if math.isfinite(mt_d) else math.inf
        report["min_ml_slack"] = min(report["min_ml_slack"], ml_slack)
        report["min_mt_slack"] = min(report["min_mt_slack"], mt_slack)
        if (math.isfinite(ml_d) and t < ml_d * (1.0 - g)) or \
                (math.isfinite(mt_d) and t < mt_d * (1.0 - g)):
            report["violations"] += 1
        binding = min(ml_d, mt_d)
        if math.isfinite(binding) and binding > 0.0:
            rel = t / binding - 1.0
            edge = next((e for e in qsim._HIST_EDGES if rel <= e), None)
            report["hist_rel_slack_gt_1" if edge is None else f"hist_rel_slack_le_{edge:g}"] += 1


def two_table_tolerance(rows, row, t):
    """qsim._tolerance with f' and f'' from two kernel calls, each over its own exp table."""
    p, e, r = rows.p[row], rows.e[row], rows.rounding(t, row)
    block = max(1, kernels._LEVEL_BLOCK // p.shape[1])
    curv = np.concatenate([kernels._level_sums(*kernels._level_major(p[s:s + block],
                                                                     e[s:s + block]),
                                               t[s:s + block], 2)[2]
                           for s in range(0, max(t.size, 1), block)])
    slope, curv = np.abs(kernels.dfidelity_scalar(p, e, t)), np.abs(curv)
    with np.errstate(divide="ignore", invalid="ignore"):
        time = np.minimum(2.0 * r / slope, (slope + 2.0 * rows.scale[row] * r) / curv) / t
    return time + (10.0 + rows.d[row]) * np.finfo(np.float64).eps


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
        tol = 10.0 ** rng.uniform(-15.0, -5.0, n)
        # a limit above the time by half its tolerance, and one by twice it: one violation
        t_star[8:10], ml[8:10], mt[8:10], tol[8:10] = 1.0, [1.0 + 5e-13, 1.0 + 2e-12], np.inf, 1e-12
        edge = qsim._empty_report(2, 8, 0, 1.0)
        qsim._tally(edge, t_star[8:10], ml[8:10], mt[8:10], tol[8:10])
        assert edge["violations"] == 1
        for cut in (n, 2000, 17):  # one tally, or several into the same report
            reference = qsim._empty_report(n, 8, 0, 1.0)
            scalar_tally(reference, t_star, ml, mt, tol)
            report = qsim._empty_report(n, 8, 0, 1.0)
            for s in range(0, n, cut):
                qsim._tally(report, t_star[s:s + cut], ml[s:s + cut], mt[s:s + cut],
                            tol[s:s + cut])
            assert report == reference
            assert all(type(report[key]) is type(reference[key]) for key in report)
        assert reference["violations"] > 0 and reference["skips"] > 0
        assert all(reference[key] > 0 for key in qsim._HIST_KEYS)

    @pytest.mark.parametrize("args", [(300, 8, 7), (100, 40, 3, 0.3), (3, 256, 7)])
    def test_block_boundary_does_not_change_the_report(self, monkeypatch, args):
        # with a cell budget of 1 every scan block holds one trial, set up,
        # scanned and refined on rows only as wide as its own state; the
        # designed cases ride in the first block
        blocks = []
        scan = qsim._scan
        monkeypatch.setattr(qsim, "_scan",
                            lambda rows, *rest: blocks.append(rows.d.size) or scan(rows, *rest))
        default = qsim.verify_limits(*args)
        size = qsim._BLOCK_CELLS // (qsim.DELTAS.size * args[1])
        assert size > 1
        trials = [min(size, args[0] - s) for s in range(0, args[0], size)]
        assert blocks == [trials[0] + qsim.DELTAS.size] + trials[1:]
        blocks.clear()
        monkeypatch.setattr(qsim, "_BLOCK_CELLS", 1)
        assert qsim.verify_limits(*args) == default
        assert blocks == [1 + qsim.DELTAS.size] + [1] * (args[0] - 1)

    def test_subdivisions_are_evaluated_per_block_not_per_trial(self, monkeypatch):
        # every amplitude evaluation after depth 0 (an amplitude_rows call)
        # serves a whole block at one chunk and depth, so their count is
        # bounded by blocks * chunks * depths, whatever the trials
        calls, blocks = [], []
        amplitude_rows, scan = kernels.amplitude_rows, qsim._scan

        def counted_rows(*args):
            calls.append(len(args[2]))
            return amplitude_rows(*args)

        monkeypatch.setattr(kernels, "amplitude_rows", counted_rows)
        monkeypatch.setattr(qsim, "_scan",
                            lambda rows, *rest: blocks.append(rows.d.size) or scan(rows, *rest))
        per_block = qsim._POINT_BUDGET // qsim._CHUNK * qsim._MAX_DEPTH
        qsim.verify_limits(750, 8, 7)
        assert len(blocks) > 2 and 0 < len(calls) <= len(blocks) * per_block < sum(calls)
        # one block of all the trials: as many calls for 750 trials as the bound for 2 blocks
        monkeypatch.setattr(qsim, "_BLOCK_CELLS", 750 * qsim.DELTAS.size * 8)
        counts = []
        for trials in (75, 750):
            calls.clear()
            qsim.verify_limits(trials, 8, 7)
            counts.append(len(calls))
        assert 0 < counts[0] <= counts[1] <= 2 * per_block

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
        # solved once per run; their crossings are refined in their block's one call
        alphas, levels = [], []
        alpha, refine = bounds.alpha, kernels.refine_crossing
        monkeypatch.setattr(bounds, "alpha", lambda delta: alphas.append(delta) or alpha(delta))
        monkeypatch.setattr(kernels, "refine_crossing",
                            lambda p, e, lo, hi, level: levels.append(level)
                            or refine(p, e, lo, hi, level))
        rep = qsim.verify_limits(5, 4, seed=7)
        assert len(alphas) == 1
        assert len(levels) == 1
        assert rep["designed_cases"] == qsim.DELTAS.size
        assert rep["checks"] >= rep["designed_cases"]
        # every designed case but the touch at delta = 0 is a crossing in its
        # first chunk, and the designed rows follow the trials'
        np.testing.assert_array_equal(levels[0][-9:], qsim.DELTAS[1:])

    def test_one_trial_refines_one_minimum_bracket_set_and_one_crossing_set(self, monkeypatch):
        # the designed delta = 0 touch at t = pi is each row's first dip; the
        # later dips at pi+ and 3*pi, whose minima sit on a bracket end, are
        # not refined, and the designed crossings share the trial's one call
        calls, refine = [], kernels._refine  # [derivative order, Newton passes] per refiner call

        def counted(p, e, lo, hi, order, g):
            calls.append([order, 0])

            def g_counted(f, rows):
                calls[-1][1] += 1
                return g(f, rows)

            return refine(p, e, lo, hi, order, g_counted)

        monkeypatch.setattr(kernels, "_refine", counted)
        rep = qsim.verify_limits(1, 8, 7)
        assert rep["designed_violations"] == 0
        minimum = [passes for order, passes in calls if order == 2]  # refine_minimum's calls
        assert len(minimum) == 1 and minimum[0] <= 4
        assert [order for order, _ in calls].count(1) == 1  # refine_crossing's calls

    def test_designed_cases_match_first_passage(self):
        # one refinement call for all designed brackets gives each case the
        # time that first_passage measures for it alone, bit for bit
        _, z_opts = bounds._upper_bound_argmin(qsim.DELTAS)
        slack = 0.0
        for i, (delta, z_opt) in enumerate(zip(qsim.DELTAS.tolist(), z_opts.tolist())):
            state = qsim.two_level_state(math.sqrt(0.5 * (1.0 + z_opt)))
            t_star = qsim.first_passage(state, delta, scan_horizon(state))
            slack = max(slack, abs(t_star / limits(state, qsim.DELTAS)[0][i] - 1.0))
        for horizon_mult in (1.0, 0.3):
            rep = qsim.verify_limits(1, 2, seed=7, horizon_mult=horizon_mult)
            assert rep["designed_violations"] == 0
            assert rep["designed_max_rel_slack"] == slack

    def test_deterministic(self):
        a = qsim.verify_limits(50, 4, seed=3)
        b = qsim.verify_limits(50, 4, seed=3)
        assert a == b

    def test_validation(self):
        with pytest.raises(DomainError):
            qsim.verify_limits(-1, 8, seed=0)
        with pytest.raises(DomainError):
            qsim.verify_limits(10, 1, seed=0)

    @pytest.mark.parametrize("args", [(300, 8, 7), (50, 128, 1)])
    def test_tolerance_from_one_table_is_the_two_table_one(self, monkeypatch, args):
        tolerance, pairs = qsim._tolerance, []

        def recording(rows, row, t):
            pairs.append((tolerance(rows, row, t), two_table_tolerance(rows, row, t)))
            return pairs[-1][0]

        monkeypatch.setattr(qsim, "_tolerance", recording)
        qsim.verify_limits(*args)
        # every block of trials, then the designed cases
        assert len(pairs) >= 2 and sum(tol.size for tol, _ in pairs) > 0
        for tol, reference in pairs:
            assert np.array_equal(tol.view(np.int64), reference.view(np.int64))
